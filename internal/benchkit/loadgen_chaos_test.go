package benchkit

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"pax/internal/blackbox"
)

// The CI crash-postmortem smoke in Go form: a chaos load run (blackbox on,
// persistent media fault injected mid-phase, simulated kill at the end) must
// leave a journal that alone names the cause — the failing commit record and
// the seal carrying the injected error — plus at least one metrics snapshot.
func TestRunLoadChaosJournalsTheCause(t *testing.T) {
	dir := t.TempDir()
	res, err := RunScript(LoadSpec{
		Clients:        4,
		OpsPerClient:   400,
		Shards:         2,
		PoolDir:        dir,
		Keys:           256,
		Blackbox:       true,
		FailSyncsAfter: 5,
	}, NoAct)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	// Shard 1 stays healthy, so the run still serves: the chaos is confined
	// to shard 0 sealing partway through.
	if res.AckedWrites == 0 {
		t.Fatal("chaos run acked nothing; the fault should hit one shard, not both")
	}

	jdir := filepath.Join(dir, "load.pool") + blackbox.DirSuffix
	j, err := blackbox.Open(blackbox.Config{Dir: jdir, ReadOnly: true})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer j.Close()

	types := make(map[string]int)
	sealDetail := ""
	err = j.Replay(func(rec blackbox.Record) error {
		types[rec.Type]++
		if rec.Type == blackbox.EvSeal {
			var ev struct {
				Detail json.RawMessage `json:"detail"`
			}
			if json.Unmarshal(rec.Payload, &ev) == nil {
				sealDetail = string(ev.Detail)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if types[blackbox.EvOpen] != 2 {
		t.Fatalf("journal has %d open events, want one per shard: %v", types[blackbox.EvOpen], types)
	}
	if types[blackbox.EvCommitFailed] == 0 || types[blackbox.EvSeal] == 0 {
		t.Fatalf("journal missing the cause: %v", types)
	}
	if !strings.Contains(sealDetail, ErrInjectedFault.Error()) {
		t.Fatalf("seal detail %q does not carry %q", sealDetail, ErrInjectedFault.Error())
	}
	if types[blackbox.EvSnapshot] == 0 {
		t.Fatalf("journal has no metrics snapshot: %v", types)
	}
	if types[blackbox.EvShutdown] != 0 {
		t.Fatalf("simulated kill journaled a shutdown marker: %v", types)
	}
}

// paxbench's -dist/-value-dist flags default to "uniform"/"fixed", so a
// private-key run (Keys 0) must accept those — they describe what private
// keys do anyway — and still refuse a shape that needs the shared keyspace.
func TestRunLoadPrivateKeysAcceptFlagDefaults(t *testing.T) {
	spec := LoadSpec{Clients: 2, OpsPerClient: 4, Shards: 1, Dist: "uniform", ValueDist: "fixed"}
	res, err := RunScript(spec, NoAct)
	if err != nil {
		t.Fatalf("private-key run with the flag defaults: %v", err)
	}
	if res.AckedWrites != 8 {
		t.Fatalf("acked %d writes, want 8", res.AckedWrites)
	}
	spec.Dist = "zipf"
	if _, err := RunScript(spec, NoAct); err == nil || !strings.Contains(err.Error(), "Keys > 0") {
		t.Fatalf("zipf without a keyspace: %v, want the Keys > 0 refusal", err)
	}
}
