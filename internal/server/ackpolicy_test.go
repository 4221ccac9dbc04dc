package server

import (
	"testing"
	"time"

	"pax/internal/wire"
)

// startTCPWith serves a one-shard in-memory fleet with an engine config and
// a server default ack policy — the harness for the wire-level policy tests —
// and returns the shard's engine and the address.
func startTCPWith(t *testing.T, cfg Config, policy AckPolicy) (*Engine, string) {
	t.Helper()
	fleet, _, eng := oneShard(t, cfg)
	_, addr := serveTCP(t, fleet, policy)
	return eng, addr
}

// TestTCPAckPolicyFlags drives every wire-flag × server-default combination
// and checks which ack path each write took: the per-request flag always
// wins, and a flagless request — the old-client encoding — takes the
// server's default.
func TestTCPAckPolicyFlags(t *testing.T) {
	cfg := Config{MaxBatch: 4}
	for _, tc := range []struct {
		name       string
		serverPol  AckPolicy
		flags      byte
		wantApply  uint64 // expected AckedOnApply delta for one PUT
		wantDurble uint64 // expected AckedWrites delta for one PUT
	}{
		{"default server, no flag (old client)", AckDurable, wire.FlagAckDefault, 0, 1},
		{"default server, explicit durable", AckDurable, wire.FlagAckDurable, 0, 1},
		{"default server, explicit apply", AckDurable, wire.FlagAckApply, 1, 0},
		{"apply-default server, no flag", AckApply, wire.FlagAckDefault, 1, 0},
		{"apply-default server, explicit durable", AckApply, wire.FlagAckDurable, 0, 1},
		{"apply-default server, explicit apply", AckApply, wire.FlagAckApply, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, addr := startTCPWith(t, cfg, tc.serverPol)
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.PutFlags([]byte("k"), []byte("v"), tc.flags); err != nil {
				t.Fatalf("put: %v", err)
			}
			// An apply-acked PUT returns before its commit; the counters are
			// bumped at apply either way, so they are stable here.
			if got := eng.Stats().AckedOnApply.Load(); got != tc.wantApply {
				t.Fatalf("acked-on-apply = %d, want %d", got, tc.wantApply)
			}
			// The durable ack (and its counter) lands by the time the client
			// response arrives only on the durable path; wait out the commit
			// for the apply path before asserting it stayed zero.
			if tc.wantDurble == 0 {
				waitForCommits(t, eng, 1)
			}
			if got := eng.Stats().AckedWrites.Load(); got != tc.wantDurble {
				t.Fatalf("acked-durable = %d, want %d", got, tc.wantDurble)
			}
			// Read-your-writes holds under both policies.
			if v, ok, err := cl.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
				t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
			}
		})
	}
}

// waitForCommits blocks until the engine has taken at least n group commits.
func waitForCommits(t *testing.T, eng *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().GroupCommits.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached %d group commits", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPAckApplyDelete: the flags byte works on DELETE and PERSIST too, and
// an apply-acked DELETE still reports prior presence.
func TestTCPAckApplyDelete(t *testing.T) {
	eng, addr := startTCPWith(t, Config{MaxBatch: 4}, AckDurable)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	found, _, err := cl.DeleteFlags([]byte("k"), wire.FlagAckApply)
	if err != nil || !found {
		t.Fatalf("apply-acked delete: found=%v err=%v", found, err)
	}
	if _, ok, err := cl.Get([]byte("k")); err != nil || ok {
		t.Fatalf("get after apply-acked delete: ok=%v err=%v", ok, err)
	}
	if _, err := cl.PersistFlags(wire.FlagAckApply); err != nil {
		t.Fatalf("apply-acked persist: %v", err)
	}
	waitForCommits(t, eng, 2) // the delete's commit and the forced one
}

// TestAckApplyPersistPolicy: an ack-on-apply PERSIST schedules the forced
// commit on every shard but answers at apply time, while the commit is still
// on the medium; the commit itself still happens.
func TestAckApplyPersistPolicy(t *testing.T) {
	const syncTime = 300 * time.Millisecond
	fleet, eng, ffs := faultyFleet(t, "", 1, Config{MaxBatch: 128})
	_, addr := serveTCP(t, fleet, AckDurable)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.PutFlags([]byte("k"), []byte("v"), wire.FlagAckApply); err != nil {
		t.Fatal(err)
	}
	waitForCommits(t, eng, 1)
	slowMedium(ffs, syncTime, false)
	before := eng.Stats().GroupCommits.Load()
	start := time.Now()
	if _, err := cl.PersistFlags(wire.FlagAckApply); err != nil {
		t.Fatalf("apply-acked persist: %v", err)
	}
	if took := time.Since(start); took >= syncTime/2 {
		t.Fatalf("apply-acked PERSIST took %v: it waited out the %v medium", took, syncTime)
	}
	waitForCommits(t, eng, before+1)
}
