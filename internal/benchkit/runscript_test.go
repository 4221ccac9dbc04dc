package benchkit

import (
	"os"
	"strings"
	"testing"
)

// checkPhases asserts what every run with an act owes its caller: the two
// phase tags, and on both phases the fields a single fold fills in — the
// per-shard breakdown sized to the fleet that phase ran on, the commit-byte
// figures, and only that phase's own traffic in the counters.
func checkPhases(t *testing.T, post LoadResult, prePhase, postPhase string) {
	t.Helper()
	phases := post.Phases()
	if len(phases) != 2 || phases[0].Phase != prePhase || phases[1].Phase != postPhase {
		t.Fatalf("%d phases, last %q (pre %+v), want %q then %q", len(phases), post.Phase, post.Pre, prePhase, postPhase)
	}
	for _, ph := range phases {
		want := uint64(ph.Spec.Clients * ph.Spec.OpsPerClient)
		if got := ph.AckedWrites + ph.Gets; got != want {
			t.Errorf("%s: %d acked writes + %d gets, want the phase's own %d ops", ph.Phase, ph.AckedWrites, ph.Gets, want)
		}
		if len(ph.PerShard) != ph.Spec.Shards {
			t.Errorf("%s: %d per-shard entries on a %d-shard fleet", ph.Phase, len(ph.PerShard), ph.Spec.Shards)
		}
		var ops uint64
		for _, s := range ph.PerShard {
			ops += s.AckedOps
		}
		if ops != want {
			t.Errorf("%s: per-shard acked ops sum to %d, want %d", ph.Phase, ops, want)
		}
		if ph.CommitP99Bytes <= 0 || ph.CommitMeanBytes <= 0 || ph.WriteAmplification <= 0 || ph.WriteAmplification >= 1 {
			t.Errorf("%s: commit bytes p99 %v mean %v amplification %v, want delta-sized figures", ph.Phase, ph.CommitP99Bytes, ph.CommitMeanBytes, ph.WriteAmplification)
		}
		if len(ph.Metrics) == 0 {
			t.Errorf("%s: no metrics registry", ph.Phase)
		}
	}
}

func TestRunScriptSplit(t *testing.T) {
	post, err := RunScript(LoadSpec{
		Clients:      8,
		OpsPerClient: 40,
		ReadRatio:    0.5,
		Shards:       2,
		PoolDir:      t.TempDir(),
		Keys:         500,
		Dist:         "zipf",
		ZipfS:        1.3,
	}, SplitAct)
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, post, "pre-split", "post-split")
	if post.Pre.Spec.Shards != 2 || post.Spec.Shards != 3 {
		t.Fatalf("fleet went %d -> %d shards, want 2 -> 3", post.Pre.Spec.Shards, post.Spec.Shards)
	}
	s := post.Split
	if s == nil || post.Pre.Split != nil || post.Autopilot != nil {
		t.Fatalf("split details belong on the post phase only: pre %v post %v autopilot %v", post.Pre.Split, s, post.Autopilot)
	}
	if s.MovedSlots <= 0 || s.MovedSlots >= 256 {
		t.Fatalf("moved %d slots, want some and not all", s.MovedSlots)
	}
	if !s.CrashVerified || s.LostKeys != 0 {
		t.Fatalf("crash check: verified=%v lost=%d", s.CrashVerified, s.LostKeys)
	}
	rec := post.JSON()
	if rec.Phase != "post-split" || rec.Split != s || rec.Shards != 3 || len(rec.PerShard) != 3 {
		t.Fatalf("post record: %+v", rec)
	}
}

// A one-shard fleet is a fleet like any other: it splits onto a new second
// shard and loses nothing across the crash.
func TestRunScriptSplitFromOneShard(t *testing.T) {
	post, err := RunScript(LoadSpec{
		Clients:      8,
		OpsPerClient: 40,
		Shards:       1,
		PoolDir:      t.TempDir(),
		Keys:         500,
		Dist:         "zipf",
		ZipfS:        1.3,
	}, SplitAct)
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, post, "pre-split", "post-split")
	if post.Pre.Spec.Shards != 1 || post.Spec.Shards != 2 {
		t.Fatalf("fleet went %d -> %d shards, want 1 -> 2", post.Pre.Spec.Shards, post.Spec.Shards)
	}
	if s := post.Split; s == nil || !s.NewShard || !s.CrashVerified || s.LostKeys != 0 {
		t.Fatalf("split %+v, want a new shard and a verified crash with no lost keys", s)
	}
}

func TestRunScriptAutopilot(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the policy's split and its idle merge-back")
	}
	// The capped regime of the autopilot experiment, shrunk: on file-backed
	// pools every commit is a real fsync, and the hot shard's writers pile
	// into its enqueue path behind them, which is what the policy detects.
	post, err := RunScript(LoadSpec{
		Clients:      128,
		OpsPerClient: 20,
		Shards:       2,
		PoolDir:      t.TempDir(),
		Keys:         500,
		Dist:         "zipf",
		ZipfS:        1.5,
		MaxBatch:     8,
	}, AutopilotAct)
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, post, "pre-autosplit", "post-autosplit")
	p := post.Autopilot
	if p == nil || post.Split != nil {
		t.Fatalf("autopilot details belong on the post phase: %v (split %v)", p, post.Split)
	}
	if p.StartShards != 2 || p.PeakShards != 3 || p.EndShards != 2 || p.Splits < 1 || p.Merges < 1 {
		t.Fatalf("policy cycle: %+v", p)
	}
	if !strings.Contains(p.SplitReason, "saturated") {
		t.Fatalf("split reason %q is not a pipeline-saturation reason", p.SplitReason)
	}
	if !p.CrashVerified || p.LostKeys != 0 {
		t.Fatalf("crash check: verified=%v lost=%d", p.CrashVerified, p.LostKeys)
	}
}

// An act is judged by a keyspace that survives a crash, so a spec without a
// shared keyspace, or with acks that may roll back, is refused before
// anything is opened.
func TestRunScriptRefusesActsItCannotJudge(t *testing.T) {
	ok := LoadSpec{Clients: 2, OpsPerClient: 4, Shards: 2, PoolDir: t.TempDir(), Keys: 16}
	private, apply := ok, ok
	private.Keys = 0
	apply.AckOnApply = true
	for _, tc := range []struct {
		name string
		spec LoadSpec
		act  Act
		want string
	}{
		{"private-key split", private, SplitAct, "benchkit: split load needs Keys > 0"},
		{"apply-acked split", apply, SplitAct, "benchkit: split load measures durable acks; AckOnApply would make the crash check vacuous"},
		{"apply-acked autopilot", apply, AutopilotAct, "benchkit: autopilot load measures durable acks; AckOnApply would make the crash check vacuous"},
	} {
		if _, err := RunScript(tc.spec, tc.act); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
	// The same specs are fine without an act.
	for _, spec := range []LoadSpec{private, apply} {
		if _, err := RunScript(spec, NoAct); err != nil {
			t.Errorf("no act, %+v: %v", spec, err)
		}
	}
}

// Without PoolDir a run puts its pool files in a temporary directory and
// removes it on every return: after a plain run, after an act's crash and
// reopen, and after a refused spec. A 4-shard run left behind is ≈ 190 MB.
func TestRunScriptWithoutPoolDirLeavesNothing(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	keyed := LoadSpec{Clients: 4, OpsPerClient: 10, Shards: 2, Keys: 200, Dist: "zipf", ZipfS: 1.3}
	refused := keyed
	refused.AckOnApply = true
	for _, tc := range []struct {
		name    string
		spec    LoadSpec
		act     Act
		refused bool
	}{
		{"no act", LoadSpec{Clients: 4, OpsPerClient: 10, Shards: 4}, NoAct, false},
		{"split", keyed, SplitAct, false},
		{"refused", refused, SplitAct, true},
	} {
		res, err := RunScript(tc.spec, tc.act)
		if (err != nil) != tc.refused {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.act == SplitAct && !tc.refused && (res.Split == nil || !res.Split.CrashVerified) {
			t.Fatalf("%s: the crash check did not reopen the files: %+v", tc.name, res.Split)
		}
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Fatalf("%s: left %v behind in TMPDIR (%v)", tc.name, left, err)
		}
	}
}
