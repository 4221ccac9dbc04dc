package server

import (
	"fmt"
	"testing"
	"time"
)

// newDecider builds an Autopilot with only the state decide() consumes, so
// policy tests can drive synthetic windows through the real threshold and
// hysteresis logic without an engine or a ticker.
func newDecider(cfg AutopilotConfig) *Autopilot {
	cfg = cfg.withDefaults()
	a := &Autopilot{cfg: cfg}
	a.idleTicks = int((cfg.MergeIdle + cfg.Interval - 1) / cfg.Interval)
	if a.idleTicks < 1 {
		a.idleTicks = 1
	}
	return a
}

func hotWindows(p99 int64) []ShardWindow {
	return []ShardWindow{
		{Shard: 0, OpsPerSec: 900, EnqueueP99NS: p99},
		{Shard: 1, OpsPerSec: 50},
	}
}

// Imbalance alone must never split: without a pipeline signal on the hot
// shard (enqueue-wait p99), the hot shard is not commit-bound and a
// split buys nothing.
func TestDecideRequiresPipelineSignal(t *testing.T) {
	a := newDecider(AutopilotConfig{
		SplitEnabled:      true,
		Interval:          time.Second,
		SplitMinOpsPerSec: 100,
		SplitImbalance:    1.5,
		SplitHotTicks:     2,
	})
	now := time.Unix(1000, 0)
	for i := 0; i < 20; i++ {
		if d := a.decide(hotWindows(0), now.Add(time.Duration(i)*time.Second)); d != nil {
			t.Fatalf("tick %d: split fired on load imbalance alone: %+v", i, d)
		}
	}
	if a.hotStreak != 0 {
		t.Fatalf("hot streak %d accumulated without a pipeline signal", a.hotStreak)
	}
}

// A split needs the hot condition to hold for SplitHotTicks consecutive
// ticks; one cold tick resets the streak.
func TestDecideHysteresis(t *testing.T) {
	a := newDecider(AutopilotConfig{
		SplitEnabled:      true,
		Interval:          time.Second,
		SplitMinOpsPerSec: 100,
		SplitImbalance:    1.5,
		SplitEnqueueP99:   time.Millisecond,
		SplitHotTicks:     3,
	})
	now := time.Unix(1000, 0)
	hot := hotWindows(int64(5 * time.Millisecond))

	if d := a.decide(hot, now); d != nil {
		t.Fatalf("split fired on the first hot tick: %+v", d)
	}
	if d := a.decide(hot, now.Add(time.Second)); d != nil {
		t.Fatalf("split fired on the second hot tick: %+v", d)
	}
	// A cold tick resets the streak...
	if d := a.decide(hotWindows(0), now.Add(2*time.Second)); d != nil {
		t.Fatalf("split fired on a cold tick: %+v", d)
	}
	// ...so two more hot ticks still do not fire; the third does.
	for i := 0; i < 2; i++ {
		if d := a.decide(hot, now.Add(time.Duration(3+i)*time.Second)); d != nil {
			t.Fatalf("split fired %d ticks after the reset: %+v", i+1, d)
		}
	}
	d := a.decide(hot, now.Add(5*time.Second))
	if d == nil || d.Action != "split" || d.Shard != 0 {
		t.Fatalf("want split of shard 0 after 3 consecutive hot ticks, got %+v", d)
	}
}

// No split past MaxShards, regardless of the signals.
func TestDecideRespectsMaxShards(t *testing.T) {
	a := newDecider(AutopilotConfig{
		SplitEnabled:    true,
		Interval:        time.Second,
		MaxShards:       2,
		SplitEnqueueP99: time.Millisecond,
		SplitHotTicks:   1,
	})
	for i := 0; i < 5; i++ {
		if d := a.decide(hotWindows(int64(5*time.Millisecond)), time.Unix(int64(1000+i), 0)); d != nil {
			t.Fatalf("split fired at the MaxShards cap: %+v", d)
		}
	}
}

// Cooldown: a recent action suppresses the next decision until the gap
// passes, but the streak keeps accumulating so the decision fires promptly
// once the cooldown expires.
func TestDecideCooldown(t *testing.T) {
	a := newDecider(AutopilotConfig{
		SplitEnabled:    true,
		Interval:        time.Second,
		SplitEnqueueP99: time.Millisecond,
		SplitHotTicks:   1,
		Cooldown:        10 * time.Second,
	})
	now := time.Unix(1000, 0)
	a.lastAction = now
	hot := hotWindows(int64(5 * time.Millisecond))
	for i := 1; i < 10; i++ {
		if d := a.decide(hot, now.Add(time.Duration(i)*time.Second)); d != nil {
			t.Fatalf("decision fired %ds into a 10s cooldown: %+v", i, d)
		}
	}
	if d := a.decide(hot, now.Add(10*time.Second)); d == nil || d.Action != "split" {
		t.Fatalf("want split once the cooldown expired, got %+v", d)
	}
}

// A merge fires only after the coldest shard stays idle for the full
// MergeIdle stretch, never below MinShards, and never while a split
// condition is brewing on another shard.
func TestDecideMerge(t *testing.T) {
	cfg := AutopilotConfig{
		MergeEnabled:       true,
		Interval:           time.Second,
		MinShards:          2,
		MergeIdleOpsPerSec: 1,
		MergeIdle:          3 * time.Second,
	}
	a := newDecider(cfg)
	now := time.Unix(1000, 0)
	idle := []ShardWindow{
		{Shard: 0, OpsPerSec: 40},
		{Shard: 1, OpsPerSec: 30},
		{Shard: 2, OpsPerSec: 0.2},
	}
	for i := 0; i < 2; i++ {
		if d := a.decide(idle, now.Add(time.Duration(i)*time.Second)); d != nil {
			t.Fatalf("merge fired after %d idle ticks, want %d: %+v", i+1, a.idleTicks, d)
		}
	}
	d := a.decide(idle, now.Add(2*time.Second))
	if d == nil || d.Action != "merge" || d.Shard != 2 {
		t.Fatalf("want merge of shard 2 after %d idle ticks, got %+v", a.idleTicks, d)
	}

	// At MinShards the idle shard stays: no merge no matter how long.
	a = newDecider(cfg)
	atFloor := idle[:2]
	for i := 0; i < 10; i++ {
		if d := a.decide(atFloor, now.Add(time.Duration(i)*time.Second)); d != nil {
			t.Fatalf("merge fired at the MinShards floor: %+v", d)
		}
	}

	// A brewing split (hot streak on another shard) suppresses the idle
	// streak: merging into a fleet the next ticks will split is flapping.
	cfg.SplitEnabled = true
	cfg.SplitMinOpsPerSec = 100
	cfg.SplitImbalance = 1.2
	cfg.SplitEnqueueP99 = time.Millisecond
	cfg.SplitHotTicks = 100 // never actually fires in this test
	a = newDecider(cfg)
	skewed := []ShardWindow{
		{Shard: 0, OpsPerSec: 900, EnqueueP99NS: int64(5 * time.Millisecond)},
		{Shard: 1, OpsPerSec: 30},
		{Shard: 2, OpsPerSec: 0},
	}
	for i := 0; i < 10; i++ {
		if d := a.decide(skewed, now.Add(time.Duration(i)*time.Second)); d != nil {
			t.Fatalf("merge fired while a split was brewing: %+v", d)
		}
		if a.idleStreak != 0 {
			t.Fatalf("idle streak %d accumulated under a hot streak", a.idleStreak)
		}
	}
}

// The tracker must turn cumulative slot counters into rates that rise under
// traffic and decay once it stops — the property the cumulative counters
// themselves lack.
func TestTrackerWindowedRatesDecay(t *testing.T) {
	eng := newSharded(t, tempPool(t), 2, Config{MaxBatch: 16})
	defer eng.Close()

	tr := newLoadTracker(50 * time.Millisecond)
	if wins := tr.tick(eng); wins != nil {
		for _, w := range wins {
			if w.OpsPerSec != 0 {
				t.Fatalf("baseline tick reported a rate: %+v", wins)
			}
		}
	}

	for i := 0; i < 400; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("rate-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	wins := tr.tick(eng)
	var peak float64
	for _, w := range wins {
		peak += w.OpsPerSec
	}
	if peak <= 0 {
		t.Fatalf("no rate after 400 ops: %+v", wins)
	}

	// One quiet interval longer than the window replaces the EWMA outright:
	// the rate must collapse to zero, not linger at the hour-old average.
	time.Sleep(60 * time.Millisecond)
	wins = tr.tick(eng)
	var after float64
	for _, w := range wins {
		after += w.OpsPerSec
	}
	if after != 0 {
		t.Fatalf("rate %.1f ops/s survived a full quiet window (peak %.1f): %+v", after, peak, wins)
	}
}

// End to end: under sustained single-shard pressure the autopilot splits on
// its own; once the load stops it merges back down — and the windowed
// metrics and last-decision records show up in STATS.
func TestAutopilotSplitsThenMerges(t *testing.T) {
	// QueueDepth 1 with per-request batches keeps the hot shard's enqueue
	// path genuinely contended, so the windowed p99 crosses the (1ns)
	// threshold whenever the flood runs — the pipeline signal without
	// needing a 4096-commit media backlog.
	eng := newSharded(t, tempPool(t), 2, Config{MaxBatch: 1, QueueDepth: 1})
	defer eng.Close()

	ap, err := eng.StartAutopilot(AutopilotConfig{
		Interval:           20 * time.Millisecond,
		Window:             80 * time.Millisecond,
		SplitEnabled:       true,
		MaxShards:          3,
		SplitMinOpsPerSec:  50,
		SplitImbalance:     1.2,
		SplitEnqueueP99:    1, // any measured wait counts
		SplitHotTicks:      2,
		MergeEnabled:       true,
		MinShards:          2,
		MergeIdleOpsPerSec: 5,
		MergeIdle:          100 * time.Millisecond,
		Cooldown:           150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StartAutopilot(AutopilotConfig{}); err == nil {
		t.Fatal("second StartAutopilot succeeded")
	}

	// Hot keys all landing on shard 0 (they span its 128 slots, so a split
	// has something to move).
	var hotKeys [][]byte
	for i := 0; len(hotKeys) < 64; i++ {
		key := []byte(fmt.Sprintf("hot-%05d", i))
		if eng.ShardFor(key) == 0 {
			hotKeys = append(hotKeys, key)
		}
	}
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := hotKeys[(w+i)%len(hotKeys)]
				if _, err := eng.Put(key, []byte("v")); err != nil {
					return // engine closing under us ends the flood
				}
			}
		}(w)
	}

	waitFor := func(what string, deadline time.Duration, ok func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for !ok() {
			if time.Now().After(end) {
				t.Fatalf("%s did not happen within %v; windows %+v, last %+v",
					what, deadline, ap.Windows(), ap.LastDecision())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The decision record publishes just after the fleet change itself, so
	// wait on both.
	waitFor("autopilot split", 15*time.Second, func() bool {
		d := ap.LastDecision()
		return eng.NumShards() == 3 && d != nil && d.Action == "split"
	})
	if d := ap.LastDecision(); d.Err != "" {
		t.Fatalf("last decision after split: %+v", d)
	}

	close(stop)
	waitFor("autopilot merge", 15*time.Second, func() bool {
		d := ap.LastDecision()
		return eng.NumShards() == 2 && d != nil && d.Action == "merge"
	})
	if d := ap.LastDecision(); d.Err != "" {
		t.Fatalf("last decision after merge: %+v", d)
	}

	metrics, err := eng.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if metrics["paxserve_autopilot_enabled"] != 1 {
		t.Fatal("paxserve_autopilot_enabled missing from STATS")
	}
	if metrics["paxserve_autopilot_splits"] < 1 || metrics["paxserve_autopilot_merges"] < 1 {
		t.Fatalf("autopilot counters: splits=%v merges=%v",
			metrics["paxserve_autopilot_splits"], metrics["paxserve_autopilot_merges"])
	}
	if _, ok := metrics[`paxserve_window_ops_per_sec{shard="0"}`]; !ok {
		t.Fatal("windowed per-shard rate missing from STATS")
	}
	if metrics["paxserve_autopilot_last_action"] != 2 {
		t.Fatalf("paxserve_autopilot_last_action = %v, want 2 (merge)", metrics["paxserve_autopilot_last_action"])
	}

	// The trace carries the last decision too.
	trace := eng.Trace()
	if trace.Autopilot == nil || trace.Autopilot.Action != "merge" {
		t.Fatalf("trace autopilot record: %+v", trace.Autopilot)
	}

	ap.Stop()
	ap.Stop() // idempotent
}
