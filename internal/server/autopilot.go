package server

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pax/internal/blackbox"
	"pax/internal/stats"
)

// This file is the reshard autopilot: a policy loop that watches windowed
// per-shard load and decides, on its own, when the mechanism in migrate.go
// and merge.go should run. Three pieces:
//
//   - loadTracker turns the cumulative since-open counters into windowed
//     rates. The router's slotOps counters and the engines' latency
//     histograms only ever grow, so a policy reading them raw would see a
//     shard that was hot an hour ago as hot forever; the tracker samples
//     them on the policy tick and keeps an EWMA of per-slot op rates plus
//     per-shard windowed histogram views (snapshot subtraction).
//   - decide applies the thresholds with hysteresis: a split needs the hot
//     shard's commit pipeline to be the measured bottleneck — windowed
//     enqueue-wait p99, not mere imbalance (EXPERIMENTS.md reshard: a split
//     under a CPU-bound or uniform load buys nothing) — for several
//     consecutive ticks; a merge needs the coldest shard idle for a
//     configured stretch; and a cooldown separates any two actions so the
//     loop never flaps split/merge against its own migration noise.
//   - run ties them to a ticker and executes decisions via Split/Merge,
//     emitting every decision as a policy event (TRACE's events, the
//     black-box journal).

// ShardWindow is one shard's windowed load signals at the latest policy tick.
type ShardWindow struct {
	Shard int `json:"shard"`
	// OpsPerSec is the EWMA of per-slot op rates summed over the slots the
	// shard currently owns.
	OpsPerSec float64 `json:"ops_per_sec"`
	// EnqueueP99NS is the enqueue-wait p99 within the window — how long
	// writers waited for queue space, the head-of-line saturation signal.
	EnqueueP99NS int64 `json:"enqueue_p99_ns"`
}

// loadTracker maintains windowed views over the cumulative load counters.
// tick is called from the policy loop; rate and lastWindows from anywhere.
type loadTracker struct {
	window time.Duration

	mu       sync.Mutex
	lastTick time.Time
	// lastSlot holds the previous tick's cumulative per-slot op counts as a
	// stats.Summary (keyed by slotKey) so the windowed delta→rate step is
	// Summary.Diff + Summary.Rate — the same helpers the black-box sampler
	// windows the full registry with — rather than hand-rolled subtraction.
	lastSlot stats.Summary
	slotRate [NumSlots]float64
	prevEnq  map[*Engine]*stats.LatencySnapshot
	windows  []ShardWindow
}

// slotKey names a slot's op-count series inside the tracker's summaries.
func slotKey(slot int) string { return "slot_" + strconv.Itoa(slot) }

func newLoadTracker(window time.Duration) *loadTracker {
	return &loadTracker{
		window:  window,
		prevEnq: make(map[*Engine]*stats.LatencySnapshot),
	}
}

// tick samples the counters, folds the interval's deltas into the windowed
// rates, and returns the per-shard windows. The first call only baselines.
func (t *loadTracker) tick(s *ShardedEngine) []ShardWindow {
	now := time.Now()
	m := s.route.Load()
	shards := *s.shards.Load()

	t.mu.Lock()
	defer t.mu.Unlock()
	dt := now.Sub(t.lastTick)
	first := t.lastTick.IsZero()
	t.lastTick = now

	// EWMA weight for this interval: a sample covering the whole window
	// replaces the average outright; shorter intervals blend in
	// proportionally, so the rate decays toward zero over ~window once a
	// slot goes quiet regardless of tick jitter.
	alpha := 1.0
	if t.window > 0 && dt < t.window {
		alpha = float64(dt) / float64(t.window)
	}

	wins := make([]ShardWindow, len(shards))
	for k := range wins {
		wins[k].Shard = k
	}
	cur := make(stats.Summary, NumSlots)
	for slot := 0; slot < NumSlots; slot++ {
		cur[slotKey(slot)] = float64(s.slotOps[slot].Load())
	}
	rates := cur.Diff(t.lastSlot).Rate(dt)
	t.lastSlot = cur
	if !first && dt > 0 {
		for slot := 0; slot < NumSlots; slot++ {
			t.slotRate[slot] += alpha * (rates[slotKey(slot)] - t.slotRate[slot])
			if k := int(m.Assign[slot]); k < len(wins) {
				wins[k].OpsPerSec += t.slotRate[slot]
			}
		}
	}

	live := make(map[*Engine]bool, len(shards))
	for k, sh := range shards {
		live[sh.eng] = true
		enq := sh.eng.Stats().EnqueueWaitNS.Snapshot()
		if prev, ok := t.prevEnq[sh.eng]; ok {
			w := enq.Sub(prev)
			wins[k].EnqueueP99NS = w.Quantile(0.99)
		}
		t.prevEnq[sh.eng] = &enq
	}
	// Engines retired by Merge stop existing; drop their baselines.
	for eng := range t.prevEnq {
		if !live[eng] {
			delete(t.prevEnq, eng)
		}
	}
	t.windows = wins
	return wins
}

// rate reports one slot's windowed ops/sec.
func (t *loadTracker) rate(slot int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slotRate[slot]
}

// lastWindows returns a copy of the most recent tick's per-shard windows.
func (t *loadTracker) lastWindows() []ShardWindow {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ShardWindow, len(t.windows))
	copy(out, t.windows)
	return out
}

// AutopilotConfig tunes the policy loop. The zero value enables nothing;
// unset thresholds take the listed defaults.
type AutopilotConfig struct {
	// Interval is the policy tick (default 1s); Window is the rate-smoothing
	// EWMA span (default 10×Interval).
	Interval time.Duration
	Window   time.Duration

	// SplitEnabled turns on hot-shard splits, up to MaxShards (default 8).
	// A split fires only when, for SplitHotTicks consecutive ticks (default
	// 3), the hottest shard carries at least SplitMinOpsPerSec (default 100)
	// windowed ops/s AND at least SplitImbalance (default 1.5) times the
	// fleet mean AND shows a pipeline signal: windowed enqueue-wait p99 over
	// SplitEnqueueP99 (default 1ms). Load alone never splits — the split
	// only pays when the hot shard's commit pipeline is the bottleneck.
	SplitEnabled      bool
	MaxShards         int
	SplitMinOpsPerSec float64
	SplitImbalance    float64
	SplitEnqueueP99   time.Duration
	SplitHotTicks     int

	// MergeEnabled turns on cold-shard merges, down to MinShards (default
	// 2; 1 lets an idle fleet fold back to a single shard). A merge fires when the coldest shard stays under
	// MergeIdleOpsPerSec (default 1) windowed ops/s for MergeIdle (default
	// 30s) while no split condition is pending.
	MergeEnabled       bool
	MinShards          int
	MergeIdleOpsPerSec float64
	MergeIdle          time.Duration

	// Cooldown is the minimum gap between any two policy actions (default
	// 10×Interval): the hysteresis that keeps a migration's own disruption
	// from triggering the next action.
	Cooldown time.Duration
}

func (c AutopilotConfig) withDefaults() AutopilotConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Window <= 0 {
		c.Window = 10 * c.Interval
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 8
	}
	if c.MaxShards > NumSlots {
		c.MaxShards = NumSlots
	}
	if c.SplitMinOpsPerSec <= 0 {
		c.SplitMinOpsPerSec = 100
	}
	if c.SplitImbalance <= 0 {
		c.SplitImbalance = 1.5
	}
	if c.SplitEnqueueP99 <= 0 {
		c.SplitEnqueueP99 = time.Millisecond
	}
	if c.SplitHotTicks <= 0 {
		c.SplitHotTicks = 3
	}
	if c.MinShards <= 0 {
		c.MinShards = 2
	}
	if c.MergeIdleOpsPerSec <= 0 {
		c.MergeIdleOpsPerSec = 1
	}
	if c.MergeIdle <= 0 {
		c.MergeIdle = 30 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * c.Interval
	}
	return c
}

// PolicyDecision is one executed autopilot action, the detail of its policy
// event: what fired, on which shard, why, and how it went.
type PolicyDecision struct {
	UnixNano int64  `json:"unix_nano"`
	Action   string `json:"action"` // "split" or "merge"
	Shard    int    `json:"shard"`
	Reason   string `json:"reason"`
	// Shards is the fleet size after the action (unchanged when Err is set).
	Shards int    `json:"shards"`
	Err    string `json:"error,omitempty"`
}

// Autopilot is a running policy loop over one ShardedEngine. Start it with
// StartAutopilot; it stops with the engine (Close/Crash) or via Stop.
type Autopilot struct {
	s       *ShardedEngine
	cfg     AutopilotConfig
	tracker *loadTracker

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	splits atomic.Uint64
	merges atomic.Uint64

	// Hysteresis state, touched only by the policy goroutine (and
	// single-threaded tests driving decide directly).
	hotStreak  int
	idleStreak int
	idleTicks  int
	lastAction time.Time
}

// StartAutopilot starts the reshard policy loop. At most one runs per
// engine; it is stopped automatically by Close/Crash. While it runs, the
// per-slot load signal used by Split/Merge/auto-pick is the tracker's
// windowed rate.
func (s *ShardedEngine) StartAutopilot(cfg AutopilotConfig) (*Autopilot, error) {
	cfg = cfg.withDefaults()
	a := &Autopilot{
		s:       s,
		cfg:     cfg,
		tracker: newLoadTracker(cfg.Window),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	a.idleTicks = int((cfg.MergeIdle + cfg.Interval - 1) / cfg.Interval)
	if a.idleTicks < 1 {
		a.idleTicks = 1
	}
	if !s.autopilot.CompareAndSwap(nil, a) {
		return nil, fmt.Errorf("server: autopilot already running")
	}
	a.tracker.tick(s) // baseline, so the first real tick measures one full interval
	go a.run()
	return a, nil
}

// stopAutopilot stops the policy loop if one is running; called by
// Close/Crash before the shards go down so a mid-flight migration finishes
// against live engines.
func (s *ShardedEngine) stopAutopilot() {
	if a := s.autopilot.Load(); a != nil {
		a.Stop()
	}
}

// Stop halts the policy loop and waits for it (including any migration it
// is mid-way through). Idempotent.
func (a *Autopilot) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}

// Windows returns the per-shard windowed signals from the latest tick.
func (a *Autopilot) Windows() []ShardWindow { return a.tracker.lastWindows() }

func (a *Autopilot) run() {
	defer close(a.done)
	tick := time.NewTicker(a.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-tick.C:
		}
		wins := a.tracker.tick(a.s)
		if dec := a.decide(wins, time.Now()); dec != nil {
			a.apply(dec)
		}
	}
}

// decide evaluates one tick's windows against the thresholds, advancing the
// hysteresis streaks, and returns a decision when one fires. It is a method
// rather than a pure function only for the streak state; tests drive it
// directly with synthetic windows.
func (a *Autopilot) decide(wins []ShardWindow, now time.Time) *PolicyDecision {
	n := len(wins)
	if n == 0 {
		return nil
	}
	var total float64
	hot, cold := 0, 0
	for k, w := range wins {
		total += w.OpsPerSec
		if w.OpsPerSec > wins[hot].OpsPerSec {
			hot = k
		}
		if w.OpsPerSec < wins[cold].OpsPerSec {
			cold = k
		}
	}
	mean := total / float64(n)

	cfg := a.cfg
	pipelineHot := time.Duration(wins[hot].EnqueueP99NS) >= cfg.SplitEnqueueP99
	splitReady := cfg.SplitEnabled && n < cfg.MaxShards &&
		wins[hot].OpsPerSec >= cfg.SplitMinOpsPerSec &&
		(n == 1 || wins[hot].OpsPerSec >= cfg.SplitImbalance*mean) &&
		pipelineHot
	if splitReady {
		a.hotStreak++
	} else {
		a.hotStreak = 0
	}

	// An idle streak only accumulates while no split is brewing: a skewed
	// fleet can show one starved shard next to a saturated one, and merging
	// into that would fight the split the next ticks will ask for.
	mergeReady := cfg.MergeEnabled && n > cfg.MinShards &&
		wins[cold].OpsPerSec <= cfg.MergeIdleOpsPerSec && a.hotStreak == 0
	if mergeReady {
		a.idleStreak++
	} else {
		a.idleStreak = 0
	}

	if !a.lastAction.IsZero() && now.Sub(a.lastAction) < cfg.Cooldown {
		// Cooldown: keep the streaks warm but do not act — the previous
		// action's migration noise must wash out of the window first.
		return nil
	}
	if a.hotStreak >= cfg.SplitHotTicks {
		a.hotStreak = 0
		imb := 0.0
		if mean > 0 {
			imb = wins[hot].OpsPerSec / mean
		}
		return &PolicyDecision{
			UnixNano: now.UnixNano(),
			Action:   "split",
			Shard:    hot,
			Shards:   n,
			Reason: fmt.Sprintf("shard %d: %.0f windowed ops/s (%.1fx mean), enqueue p99 %v: commit pipeline saturated",
				hot, wins[hot].OpsPerSec, imb, time.Duration(wins[hot].EnqueueP99NS)),
		}
	}
	if a.idleStreak >= a.idleTicks {
		a.idleStreak = 0
		return &PolicyDecision{
			UnixNano: now.UnixNano(),
			Action:   "merge",
			Shard:    cold,
			Shards:   n,
			Reason: fmt.Sprintf("shard %d: %.1f windowed ops/s for %v: idle, folding back",
				cold, wins[cold].OpsPerSec, cfg.MergeIdle),
		}
	}
	return nil
}

// apply executes a decision and emits it as a policy event. The action's own
// duration counts against the cooldown (lastAction is stamped after it
// returns), so a slow migration pushes the next decision out rather than
// stacking on top.
func (a *Autopilot) apply(d *PolicyDecision) {
	switch d.Action {
	case "split":
		rep, err := a.s.Split(d.Shard)
		if err != nil {
			d.Err = err.Error()
		} else {
			a.splits.Add(1)
			d.Shards = rep.Shards
		}
	case "merge":
		rep, err := a.s.Merge(d.Shard)
		if err != nil {
			d.Err = err.Error()
		} else {
			a.merges.Add(1)
			d.Shards = rep.Shards
		}
	}
	a.lastAction = time.Now()
	a.s.events.emit(blackbox.EvPolicy, -1, d)
	if d.Err != "" {
		a.s.logf("server: autopilot: %s shard %d failed: %s (%s)", d.Action, d.Shard, d.Err, d.Reason)
	} else {
		a.s.logf("server: autopilot: %s shard %d -> %d shards (%s)", d.Action, d.Shard, d.Shards, d.Reason)
	}
}

// publish adds the autopilot's wire-visible status to a merged metrics
// summary: its action counts and windowed per-shard rates, so STATS (and
// paxinspect -stats -shards) shows what the policy sees. The decisions
// themselves are policy events in TRACE.
func (a *Autopilot) publish(m stats.Summary) {
	m["paxserve_autopilot_enabled"] = 1
	m["paxserve_autopilot_splits"] = float64(a.splits.Load())
	m["paxserve_autopilot_merges"] = float64(a.merges.Load())
	for _, w := range a.tracker.lastWindows() {
		label := fmt.Sprintf("{shard=%q}", strconv.Itoa(w.Shard))
		m["paxserve_window_ops_per_sec"+label] = w.OpsPerSec
		m["paxserve_window_enqueue_p99_ns"+label] = float64(w.EnqueueP99NS)
		m["paxserve_window_ops_per_sec"] += w.OpsPerSec
	}
}
