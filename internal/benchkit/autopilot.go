package benchkit

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"pax/internal/blackbox"
	"pax/internal/server"
	"pax/internal/stats"
)

// This file is AutopilotAct, the reshard-autopilot act of RunScript
// (paxbench -loadgen -autopilot): the same hot-shard story as SplitAct, but
// nobody calls Split. A zipfian flood runs against a file-backed fleet with
// the policy loop watching windowed per-shard load; the policy must split
// the hot shard on its own (the commit pipeline is measurably saturated), the
// post-split phase is measured like a manual split's, and once the load stops
// the policy must fold the extra shard back — ending at the starting fleet
// size with every acked write surviving a crash+reopen.

// AutopilotJSON is the policy half of an autopilot A/B record: what the
// policy did unprompted and whether the crash check passed. It rides on the
// post-phase LoadJSON record.
type AutopilotJSON struct {
	StartShards int `json:"start_shards"`
	// PeakShards is the largest fleet the policy grew to; EndShards is the
	// fleet after the idle merge-back (the acceptance bar is EndShards ==
	// StartShards).
	PeakShards int `json:"peak_shards"`
	EndShards  int `json:"end_shards"`
	// Splits/Merges are the policy's executed action counts
	// (paxserve_autopilot_splits / _merges).
	Splits int `json:"splits"`
	Merges int `json:"merges"`
	// SplitWaitMS is how long after the policy started the fleet grew;
	// MergeWaitMS how long after the load stopped it shrank back.
	SplitWaitMS float64 `json:"split_wait_ms"`
	MergeWaitMS float64 `json:"merge_wait_ms"`
	// SplitReason/MergeReason are the policy's own recorded justifications.
	SplitReason string `json:"split_reason,omitempty"`
	MergeReason string `json:"merge_reason,omitempty"`
	// CrashVerified is whether a crash+reopen after the merge-back found
	// every key; LostKeys counts the misses (the acceptance bar is 0).
	CrashVerified bool `json:"crash_verified"`
	LostKeys      int  `json:"lost_keys"`
}

// autosplit is the first half of AutopilotAct: start the policy, then flood
// the same skewed traffic, unmeasured, until the policy splits on its own
// (deadline-bounded). The hot shard's windowed enqueue-wait p99 is the
// signal, so the split fires because the commit pipeline is the measured
// bottleneck, not merely because load is imbalanced. The policy stays on
// through the second measured phase but cannot act: the fleet is at
// MaxShards and the measured load keeps every shard above idle.
func (r *loadRun) autosplit(spec LoadSpec) (*AutopilotJSON, error) {
	start := spec.Shards
	// Thresholds are scaled to the bench flood (tens of ms windows instead of
	// operator seconds) but keep the production shape: consecutive hot ticks
	// on a pipeline signal to split, a sustained idle stretch to merge, a
	// cooldown between actions.
	ap, err := r.eng.StartAutopilot(server.AutopilotConfig{
		Interval:           50 * time.Millisecond,
		Window:             250 * time.Millisecond,
		SplitEnabled:       true,
		MaxShards:          start + 1,
		SplitMinOpsPerSec:  200,
		SplitImbalance:     1.2,
		SplitEnqueueP99:    300 * time.Microsecond,
		SplitHotTicks:      2,
		MergeEnabled:       true,
		MinShards:          start,
		MergeIdleOpsPerSec: 5,
		MergeIdle:          500 * time.Millisecond,
		Cooldown:           time.Second,
	})
	if err != nil {
		return nil, err
	}
	r.pilot = ap

	// The flood loops in bursts until the policy acts. Histograms sized for
	// the grown fleet so a mid-burst split is safe.
	var (
		floodLat   stats.LatencyHistogram
		floodShard = make([]stats.LatencyHistogram, start+1)
		floodErrs  = make(chan error, spec.Clients)
		floodStop  = make(chan struct{})
		floodWG    sync.WaitGroup
	)
	for c := 0; c < spec.Clients; c++ {
		floodWG.Add(1)
		go func(c int) {
			defer floodWG.Done()
			for round := 0; ; round++ {
				select {
				case <-floodStop:
					return
				default:
				}
				burst := spec
				burst.OpsPerClient = 200
				burst.Seed = spec.Seed + int64(round)*31 + 17
				r.client(burst, c, &floodLat, floodShard, floodErrs)
			}
		}(c)
	}
	splitStart := time.Now()
	split := r.awaitDecision("split")
	waited := time.Since(splitStart)
	close(floodStop)
	floodWG.Wait()
	if split == nil {
		return nil, fmt.Errorf("benchkit: autopilot never split within %v (windows %+v)", actDeadline, ap.Windows())
	}
	select {
	case err := <-floodErrs:
		return nil, fmt.Errorf("benchkit: autopilot flood: %w", err)
	default:
	}
	return &AutopilotJSON{
		StartShards: start,
		PeakShards:  r.eng.NumShards(),
		SplitWaitMS: float64(waited.Microseconds()) / 1e3,
		SplitReason: split.Reason,
	}, nil
}

// automerge is the second half: with the load gone the windowed rates decay
// and the policy must fold the extra shard back to the starting count on its
// own, before the run crashes the fleet.
func (r *loadRun) automerge(pilot *AutopilotJSON) error {
	mergeStart := time.Now()
	merge := r.awaitDecision("merge")
	if merge == nil {
		return fmt.Errorf("benchkit: autopilot never merged back within %v (windows %+v)", actDeadline, r.pilot.Windows())
	}
	pilot.MergeWaitMS = float64(time.Since(mergeStart).Microseconds()) / 1e3
	pilot.MergeReason = merge.Reason
	if n := r.eng.NumShards(); n != pilot.StartShards {
		return fmt.Errorf("benchkit: autopilot merged to %d shards, want the starting %d", n, pilot.StartShards)
	}
	m, err := r.eng.Metrics()
	if err != nil {
		return err
	}
	pilot.Splits = int(m["paxserve_autopilot_splits"])
	pilot.Merges = int(m["paxserve_autopilot_merges"])
	return nil
}

// actDeadline bounds each wait for the policy to act.
const actDeadline = 30 * time.Second

// awaitDecision waits until the policy's latest decision in the fleet's
// event ring is a successful action, and returns it; nil once actDeadline
// passes. Every action moves the shard count before its policy event (a
// split publishes its new shard first, a merge shrinks the fleet just before
// the event), so the wait polls NumShards, one atomic load, and copies the
// fleet's trace only once the count has moved. A split then migrates for
// seconds under load, so those copies back off, doubling to a quarter second.
func (r *loadRun) awaitDecision(action string) *server.PolicyDecision {
	deadline := time.Now().Add(actDeadline)
	start, wait := r.eng.NumShards(), 10*time.Millisecond
	for time.Now().Before(deadline) {
		if r.eng.NumShards() != start {
			if d := lastDecision(r.eng.Trace().Events); d != nil && d.Action == action && d.Err == "" {
				return d
			}
			wait = min(2*wait, 250*time.Millisecond)
		}
		time.Sleep(wait)
	}
	return nil
}

// lastDecision decodes the latest policy event in events, nil if none.
func lastDecision(events []server.Event) *server.PolicyDecision {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Type != blackbox.EvPolicy {
			continue
		}
		var d server.PolicyDecision
		if json.Unmarshal(events[i].Detail, &d) != nil {
			return nil
		}
		return &d
	}
	return nil
}
