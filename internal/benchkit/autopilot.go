package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pax"
	"pax/internal/server"
	"pax/internal/stats"
)

// This file is the reshard-autopilot experiment: the same hot-shard story as
// reshard.go, but nobody calls Split. A zipfian flood runs against a
// file-backed fleet with the policy loop watching windowed per-shard load;
// the policy must split the hot shard on its own (the commit pipeline is
// measurably saturated), the post-split phase must show the same win a manual
// split buys, and once the load stops the policy must fold the extra shard
// back — ending at the starting fleet size with every acked write surviving a
// crash+reopen.

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

// AutopilotResult is everything RunAutopilotLoad measured: the phase before
// the policy acted, the phase after its split, and the policy's own record.
type AutopilotResult struct {
	Pre, Post LoadResult
	Pilot     AutopilotJSON
}

// JSON renders the two phases as LoadJSON records tagged pre-autosplit /
// post-autosplit, with the policy details attached to the post record.
func (r AutopilotResult) JSON() []LoadJSON {
	pre := r.Pre.JSON()
	pre.Phase = "pre-autosplit"
	post := r.Post.JSON()
	post.Phase = "post-autosplit"
	pilot := r.Pilot
	post.Autopilot = &pilot
	return []LoadJSON{pre, post}
}

// RunAutopilotLoad is the autopilot A/B. One file-backed sharded engine
// serves a zipfian shared keyspace through five stages:
//
//  1. Preload, then a measured pre phase with no policy running.
//  2. StartAutopilot, then an unmeasured flood of the same skewed traffic
//     until the policy splits on its own (deadline-bounded): the hot shard's
//     windowed enqueue-wait p99 is the signal, so the split fires because
//     the commit pipeline is the measured bottleneck, not merely because
//     load is imbalanced.
//  3. A measured post phase (same spec, reseeded) on the grown fleet.
//  4. Idle until the policy merges the fleet back to its starting size.
//  5. Crash (no final commit), reopen from the discovered layout, verify
//     every key — acked durable writes must survive the whole episode.
//
// spec must be file-backed (PoolDir), shared-keyspace (Keys > 0), durable
// (the crash check), and multi-shard (Shards >= 2).
func RunAutopilotLoad(spec LoadSpec) (AutopilotResult, error) {
	var out AutopilotResult
	if spec.PoolDir == "" || spec.Keys == 0 || spec.Shards < 2 {
		return out, fmt.Errorf("benchkit: autopilot load needs PoolDir, Keys > 0, and Shards >= 2, got %+v", spec)
	}
	if spec.AckOnApply {
		return out, fmt.Errorf("benchkit: autopilot load measures durable acks; AckOnApply would make the crash check vacuous")
	}
	start := spec.Shards
	opts := pax.Options{DataSize: 32 << 20, LogSize: 16 << 20, HBMSize: 16 << 20, EpochLog: spec.EpochLog, Overwrite: true}
	if spec.DataSize > 0 {
		opts.DataSize = spec.DataSize
	}
	path := filepath.Join(spec.PoolDir, "load.pool")
	cfg := server.Config{
		MaxBatch:           spec.MaxBatch,
		MaxDelay:           spec.MaxDelay,
		CommitLatency:      spec.CommitLatency,
		QueuedReads:        spec.QueuedReads,
		MaxInflightCommits: spec.MaxInflightCommits,
		// A shallow queue makes hot-shard saturation visible where the policy
		// looks for it: durable writers pile into the enqueue path, so the hot
		// shard's windowed enqueue-wait p99 rises well above the cold shards'.
		QueueDepth: 8,
	}
	eng, err := server.OpenSharded(path, start, opts, 0, cfg)
	if err != nil {
		return out, err
	}
	value := make([]byte, spec.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	if err := preloadKeys(eng, spec, value); err != nil {
		eng.Close()
		return out, err
	}

	out.Pre, err = measurePhase(eng, spec, value, 0)
	if err != nil {
		eng.Close()
		return out, err
	}

	// The policy watches from here on. Thresholds are scaled to the bench
	// flood (tens of ms windows instead of operator seconds) but keep the
	// production shape: consecutive hot ticks on a pipeline signal to split,
	// a sustained idle stretch to merge, a cooldown between actions.
	ap, err := eng.StartAutopilot(server.AutopilotConfig{
		Interval:           50 * time.Millisecond,
		Window:             250 * time.Millisecond,
		SplitEnabled:       true,
		MaxShards:          start + 1,
		SplitMinOpsPerSec:  200,
		SplitImbalance:     1.2,
		SplitEnqueueP99:    300 * time.Microsecond,
		SplitStallFrac:     0.05,
		SplitHotTicks:      2,
		MergeEnabled:       true,
		MinShards:          start,
		MergeIdleOpsPerSec: 5,
		MergeIdle:          500 * time.Millisecond,
		Cooldown:           time.Second,
	})
	if err != nil {
		eng.Close()
		return out, err
	}
	out.Pilot.StartShards = start
	out.Pilot.PeakShards = start

	// Unmeasured flood: the same skewed traffic, looping in bursts until the
	// policy acts. Histograms sized for the grown fleet so a mid-burst split
	// is safe.
	policy := server.AckDurable
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
				runSharedClient(eng, burst, c, value, policy, &floodLat, floodShard, floodErrs)
			}
		}(c)
	}
	// The decision record (and its counters) publish just after the fleet
	// change itself, so wait on the recorded decision, not the shard count.
	const actDeadline = 30 * time.Second
	waitDecision := func(action string) bool {
		deadline := time.Now().Add(actDeadline)
		for {
			if d := ap.LastDecision(); d != nil && d.Action == action && d.Err == "" {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	splitStart := time.Now()
	if !waitDecision("split") {
		close(floodStop)
		floodWG.Wait()
		eng.Close()
		return out, fmt.Errorf("benchkit: autopilot never split within %v (windows %+v)", actDeadline, ap.Windows())
	}
	out.Pilot.SplitWaitMS = float64(time.Since(splitStart).Microseconds()) / 1e3
	out.Pilot.PeakShards = eng.NumShards()
	out.Pilot.SplitReason = ap.LastDecision().Reason
	close(floodStop)
	floodWG.Wait()
	select {
	case err := <-floodErrs:
		eng.Close()
		return out, fmt.Errorf("benchkit: autopilot flood: %w", err)
	default:
	}

	// Measured post phase on the fleet the policy built. Reseeded like the
	// manual-split A/B so the phase draws a fresh sample of the same
	// distribution. The policy stays on but cannot act: the fleet is at
	// MaxShards and the measured load keeps every shard above idle.
	post := spec
	post.Seed = spec.Seed + 7919
	post.Shards = eng.NumShards()
	out.Post, err = measurePhase(eng, post, value, 1)
	if err != nil {
		eng.Close()
		return out, err
	}

	// Idle: the windowed rates decay and the policy must fold the extra
	// shard back to the starting count on its own.
	mergeStart := time.Now()
	if !waitDecision("merge") {
		eng.Close()
		return out, fmt.Errorf("benchkit: autopilot never merged back within %v (windows %+v)", actDeadline, ap.Windows())
	}
	out.Pilot.MergeWaitMS = float64(time.Since(mergeStart).Microseconds()) / 1e3
	out.Pilot.MergeReason = ap.LastDecision().Reason
	if eng.NumShards() != start {
		eng.Close()
		return out, fmt.Errorf("benchkit: autopilot merged to %d shards, want the starting %d", eng.NumShards(), start)
	}
	if m, err := eng.Metrics(); err == nil {
		out.Pilot.Splits = int(m["paxserve_autopilot_splits"])
		out.Pilot.Merges = int(m["paxserve_autopilot_merges"])
	}

	// Crash and verify: the whole episode — split, measured load, merge —
	// must not have lost a single acked write.
	if err := eng.Crash(); err != nil {
		return out, fmt.Errorf("benchkit: crash after autopilot run: %w", err)
	}
	n, err := server.DiscoverShards(path)
	if err != nil {
		return out, fmt.Errorf("benchkit: rediscovering layout: %w", err)
	}
	out.Pilot.EndShards = n
	reopenOpts := opts
	reopenOpts.Overwrite = false
	reng, err := server.OpenSharded(path, n, reopenOpts, 0, cfg)
	if err != nil {
		return out, fmt.Errorf("benchkit: reopening after crash: %w", err)
	}
	defer reng.Close()
	lost := 0
	for i := uint64(0); i < spec.Keys; i++ {
		if _, ok, err := reng.Get(sharedKey(i)); err != nil || !ok {
			lost++
		}
	}
	out.Pilot.LostKeys = lost
	out.Pilot.CrashVerified = lost == 0
	return out, nil
}

// AutopilotAB is the experiment wrapper: the policy-driven split/merge cycle
// at zipf s=1.5 on a 2-shard file-backed fleet.
func AutopilotAB(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 40 {
		ops = 40
	}
	keys := sz.sweepKeys()
	if keys > 4_000 {
		keys = 4_000
	}
	dir, err := os.MkdirTemp("", "pax-autopilot-*")
	if err != nil {
		panic(fmt.Sprintf("benchkit: autopilot: %v", err))
	}
	defer os.RemoveAll(dir)
	// The capped regime from the manual-split A/B (max batch 8, 4ms media):
	// the hot shard is pegged at its commit-pipeline ceiling, which is both
	// the condition the policy is built to detect and the one where a split
	// actually pays (~+75% acked ops/s at zipf s=1.5).
	res, err := RunAutopilotLoad(LoadSpec{
		Clients:       128,
		OpsPerClient:  ops,
		ValueBytes:    64,
		Keys:          keys,
		Dist:          "zipf",
		ZipfS:         1.5,
		MaxBatch:      8,
		MaxDelay:      2 * time.Millisecond,
		Shards:        2,
		CommitLatency: 4 * time.Millisecond,
		PoolDir:       dir,
		EpochLog:      true,
	})
	if err != nil {
		panic(fmt.Sprintf("benchkit: autopilot A/B: %v", err))
	}
	t := stats.NewTable("autopilot: policy-driven split/merge cycle (zipf s=1.5, 2 shards, file-backed, 4ms media commit)",
		"phase", "shards", "acked ops/s", "imbalance", "ack p99 ms", "policy action", "wait ms", "crash ok")
	t.AddRowf("pre-autosplit", res.Pre.Spec.Shards, res.Pre.OpsThroughput, res.Pre.ShardImbalance,
		float64(res.Pre.AckP99.Microseconds())/1e3, "-", "-", "-")
	t.AddRowf("post-autosplit", res.Post.Spec.Shards, res.Post.OpsThroughput, res.Post.ShardImbalance,
		float64(res.Post.AckP99.Microseconds())/1e3,
		fmt.Sprintf("split x%d", res.Pilot.Splits), res.Pilot.SplitWaitMS, "-")
	t.AddRowf("idle merge-back", res.Pilot.EndShards, 0.0, "-", "-",
		fmt.Sprintf("merge x%d", res.Pilot.Merges), res.Pilot.MergeWaitMS, res.Pilot.CrashVerified)
	return []*stats.Table{t}
}
