package benchkit

import (
	"fmt"
	"time"

	"pax/internal/server"
	"pax/internal/stats"
)

// This file is the live-resharding experiment: run a zipfian-skewed shared
// keyspace against a file-backed sharded engine, measure the hot-shard
// collapse, split the hottest shard live, measure again, then crash and
// reopen to prove no acked write was lost — RunScript with SplitAct. It is
// the end-to-end measurement of the slot router (internal/server/slotmap.go
// + migrate.go): it reports acked ops/s and the hot shard's ack tail on both
// sides of the split, with only ~moved-slots/256 of the keyspace migrating.

// SplitJSON is the split half of a reshard record: what moved and whether
// the crash check passed. It rides on the post-split LoadJSON record.
type SplitJSON struct {
	Source     int     `json:"source"`
	Dest       int     `json:"dest"`
	NewShard   bool    `json:"new_shard"`
	MovedSlots int     `json:"moved_slots"`
	MovedKeys  int     `json:"moved_keys"`
	MovedFrac  float64 `json:"moved_frac"` // MovedSlots / NumSlots
	SplitMS    float64 `json:"split_ms"`   // wall time of the live migration
	// CrashVerified is whether the post-split crash+reopen found every key
	// present with a current value; LostKeys counts the ones it did not (the
	// acceptance bar is 0).
	CrashVerified bool `json:"crash_verified"`
	LostKeys      int  `json:"lost_keys"`
}

// split is SplitAct: the engine picks its hottest shard from per-slot op
// counts and migrates the hot half of its slots to a new shard — live, with
// no client traffic suspended except per slot during each cutover.
func (r *loadRun) split() (*SplitJSON, error) {
	start := time.Now()
	rep, err := r.eng.Split(-1)
	if err != nil {
		return nil, fmt.Errorf("benchkit: live split: %w", err)
	}
	return &SplitJSON{
		Source:     rep.Source,
		Dest:       rep.Dest,
		NewShard:   rep.NewShard,
		MovedSlots: len(rep.MovedSlots),
		MovedKeys:  rep.MovedKeys,
		MovedFrac:  float64(len(rep.MovedSlots)) / float64(server.NumSlots),
		SplitMS:    float64(time.Since(start).Microseconds()) / 1e3,
	}, nil
}

// Reshard is the experiment wrapper: a zipfian skew sweep (the recorded size
// of the hot-shard problem at increasing s) and the live-split A/B.
func Reshard(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 40 {
		ops = 40
	}
	keys := sz.sweepKeys()
	if keys > 20_000 {
		keys = 20_000
	}

	skewTable := stats.NewTable("reshard: zipfian skew vs shard imbalance (4 shards, 64 clients)",
		"dist", "zipf s", "acked ops/s", "imbalance (max/mean)", "hot shard", "hot p99 ack ms", "p99 ack ms")
	type sweep struct {
		dist string
		s    float64
	}
	for _, sw := range []sweep{{"uniform", 0}, {"zipf", 1.1}, {"zipf", 1.2}, {"zipf", 1.5}} {
		res, err := RunScript(LoadSpec{
			Clients:      64,
			OpsPerClient: ops,
			ValueBytes:   64,
			ReadRatio:    0.5,
			RMWRatio:     0.25,
			Keys:         keys,
			Dist:         sw.dist,
			ZipfS:        sw.s,
			MaxBatch:     16,
			Shards:       4,
		}, NoAct)
		if err != nil {
			panic(fmt.Sprintf("benchkit: reshard skew sweep (%s s=%v): %v", sw.dist, sw.s, err))
		}
		hotP99 := 0.0
		if res.HotShard < len(res.PerShard) {
			hotP99 = res.PerShard[res.HotShard].AckP99Micros / 1e3
		}
		skewTable.AddRowf(sw.dist, sw.s, res.OpsThroughput, res.ShardImbalance, res.HotShard,
			hotP99, float64(res.AckP99.Microseconds())/1e3)
	}

	post, err := RunScript(LoadSpec{
		Clients:      64,
		OpsPerClient: ops,
		ValueBytes:   64,
		ReadRatio:    0.5,
		Keys:         keys,
		Dist:         "zipf",
		ZipfS:        1.2,
		MaxBatch:     16,
		Shards:       2,
	}, SplitAct)
	if err != nil {
		panic(fmt.Sprintf("benchkit: reshard split A/B: %v", err))
	}
	splitTable := stats.NewTable("reshard: live split A/B (zipf s=1.2, 2 shards -> 3, file-backed)",
		"phase", "shards", "acked ops/s", "imbalance", "hot p99 ack ms", "moved slots", "moved keys", "crash ok")
	hotP99 := func(r LoadResult) float64 {
		if r.HotShard < len(r.PerShard) {
			return r.PerShard[r.HotShard].AckP99Micros / 1e3
		}
		return 0
	}
	pre := *post.Pre
	splitTable.AddRowf(pre.Phase, pre.Spec.Shards, pre.OpsThroughput, pre.ShardImbalance,
		hotP99(pre), "-", "-", "-")
	splitTable.AddRowf(post.Phase, post.Spec.Shards, post.OpsThroughput, post.ShardImbalance,
		hotP99(post), post.Split.MovedSlots, post.Split.MovedKeys, post.Split.CrashVerified)
	return []*stats.Table{skewTable, splitTable}
}
