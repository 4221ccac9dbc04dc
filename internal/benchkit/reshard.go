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

// This file is the live-resharding experiment: run a zipfian-skewed shared
// keyspace against a file-backed sharded engine, measure the hot-shard
// collapse, split the hottest shard live, measure again, then crash and
// reopen to prove no acked write was lost. It is the end-to-end measurement
// of the slot router (internal/server/slotmap.go + migrate.go): acked ops/s
// should rise and the hot shard's ack tail should fall, with only
// ~moved-slots/256 of the keyspace migrating.

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

// SplitResult is everything RunSplitLoad measured: the steady-state phase
// before the split, the phase after, and the split itself.
type SplitResult struct {
	Pre, Post LoadResult
	Split     SplitJSON
	Report    *server.SplitReport
}

// JSON renders the two phases as LoadJSON records tagged pre-split /
// post-split, with the split details attached to the post record — the shape
// BENCH_loadgen.json stores.
func (r SplitResult) JSON() []LoadJSON {
	pre := r.Pre.JSON()
	pre.Phase = "pre-split"
	post := r.Post.JSON()
	post.Phase = "post-split"
	split := r.Split
	post.Split = &split
	return []LoadJSON{pre, post}
}

// RunSplitLoad is the live-split A/B. One file-backed sharded engine serves
// a zipfian shared keyspace through three stages:
//
//  1. Preload, then a measured pre-split phase (spec as given).
//  2. Split: the engine picks its hottest shard from per-slot op counts and
//     migrates the hot half of its slots to a new shard — live, while no
//     client traffic is suspended except per-slot during each cutover.
//  3. A measured post-split phase (same spec, reseeded), then Crash (no
//     final commit), reopen from the discovered layout, and verify every
//     key of the keyspace is present — every pre-crash acked durable write
//     must have survived the migration.
//
// spec must be file-backed (PoolDir), shared-keyspace (Keys > 0), and
// multi-shard (Shards >= 2; bare layouts cannot split).
func RunSplitLoad(spec LoadSpec) (SplitResult, error) {
	var out SplitResult
	if spec.PoolDir == "" || spec.Keys == 0 || spec.Shards < 2 {
		return out, fmt.Errorf("benchkit: split load needs PoolDir, Keys > 0, and Shards >= 2, got %+v", spec)
	}
	if spec.AckOnApply {
		// The crash check asserts every acked write survives; apply-acked
		// writes are allowed to roll back, so the assertion would be vacuous.
		return out, fmt.Errorf("benchkit: split load measures durable acks; AckOnApply would make the crash check vacuous")
	}
	shards := spec.Shards
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
	}
	eng, err := server.OpenSharded(path, shards, opts, 0, cfg)
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

	splitStart := time.Now()
	rep, err := eng.Split(-1)
	if err != nil {
		eng.Close()
		return out, fmt.Errorf("benchkit: live split: %w", err)
	}
	out.Report = rep
	out.Split = SplitJSON{
		Source:     rep.Source,
		Dest:       rep.Dest,
		NewShard:   rep.NewShard,
		MovedSlots: len(rep.MovedSlots),
		MovedKeys:  rep.MovedKeys,
		MovedFrac:  float64(len(rep.MovedSlots)) / float64(server.NumSlots),
		SplitMS:    float64(time.Since(splitStart).Microseconds()) / 1e3,
	}

	// Reseed so the post phase draws a fresh sample of the same distribution
	// rather than replaying identical key sequences against warm state.
	post := spec
	post.Seed = spec.Seed + 7919
	post.Shards = eng.NumShards()
	out.Post, err = measurePhase(eng, post, value, 1)
	if err != nil {
		eng.Close()
		return out, err
	}

	// Crash (no final commit) and reopen from the discovered layout: every
	// key must still be present — the preload was durable and every measured
	// write was acked durable, so a miss is a lost acked write.
	if err := eng.Crash(); err != nil {
		return out, fmt.Errorf("benchkit: crash after split: %w", err)
	}
	n, err := server.DiscoverShards(path)
	if err != nil {
		return out, fmt.Errorf("benchkit: rediscovering layout: %w", err)
	}
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
	out.Split.LostKeys = lost
	out.Split.CrashVerified = lost == 0
	return out, nil
}

// measurePhase runs one measured shared-keyspace phase against an already
// preloaded engine and folds the counter deltas into a LoadResult. Unlike
// RunLoad it samples the per-shard counters before and after (the engine
// stays open across phases), so each phase's imbalance reflects only its own
// traffic.
func measurePhase(eng *server.ShardedEngine, spec LoadSpec, value []byte, phase int) (LoadResult, error) {
	policy := server.AckDurable
	if spec.AckOnApply {
		policy = server.AckApply
	}
	before := shardCounters(eng)
	aggBefore := eng.AggregateStats()
	shardAck := make([]stats.LatencyHistogram, eng.NumShards())
	var ackLat stats.LatencyHistogram
	errs := make(chan error, spec.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Offset the per-client seed by phase so the two phases do not
			// replay the same streams.
			phased := spec
			phased.Seed = spec.Seed + int64(phase)*1_000_000_007
			runSharedClient(eng, phased, c, value, policy, &ackLat, shardAck, errs)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errs:
		return LoadResult{}, err
	default:
	}
	after := shardCounters(eng)
	agg := eng.AggregateStats()

	ack := ackLat.Snapshot()
	res := LoadResult{
		Spec:         spec,
		AckedWrites:  (agg.AckedWrites + agg.AckedOnApply) - (aggBefore.AckedWrites + aggBefore.AckedOnApply),
		Gets:         agg.Gets - aggBefore.Gets,
		GroupCommits: agg.GroupCommits - aggBefore.GroupCommits,
		BatchMax:     agg.BatchMax,
		Wall:         wall,
		AckP50:       time.Duration(ack.Quantile(0.50)),
		AckP95:       time.Duration(ack.Quantile(0.95)),
		AckP99:       time.Duration(ack.Quantile(0.99)),
		PoolBytes:    int64(eng.MediaSize()),
		EpochLog:     eng.EpochLogEnabled(),
	}
	if res.GroupCommits > 0 {
		res.Amortization = float64(res.AckedWrites) / float64(res.GroupCommits)
	}
	if wall > 0 {
		res.Throughput = float64(res.AckedWrites) / wall.Seconds()
		res.OpsThroughput = float64(res.AckedWrites+res.Gets) / wall.Seconds()
	}
	loads := make([]ShardLoad, len(after))
	var sum, max float64
	for k := range after {
		delta := after[k]
		if k < len(before) {
			delta -= before[k]
		}
		snap := shardAck[k].Snapshot()
		loads[k] = ShardLoad{
			Shard:        k,
			AckedOps:     delta,
			AckP99Micros: float64(snap.Quantile(0.99)) / 1e3,
		}
		sum += float64(delta)
		if float64(delta) > max {
			max = float64(delta)
			res.HotShard = k
		}
	}
	if sum > 0 {
		res.ShardImbalance = max / (sum / float64(len(loads)))
	}
	res.PerShard = loads
	return res, nil
}

// shardCounters samples each shard's acked-op counters (atomic; safe under
// traffic) so phases can difference them.
func shardCounters(eng *server.ShardedEngine) []uint64 {
	return eng.ShardAckedWrites()
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

	skewTable := stats.NewTable("reshard: zipfian skew vs shard imbalance (4 shards, 64 clients, 2ms media commit)",
		"dist", "zipf s", "acked ops/s", "imbalance (max/mean)", "hot shard", "hot p99 ack ms", "p99 ack ms")
	type sweep struct {
		dist string
		s    float64
	}
	for _, sw := range []sweep{{"uniform", 0}, {"zipf", 1.1}, {"zipf", 1.2}, {"zipf", 1.5}} {
		res, err := RunLoad(LoadSpec{
			Clients:       64,
			OpsPerClient:  ops,
			ValueBytes:    64,
			ReadRatio:     0.5,
			RMWRatio:      0.25,
			Keys:          keys,
			Dist:          sw.dist,
			ZipfS:         sw.s,
			MaxBatch:      16,
			MaxDelay:      2 * time.Millisecond,
			Shards:        4,
			CommitLatency: 2 * time.Millisecond,
		})
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

	dir, err := os.MkdirTemp("", "pax-reshard-*")
	if err != nil {
		panic(fmt.Sprintf("benchkit: reshard: %v", err))
	}
	defer os.RemoveAll(dir)
	sres, err := RunSplitLoad(LoadSpec{
		Clients:       64,
		OpsPerClient:  ops,
		ValueBytes:    64,
		ReadRatio:     0.5,
		Keys:          keys,
		Dist:          "zipf",
		ZipfS:         1.2,
		MaxBatch:      16,
		MaxDelay:      2 * time.Millisecond,
		Shards:        2,
		CommitLatency: 2 * time.Millisecond,
		PoolDir:       dir,
		// Delta commits keep the A/B about routing, not about full-image
		// republish IO (and keep the quick scale actually quick).
		EpochLog: true,
	})
	if err != nil {
		panic(fmt.Sprintf("benchkit: reshard split A/B: %v", err))
	}
	splitTable := stats.NewTable("reshard: live split A/B (zipf s=1.2, 2 shards -> 3, file-backed, 2ms media commit)",
		"phase", "shards", "acked ops/s", "imbalance", "hot p99 ack ms", "moved slots", "moved keys", "crash ok")
	hotP99 := func(r LoadResult) float64 {
		if r.HotShard < len(r.PerShard) {
			return r.PerShard[r.HotShard].AckP99Micros / 1e3
		}
		return 0
	}
	splitTable.AddRowf("pre-split", sres.Pre.Spec.Shards, sres.Pre.OpsThroughput, sres.Pre.ShardImbalance,
		hotP99(sres.Pre), "-", "-", "-")
	splitTable.AddRowf("post-split", sres.Post.Spec.Shards, sres.Post.OpsThroughput, sres.Post.ShardImbalance,
		hotP99(sres.Post), sres.Split.MovedSlots, sres.Split.MovedKeys, sres.Split.CrashVerified)
	return []*stats.Table{skewTable, splitTable}
}
