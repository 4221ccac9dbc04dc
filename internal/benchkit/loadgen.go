package benchkit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pax"
	"pax/internal/blackbox"
	"pax/internal/pmem"
	"pax/internal/server"
	"pax/internal/stats"
	"pax/internal/workload"
)

// This file is the serving-layer load generator: instead of driving a
// fixture single-threaded like the paper experiments, it stands up the
// paxserve group-commit engine over in-memory pools and hammers it with
// concurrent client goroutines, measuring how many individually-acked
// durable writes each snapshot amortizes — and, with Shards > 1, how
// partition-parallel group commit scales throughput.

// ErrInjectedFault is the media error LoadSpec.FailSyncsAfter injects. The
// chaos tests and the CI postmortem smoke grep for its message in the
// journaled seal event, so treat it as part of the harness contract.
var ErrInjectedFault = errors.New("injected media failure (loadgen chaos)")

// LoadSpec parameterizes one loadgen run.
type LoadSpec struct {
	Clients      int
	OpsPerClient int
	ValueBytes   int
	// GetEveryN issues a read after every N writes per client (0 disables).
	// Those reads ride on top of OpsPerClient writes; for a workload whose
	// op *mix* is controlled, use ReadRatio instead.
	GetEveryN int
	// ReadRatio is the fraction of each client's OpsPerClient ops issued as
	// GETs against that client's previously written keys (0 disables and
	// GetEveryN applies; 0.9 models a read-heavy serving tier). The
	// interleave is deterministic — an error-diffusion pattern, not a PRNG —
	// so runs are reproducible.
	ReadRatio float64
	// QueuedReads serves GETs through the writer queue (the engine's
	// pre-read-index behavior) instead of the volatile read index — the
	// "before" side of the read-path A/B.
	QueuedReads bool
	MaxBatch    int
	MaxDelay    time.Duration
	// Shards partitions the keyspace across N independent pools, each with
	// its own writer loop and device, so N group commits run in parallel
	// (default 1 — the single-writer engine).
	Shards int
	// CommitLatency is the modeled per-group-commit media latency (see
	// server.Config.CommitLatency). With it set, a single engine is bound by
	// one commit in flight at a time and the shard sweep measures how
	// partition-parallel commit overlaps that latency; zero commits at
	// simulator speed, which benchmarks the host CPU rather than the
	// serving design.
	CommitLatency time.Duration
	// PoolDir, when non-empty, backs the engines with real pool files
	// created there (fresh layout per run) instead of in-memory devices.
	// File-backed runs are what the write-amplification sweeps need: the
	// bytes each commit pushes through the filesystem are the measurement.
	PoolDir string
	// DataSize overrides the per-shard vPM data region in bytes (default
	// 32 MiB). The pool-size sweep holds the workload fixed and grows this:
	// full-image commit cost scales with it, delta commit cost must not.
	DataSize uint64
	// EpochLog selects the log-structured delta epoch store for the pools
	// (pax.Options.EpochLog); false is the full-image baseline.
	EpochLog bool
	// MaxInflightCommits bounds the engine's commit pipeline (see
	// server.Config.MaxInflightCommits): 1 is the serial A/B baseline, 0
	// takes the engine default (2).
	MaxInflightCommits int
	// AckOnApply issues every write under server.AckApply: acked when
	// applied and read-index-visible, durability asynchronous. False is the
	// ack-on-durable default — every ack means the write's group commit
	// reached media.
	AckOnApply bool
	// Keys, when > 0, switches the run to a shared-keyspace workload: the
	// keyspace is Keys keys ("k%08d"), preloaded durable before the measured
	// phase, and every client samples the same space — reads and writes alike
	// — through the Dist sampler. 0 keeps the legacy per-client-private keys
	// (each client writes its own sequence and reads its own history), which
	// is what the pre-zipfian sweeps recorded. The shared keyspace is what
	// exposes hot-shard imbalance: private keys spread by construction.
	Keys uint64
	// Dist picks the shared-keyspace sampler: "uniform" (default) or "zipf"
	// (YCSB-style skew; ZipfS sets the exponent). Requires Keys > 0.
	Dist string
	// ZipfS is the zipfian exponent (s > 1; default 1.2). Higher is more
	// skewed: at s=1.2 over 100k keys, the hottest ~25 keys absorb a tenth
	// of the traffic, and whichever shard owns them becomes the bottleneck.
	ZipfS float64
	// RMWRatio is the fraction of write ops issued as read-modify-write —
	// Get then Put of the same sampled key, the YCSB-A update shape — instead
	// of a blind Put. Requires Keys > 0.
	RMWRatio float64
	// ValueDist sizes each written value: "fixed" (default, every value is
	// ValueBytes) or "uniform" (per-op size uniform in [1, ValueBytes]).
	// Requires Keys > 0.
	ValueDist string
	// Seed perturbs the samplers; runs with equal specs are identical, and
	// sweeps vary Seed to decorrelate. Each client derives its own stream.
	Seed int64
	// Blackbox attaches a crash black box (internal/blackbox) to the run:
	// lifecycle events and windowed metrics snapshots journal to
	// <PoolDir>/load.pool.blackbox/. Requires PoolDir (the journal is a
	// directory of files). The A/B against an identical spec without it is
	// the journaling-overhead bound.
	Blackbox bool
	// BlackboxInterval is the snapshot period (default 250ms — short, so
	// even sub-second runs capture a windowed sample).
	BlackboxInterval time.Duration
	// FailSyncsAfter, when > 0, injects a persistent media-sync fault into
	// shard 0 after that many successful syncs: every later persist fails,
	// commit retries exhaust, and the shard seals fail-stop mid-run. Client
	// errors are then expected (the client stops, the run continues), and
	// the run ends with Crash() instead of Close() — a simulated kill, so
	// what the black box captured is exactly what a postmortem would find.
	FailSyncsAfter int
}

// LoadResult summarizes a run.
type LoadResult struct {
	Spec         LoadSpec
	AckedWrites  uint64
	Gets         uint64
	GroupCommits uint64
	BatchMax     uint64
	// Amortization is acked writes per snapshot — the group-commit payoff.
	Amortization float64
	Wall         time.Duration
	Throughput   float64 // acked writes per wall second
	// OpsThroughput is total acked ops (writes + reads) per wall second —
	// the figure of merit for mixed read/write sweeps.
	OpsThroughput float64
	// AckP50/P95/P99 are client-observed per-write ack latency quantiles:
	// Put call to durable-ack return, so they include queue wait, the group-
	// commit window, the persist, and the modeled media latency — the
	// latency a serving client actually experiences, as opposed to the
	// server-side per-stage histograms in the metrics registry.
	AckP50, AckP95, AckP99 time.Duration
	// Metrics is the merged engine+pool metrics summary (per-shard gauges
	// carry a {shard="K"} suffix; plain names are cross-shard sums),
	// sampled safely after the engines close.
	Metrics stats.Summary
	// PoolBytes is the per-shard media size; EpochLog echoes which persist
	// mode the run used.
	PoolBytes int64
	EpochLog  bool
	// CommitP50Bytes/CommitP99Bytes are per-commit persisted-bytes quantiles
	// as the serving engine observed them (paxserve_epoch_delta_bytes, which
	// excludes the one-time pool-format sync): O(dirty) under the epoch
	// store, the pool size under full-image. They come from a log-bucketed
	// histogram, so each is the matching bucket's upper bound — up to ~3%
	// above the true value (a 50331648-byte full image reports as 51380223).
	// CommitMeanBytes has no such error: it is the histogram's exact
	// sum/count. WriteAmplification is CommitMeanBytes divided by the pool
	// size — the fraction of the pool each commit rewrites (1.0 for
	// full-image by construction).
	CommitP50Bytes     float64
	CommitP99Bytes     float64
	CommitMeanBytes    float64
	WriteAmplification float64
	// PerShard breaks the run down by shard (from the merged {shard="K"}
	// metrics): acked ops, queue pressure, and client-observed ack tail per
	// shard. ShardImbalance is max/mean per-shard acked ops — 1.0 is perfect
	// balance, and under zipfian skew it is the recorded size of the
	// hot-shard problem. HotShard is the argmax.
	PerShard       []ShardLoad
	ShardImbalance float64
	HotShard       int
}

// ShardLoad is one shard's share of a run.
type ShardLoad struct {
	Shard int `json:"shard"`
	// AckedOps is the shard's acked writes (durable + on-apply) plus served
	// GETs.
	AckedOps uint64 `json:"acked_ops"`
	// EnqueueWaitP99Micros is the shard's server-side enqueue-wait p99 — how
	// long requests sat blocked on a full queue, the first symptom of a hot
	// shard.
	EnqueueWaitP99Micros float64 `json:"enqueue_wait_p99_us"`
	// AckP99Micros is the client-observed per-write ack p99 for writes routed
	// to this shard.
	AckP99Micros float64 `json:"ack_p99_us"`
}

// LoadJSON is the machine-readable form of a LoadResult — what
// `paxbench -loadgen -format json` emits so the perf trajectory is tracked
// across PRs.
type LoadJSON struct {
	Shards          int     `json:"shards"`
	Clients         int     `json:"clients"`
	OpsPerClient    int     `json:"ops_per_client"`
	MaxBatch        int     `json:"max_batch"`
	CommitLatencyMS float64 `json:"commit_latency_ms"`
	ReadRatio       float64 `json:"read_ratio"`
	ReadPath        string  `json:"read_path"` // "index" | "queued"
	// AckPolicy is "durable" (acks mean on-media) or "apply" (acks mean
	// applied and read-index-visible, durability async);
	// MaxInflightCommits is the commit-pipeline window the run used (1 =
	// serial baseline).
	AckPolicy          string  `json:"ack_policy"`
	MaxInflightCommits int     `json:"max_inflight_commits"`
	AckedWrites        uint64  `json:"acked_writes"`
	Gets               uint64  `json:"gets"`
	Snapshots          uint64  `json:"snapshots"`
	BatchMax           uint64  `json:"batch_max"`
	Amortization       float64 `json:"amortization"`
	WallMillis         float64 `json:"wall_ms"`
	AckedWritesPerSec  float64 `json:"acked_writes_per_sec"`
	AckedOpsPerSec     float64 `json:"acked_ops_per_sec"`
	AckP50Micros       float64 `json:"ack_p50_us"`
	AckP95Micros       float64 `json:"ack_p95_us"`
	AckP99Micros       float64 `json:"ack_p99_us"`
	// Epoch-store A/B fields: which persist mode ran, the per-shard pool
	// size, per-commit persisted bytes, and the mean fraction of the pool
	// rewritten per commit. commit_p50_bytes/commit_p99_bytes are log-bucket
	// upper bounds (up to ~3% above the true value — a 48 MiB full image
	// reports 51380223, not 50331648); commit_mean_bytes is exact
	// (histogram sum/count), so use it when the absolute byte count
	// matters.
	EpochLog           bool    `json:"epoch_log"`
	PoolBytes          int64   `json:"pool_bytes"`
	CommitP50Bytes     float64 `json:"commit_p50_bytes"`
	CommitP99Bytes     float64 `json:"commit_p99_bytes"`
	CommitMeanBytes    float64 `json:"commit_mean_bytes"`
	WriteAmplification float64 `json:"write_amplification"`
	// Workload-shape fields: the key distribution ("uniform" | "zipf" over a
	// shared keyspace of Keys keys, or "private" for the legacy per-client
	// keys), its skew, the read-modify-write fraction, and the value sizing.
	Dist      string  `json:"dist"`
	ZipfS     float64 `json:"zipf_s"`
	Keys      uint64  `json:"keys"`
	RMWRatio  float64 `json:"rmw_ratio"`
	ValueDist string  `json:"value_dist"`
	// Imbalance fields: per-shard load breakdown, max/mean acked ops across
	// shards, and which shard was hottest.
	ShardImbalance float64     `json:"shard_imbalance"`
	HotShard       int         `json:"hot_shard"`
	PerShard       []ShardLoad `json:"per_shard,omitempty"`
	// Split-run fields, set only by the reshard experiment: which phase of a
	// live-split run this record measures ("pre-split" | "post-split") and,
	// on the post record, what the split moved and whether every pre-split
	// acked write survived a crash+reopen.
	Phase string     `json:"phase,omitempty"`
	Split *SplitJSON `json:"split,omitempty"`
	// Autopilot is set only by the autopilot experiment, on the
	// post-autosplit record: what the reshard policy did unprompted.
	Autopilot *AutopilotJSON `json:"autopilot,omitempty"`
	// Blackbox is whether the run journaled to a crash black box — the A/B
	// axis for the journaling-overhead bound. FailSyncsAfter echoes the
	// chaos fault injection (0 = healthy run).
	Blackbox       bool `json:"blackbox"`
	FailSyncsAfter int  `json:"fail_syncs_after,omitempty"`
}

// JSON converts the result to its machine-readable record.
func (r LoadResult) JSON() LoadJSON {
	shards := r.Spec.Shards
	if shards <= 0 {
		shards = 1
	}
	path := "index"
	if r.Spec.QueuedReads {
		path = "queued"
	}
	policy := "durable"
	if r.Spec.AckOnApply {
		policy = "apply"
	}
	inflight := r.Spec.MaxInflightCommits
	if inflight <= 0 {
		inflight = 2 // the engine default (server.Config.withDefaults)
	}
	dist := "private"
	zipfS := 0.0
	valueDist := ""
	if r.Spec.Keys > 0 {
		dist = r.Spec.Dist
		if dist == "" {
			dist = "uniform"
		}
		if dist == "zipf" {
			zipfS = r.Spec.ZipfS
			if zipfS == 0 {
				zipfS = defaultZipfS
			}
		}
		valueDist = r.Spec.ValueDist
		if valueDist == "" {
			valueDist = "fixed"
		}
	}
	return LoadJSON{
		Shards:             shards,
		Clients:            r.Spec.Clients,
		OpsPerClient:       r.Spec.OpsPerClient,
		MaxBatch:           r.Spec.MaxBatch,
		CommitLatencyMS:    float64(r.Spec.CommitLatency.Microseconds()) / 1e3,
		ReadRatio:          r.Spec.ReadRatio,
		ReadPath:           path,
		AckPolicy:          policy,
		MaxInflightCommits: inflight,
		AckedWrites:        r.AckedWrites,
		Gets:               r.Gets,
		Snapshots:          r.GroupCommits,
		BatchMax:           r.BatchMax,
		Amortization:       r.Amortization,
		WallMillis:         float64(r.Wall.Microseconds()) / 1e3,
		AckedWritesPerSec:  r.Throughput,
		AckedOpsPerSec:     r.OpsThroughput,
		AckP50Micros:       float64(r.AckP50.Nanoseconds()) / 1e3,
		AckP95Micros:       float64(r.AckP95.Nanoseconds()) / 1e3,
		AckP99Micros:       float64(r.AckP99.Nanoseconds()) / 1e3,
		EpochLog:           r.EpochLog,
		PoolBytes:          r.PoolBytes,
		CommitP50Bytes:     r.CommitP50Bytes,
		CommitP99Bytes:     r.CommitP99Bytes,
		CommitMeanBytes:    r.CommitMeanBytes,
		WriteAmplification: r.WriteAmplification,
		Dist:               dist,
		ZipfS:              zipfS,
		Keys:               r.Spec.Keys,
		RMWRatio:           r.Spec.RMWRatio,
		ValueDist:          valueDist,
		ShardImbalance:     r.ShardImbalance,
		HotShard:           r.HotShard,
		PerShard:           r.PerShard,
		Blackbox:           r.Spec.Blackbox,
		FailSyncsAfter:     r.Spec.FailSyncsAfter,
	}
}

// defaultZipfS is the zipfian exponent used when Dist is "zipf" and ZipfS is
// unset — skewed enough that one shard's slots clearly dominate, mild enough
// that every shard still sees traffic (the YCSB constant is 0.99 for its
// scrambled variant; rand.Zipf's unscrambled form wants s > 1).
const defaultZipfS = 1.2

// sharedKey names key i of the shared keyspace.
func sharedKey(i uint64) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// keySampler is what the shared-keyspace clients draw from (workload.Zipf or
// workload.Uniform).
type keySampler interface{ Next() uint64 }

// RunLoad executes one loadgen run on fresh pools (one per shard) —
// in-memory by default, file-backed under spec.PoolDir.
func RunLoad(spec LoadSpec) (LoadResult, error) {
	if spec.Clients <= 0 || spec.OpsPerClient <= 0 {
		return LoadResult{}, fmt.Errorf("benchkit: loadgen needs clients and ops, got %+v", spec)
	}
	if spec.ReadRatio < 0 || spec.ReadRatio >= 1 {
		return LoadResult{}, fmt.Errorf("benchkit: read ratio %v must be in [0, 1)", spec.ReadRatio)
	}
	if spec.ValueBytes <= 0 {
		spec.ValueBytes = 64
	}
	if spec.Keys == 0 {
		// "uniform" and "fixed" are what private-key clients do anyway (and
		// paxbench's flag defaults), so only a real shape needs the keyspace.
		shaped := (spec.Dist != "" && spec.Dist != "uniform") || (spec.ValueDist != "" && spec.ValueDist != "fixed")
		if shaped || spec.ZipfS != 0 || spec.RMWRatio != 0 {
			return LoadResult{}, fmt.Errorf("benchkit: Dist/ZipfS/RMWRatio/ValueDist shape the shared keyspace; set Keys > 0")
		}
	} else {
		switch spec.Dist {
		case "", "uniform", "zipf":
		default:
			return LoadResult{}, fmt.Errorf("benchkit: key distribution %q (want uniform or zipf)", spec.Dist)
		}
		if spec.Dist == "zipf" && spec.ZipfS != 0 && spec.ZipfS <= 1 {
			return LoadResult{}, fmt.Errorf("benchkit: zipf exponent %v must be > 1", spec.ZipfS)
		}
		if spec.RMWRatio < 0 || spec.RMWRatio > 1 {
			return LoadResult{}, fmt.Errorf("benchkit: RMW ratio %v must be in [0, 1]", spec.RMWRatio)
		}
		switch spec.ValueDist {
		case "", "fixed", "uniform":
		default:
			return LoadResult{}, fmt.Errorf("benchkit: value distribution %q (want fixed or uniform)", spec.ValueDist)
		}
	}
	if spec.Blackbox && spec.PoolDir == "" {
		return LoadResult{}, fmt.Errorf("benchkit: Blackbox journals to a directory; set PoolDir")
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = 1
	}
	opts := pax.Options{DataSize: 32 << 20, LogSize: 16 << 20, HBMSize: 16 << 20, EpochLog: spec.EpochLog}
	if spec.DataSize > 0 {
		opts.DataSize = spec.DataSize
	}
	path := ""
	if spec.PoolDir != "" {
		path = filepath.Join(spec.PoolDir, "load.pool")
		opts.Overwrite = true
	}
	eng, err := server.OpenSharded(path, shards, opts,
		0, server.Config{
			MaxBatch:           spec.MaxBatch,
			MaxDelay:           spec.MaxDelay,
			CommitLatency:      spec.CommitLatency,
			QueuedReads:        spec.QueuedReads,
			MaxInflightCommits: spec.MaxInflightCommits,
		})
	if err != nil {
		return LoadResult{}, err
	}
	poolBytes := int64(eng.MediaSize())
	epochLog := eng.EpochLogEnabled()

	var bbJournal *blackbox.Journal
	var bbStop func()
	if spec.Blackbox {
		j, err := blackbox.Open(blackbox.Config{Dir: path + blackbox.DirSuffix})
		if err != nil {
			eng.Close()
			return LoadResult{}, fmt.Errorf("benchkit: blackbox: %w", err)
		}
		iv := spec.BlackboxInterval
		if iv <= 0 {
			iv = 250 * time.Millisecond
		}
		bbJournal = j
		bbStop = server.AttachBlackbox(eng, j, iv)
	}

	value := make([]byte, spec.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	policy := server.AckDurable
	if spec.AckOnApply {
		policy = server.AckApply
	}
	// Shared keyspace: preload every key durable before the clock starts, so
	// the measured phase reads always hit and the imbalance numbers reflect
	// steady-state traffic, not fill. The preload's own acks and commits are
	// sampled here and subtracted below, so the reported counters (and the
	// per-shard imbalance) cover only measured traffic. The latency quantiles
	// in the metrics registry still include the fill — histograms cannot be
	// differenced — but the client-side ack histograms start at zero.
	var preAgg server.AggregateStats
	var preShard []uint64
	if spec.Keys > 0 {
		if err := preloadKeys(eng, spec, value); err != nil {
			eng.Close()
			if bbStop != nil {
				bbStop()
				bbJournal.Close()
			}
			return LoadResult{}, err
		}
		preAgg = eng.AggregateStats()
		preShard = eng.ShardAckedWrites()
	}
	chaos := spec.FailSyncsAfter > 0
	if chaos {
		// Injected after the preload so the fill always lands: shard 0's
		// device starts refusing media syncs partway through the measured
		// phase, its commit retries exhaust, and it seals fail-stop.
		eng.ShardPools()[0].Internal().PM().SetFaultFn(
			pmem.FailSyncsAfter(spec.FailSyncsAfter, ErrInjectedFault))
	}
	// shardAck splits the client-observed ack latency by the shard that
	// served the write (routed via the engine's own ShardFor at issue time) —
	// the hot shard's tail is the split experiment's before/after number.
	shardAck := make([]stats.LatencyHistogram, shards)
	start := time.Now()
	var (
		wg     sync.WaitGroup
		ackLat stats.LatencyHistogram // shared; it is lock-free by design
	)
	errs := make(chan error, spec.Clients)
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if spec.Keys > 0 {
				runSharedClient(eng, spec, c, value, policy, &ackLat, shardAck, errs)
				return
			}
			var (
				acc   float64                            // error-diffusion accumulator for the read/write mix
				wrote int                                // keys this client has written so far
				rng   = uint32(2654435761 * uint64(c+1)) // per-client LCG state
			)
			for op := 0; op < spec.OpsPerClient; op++ {
				acc += spec.ReadRatio
				if acc >= 1 && wrote > 0 {
					acc--
					// Read a previously written key (LCG pick, deterministic
					// per client): hits the read path with realistic reuse.
					rng = rng*1664525 + 1013904223
					key := []byte(fmt.Sprintf("c%04d-%06d", c, int(rng)%wrote))
					if _, ok, err := eng.Get(key); err != nil || !ok {
						if chaos {
							return
						}
						errs <- fmt.Errorf("client %d read %s: ok=%v err=%v", c, key, ok, err)
						return
					}
					continue
				}
				key := []byte(fmt.Sprintf("c%04d-%06d", c, wrote))
				wrote++
				shard := eng.ShardFor(key)
				t0 := time.Now()
				if _, err := eng.PutPolicy(key, value, policy); err != nil {
					if chaos {
						// Expected once the injected fault seals the shard:
						// this client's writes route there, so it stops.
						return
					}
					errs <- fmt.Errorf("client %d op %d: %w", c, op, err)
					return
				}
				d := time.Since(t0).Nanoseconds()
				ackLat.Observe(d)
				shardAck[shard].Observe(d)
				if spec.ReadRatio == 0 && spec.GetEveryN > 0 && op%spec.GetEveryN == spec.GetEveryN-1 {
					if _, ok, err := eng.Get(key); err != nil || !ok {
						if chaos {
							return
						}
						errs <- fmt.Errorf("client %d read-back %s: ok=%v err=%v", c, key, ok, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if chaos {
		// Simulated kill: no orderly close, no shutdown marker. Everything a
		// postmortem needs is already on disk — the journal fsyncs each
		// append — so the black box is read back exactly as a crash would
		// leave it (the sampler stop below only adds the tail-window
		// snapshot, which a periodic tick would have written anyway).
		eng.Crash()
	} else if err := eng.Close(); err != nil {
		if bbStop != nil {
			bbStop()
			bbJournal.Close()
		}
		return LoadResult{}, err
	}
	if bbStop != nil {
		bbStop()
		if err := bbJournal.Close(); err != nil {
			return LoadResult{}, fmt.Errorf("benchkit: blackbox close: %w", err)
		}
	}
	select {
	case err := <-errs:
		return LoadResult{}, err
	default:
	}

	agg := eng.AggregateStats()
	metrics, err := eng.Metrics()
	if err != nil {
		return LoadResult{}, err
	}
	ack := ackLat.Snapshot()
	// Durable runs count acks at commit time (AckedWrites); apply runs count
	// them at apply time (AckedOnApply). Either way it is one ack per write.
	res := LoadResult{
		Spec:           spec,
		AckedWrites:    (agg.AckedWrites + agg.AckedOnApply) - (preAgg.AckedWrites + preAgg.AckedOnApply),
		Gets:           agg.Gets - preAgg.Gets,
		GroupCommits:   agg.GroupCommits - preAgg.GroupCommits,
		BatchMax:       agg.BatchMax,
		Wall:           wall,
		Metrics:        metrics,
		AckP50:         time.Duration(ack.Quantile(0.50)),
		AckP95:         time.Duration(ack.Quantile(0.95)),
		AckP99:         time.Duration(ack.Quantile(0.99)),
		PoolBytes:      poolBytes,
		EpochLog:       epochLog,
		CommitP50Bytes: metrics[`paxserve_epoch_delta_bytes{q="p50"}`],
		CommitP99Bytes: metrics[`paxserve_epoch_delta_bytes{q="p99"}`],
	}
	if res.GroupCommits > 0 {
		res.Amortization = float64(res.AckedWrites) / float64(res.GroupCommits)
	}
	if n := metrics["paxserve_epoch_delta_bytes_count"]; n > 0 {
		res.CommitMeanBytes = metrics["paxserve_epoch_delta_bytes_sum"] / n
		if poolBytes > 0 {
			res.WriteAmplification = res.CommitMeanBytes / float64(poolBytes)
		}
	}
	if wall > 0 {
		res.Throughput = float64(res.AckedWrites) / wall.Seconds()
		res.OpsThroughput = float64(res.AckedWrites+res.Gets) / wall.Seconds()
	}
	res.PerShard, res.ShardImbalance, res.HotShard = perShardLoads(metrics, shardAck, preShard)
	return res, nil
}

// perShardLoads folds the merged {shard="K"} metrics plus the client-side
// per-shard ack histograms into the per-shard breakdown and its imbalance
// summary (max/mean acked ops; 1.0 = perfectly balanced). base, when
// non-nil, holds each shard's acked-write count sampled before the measured
// phase (the preload fill), which is subtracted out.
func perShardLoads(metrics stats.Summary, shardAck []stats.LatencyHistogram, base []uint64) ([]ShardLoad, float64, int) {
	loads := make([]ShardLoad, len(shardAck))
	var sum, max float64
	hot := 0
	for k := range loads {
		lbl := fmt.Sprintf("{shard=%q}", strconv.Itoa(k))
		acked := metrics["paxserve_acked_writes"+lbl] +
			metrics["paxserve_acked_on_apply"+lbl] +
			metrics["paxserve_gets"+lbl]
		if k < len(base) {
			acked -= float64(base[k])
		}
		snap := shardAck[k].Snapshot()
		loads[k] = ShardLoad{
			Shard:                k,
			AckedOps:             uint64(acked),
			EnqueueWaitP99Micros: metrics[`paxserve_enqueue_wait_ns{q="p99",shard=`+strconv.Quote(strconv.Itoa(k))+`}`] / 1e3,
			AckP99Micros:         float64(snap.Quantile(0.99)) / 1e3,
		}
		sum += acked
		if acked > max {
			max, hot = acked, k
		}
	}
	imbalance := 0.0
	if sum > 0 {
		imbalance = max / (sum / float64(len(loads)))
	}
	return loads, imbalance, hot
}

// preloadKeys writes the whole shared keyspace before the measured phase:
// ack-on-apply puts fanned across the clients' worth of goroutines, then one
// forced commit per shard so the preload is durable and the measured phase
// starts from a clean epoch.
func preloadKeys(eng *server.ShardedEngine, spec LoadSpec, value []byte) error {
	loaders := spec.Clients
	if loaders > 64 {
		loaders = 64
	}
	per := (spec.Keys + uint64(loaders) - 1) / uint64(loaders)
	errs := make(chan error, loaders)
	var wg sync.WaitGroup
	for c := 0; c < loaders; c++ {
		lo, hi := uint64(c)*per, uint64(c+1)*per
		if hi > spec.Keys {
			hi = spec.Keys
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if _, err := eng.PutPolicy(sharedKey(i), value, server.AckApply); err != nil {
					errs <- fmt.Errorf("benchkit: preloading key %d: %w", i, err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	_, err := eng.Persist()
	return err
}

// runSharedClient is one measured-phase client of the shared-keyspace mode:
// reads and writes both draw keys from the same sampler (read skew matches
// write skew — a hot key is hot on both paths), RMWRatio of the writes are
// read-modify-writes (the ack time then includes the read), and ValueDist
// sizes each value.
func runSharedClient(eng *server.ShardedEngine, spec LoadSpec, c int, value []byte, policy server.AckPolicy, ackLat *stats.LatencyHistogram, shardAck []stats.LatencyHistogram, errs chan<- error) {
	seed := spec.Seed*1_000_003 + int64(c)*2_654_435_761 + 1
	var sampler keySampler
	if spec.Dist == "zipf" {
		s := spec.ZipfS
		if s == 0 {
			s = defaultZipfS
		}
		sampler = workload.NewZipf(spec.Keys, s, seed)
	} else {
		sampler = workload.NewUniform(spec.Keys, seed)
	}
	var (
		readAcc, rmwAcc float64 // error-diffusion accumulators, deterministic per client
		rng             = uint32(2654435761 * uint64(c+1))
	)
	// Under fault injection (FailSyncsAfter) errors are the experiment:
	// the sealed shard refuses this client's ops, so it stops quietly.
	chaos := spec.FailSyncsAfter > 0
	for op := 0; op < spec.OpsPerClient; op++ {
		readAcc += spec.ReadRatio
		if readAcc >= 1 {
			readAcc--
			key := sharedKey(sampler.Next())
			if _, ok, err := eng.Get(key); err != nil || !ok {
				if chaos {
					return
				}
				errs <- fmt.Errorf("client %d read %s: ok=%v err=%v", c, key, ok, err)
				return
			}
			continue
		}
		key := sharedKey(sampler.Next())
		v := value
		if spec.ValueDist == "uniform" {
			rng = rng*1664525 + 1013904223
			v = value[:1+int(rng%uint32(len(value)))]
		}
		rmw := false
		if rmwAcc += spec.RMWRatio; rmwAcc >= 1 {
			rmwAcc--
			rmw = true
		}
		shard := eng.ShardFor(key)
		t0 := time.Now()
		if rmw {
			if _, ok, err := eng.Get(key); err != nil || !ok {
				if chaos {
					return
				}
				errs <- fmt.Errorf("client %d rmw-read %s: ok=%v err=%v", c, key, ok, err)
				return
			}
		}
		if _, err := eng.PutPolicy(key, v, policy); err != nil {
			if chaos {
				return
			}
			errs <- fmt.Errorf("client %d op %d: %w", c, op, err)
			return
		}
		d := time.Since(t0).Nanoseconds()
		ackLat.Observe(d)
		shardAck[shard].Observe(d)
	}
}

// EpochStoreAmplification is the epoch-store A/B: the same fixed workload
// over growing file-backed pools, committed as full-image republishes vs as
// delta records. Full-image per-commit bytes track the pool size (write
// amplification 1.0 by construction); the delta store's stay O(dirty) —
// flat across the sweep — which is the property the epoch store exists to
// buy. The workload is deliberately small: the measurement is bytes per
// commit, not throughput, and the full-image side rewrites the whole pool
// every commit.
func EpochStoreAmplification(cfg Config, sz Sizes) []*stats.Table {
	poolMiB := []int{64, 128, 256}
	if sz.MeasureOps < 10_000 {
		poolMiB = []int{16, 32, 64} // quick scale: keep full-image I/O in check
	}
	table := stats.NewTable("epoch store: per-commit persisted bytes vs pool size (fixed workload, file-backed)",
		"mode", "pool MiB", "commits", "p50 KiB/commit", "p99 KiB/commit", "amplification", "writes/s")
	for _, epochLog := range []bool{false, true} {
		mode := "full-image"
		if epochLog {
			mode = "delta"
		}
		for _, mib := range poolMiB {
			dir, err := os.MkdirTemp("", "pax-epochstore-*")
			if err != nil {
				panic(fmt.Sprintf("benchkit: epoch-store sweep: %v", err))
			}
			res, err := RunLoad(LoadSpec{
				Clients:      8,
				OpsPerClient: 24,
				ValueBytes:   64,
				MaxBatch:     16,
				MaxDelay:     time.Millisecond,
				PoolDir:      dir,
				DataSize:     uint64(mib) << 20,
				EpochLog:     epochLog,
			})
			os.RemoveAll(dir)
			if err != nil {
				panic(fmt.Sprintf("benchkit: epoch-store sweep (%s, %d MiB): %v", mode, mib, err))
			}
			table.AddRowf(mode, mib, res.GroupCommits,
				res.CommitP50Bytes/1024, res.CommitP99Bytes/1024,
				res.WriteAmplification, res.Throughput)
		}
	}
	return []*stats.Table{table}
}

// Loadgen is the experiment wrapper: sweep client counts (amortization vs
// concurrency on one shard) and shard counts (throughput vs partition-
// parallel commit), reporting how group commit and sharding scale.
func Loadgen(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 20 {
		ops = 20
	}
	clientsTable := stats.NewTable("loadgen: group-commit serving vs client count",
		"clients", "acked writes", "snapshots", "writes/snapshot", "max batch", "wall ms", "writes/s")
	for _, clients := range []int{1, 4, 16, 64, 128} {
		res, err := RunLoad(LoadSpec{
			Clients:      clients,
			OpsPerClient: ops,
			ValueBytes:   64,
			GetEveryN:    4,
			MaxBatch:     128,
			MaxDelay:     2 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("benchkit: loadgen with %d clients: %v", clients, err))
		}
		clientsTable.AddRowf(clients, res.AckedWrites, res.GroupCommits,
			res.Amortization, res.BatchMax,
			float64(res.Wall.Milliseconds()), res.Throughput)
	}

	// The shard sweep runs commit-latency-bound (MaxBatch < clients, 2ms
	// modeled media commit): a single pool then has exactly one commit in
	// flight at a time, and shards overlap theirs — the scaling the
	// tentpole exists to buy.
	shardsTable := stats.NewTable("loadgen: sharded serving vs shard count (256 clients, 2ms media commit)",
		"shards", "acked writes", "snapshots", "writes/snapshot", "wall ms", "writes/s", "speedup", "p99 ack ms")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := RunLoad(LoadSpec{
			Clients:       256,
			OpsPerClient:  ops,
			ValueBytes:    64,
			GetEveryN:     4,
			MaxBatch:      16,
			MaxDelay:      2 * time.Millisecond,
			Shards:        shards,
			CommitLatency: 2 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("benchkit: loadgen with %d shards: %v", shards, err))
		}
		if shards == 1 {
			base = res.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = res.Throughput / base
		}
		shardsTable.AddRowf(shards, res.AckedWrites, res.GroupCommits,
			res.Amortization, float64(res.Wall.Milliseconds()), res.Throughput, speedup,
			float64(res.AckP99.Microseconds())/1e3)
	}

	// The GET-heavy sweep is the read-path A/B: 95% GETs, commit-latency-
	// bound writes. "queued" serializes every GET through the writer loop
	// (the pre-read-index engine); "index" serves GETs from the volatile
	// read index while commits are in flight. The mix matches the recorded
	// BENCH_loadgen.json sweep; closed-loop clients bound the queued path at
	// roughly one op per client per commit cycle, so the ratio grows with
	// the read fraction.
	readTable := stats.NewTable("loadgen: GET-heavy read path (read-ratio 0.95, 128 clients, 2ms media commit)",
		"shards", "read path", "acked writes", "gets", "wall ms", "ops/s", "index speedup")
	for _, shards := range []int{1, 4} {
		var queuedOps float64
		for _, queued := range []bool{true, false} {
			res, err := RunLoad(LoadSpec{
				Clients:       128,
				OpsPerClient:  ops * 2,
				ValueBytes:    64,
				ReadRatio:     0.95,
				QueuedReads:   queued,
				MaxBatch:      16,
				MaxDelay:      2 * time.Millisecond,
				Shards:        shards,
				CommitLatency: 2 * time.Millisecond,
			})
			if err != nil {
				panic(fmt.Sprintf("benchkit: GET-heavy loadgen (%d shards, queued=%v): %v", shards, queued, err))
			}
			path := "index"
			speedup := 0.0
			if queued {
				path = "queued"
				queuedOps = res.OpsThroughput
			} else if queuedOps > 0 {
				speedup = res.OpsThroughput / queuedOps
			}
			readTable.AddRowf(shards, path, res.AckedWrites, res.Gets,
				float64(res.Wall.Milliseconds()), res.OpsThroughput, speedup)
		}
	}
	return []*stats.Table{clientsTable, shardsTable, readTable}
}

// Ackpipe is the commit-pipeline A/B: one shard, commit-latency-bound
// (MaxBatch < clients, 2ms modeled media commit), sweeping the pipeline
// window × ack policy. Under ack-on-durable, window 1 is the serial
// baseline — one commit in flight, one batch per 2ms — and deeper windows
// overlap successive commits' media time, so both throughput and the
// client-observed ack p50 should improve close to linearly until the
// batch supply runs out. Under ack-on-apply the ack latency decouples
// from media entirely (sub-millisecond p50 regardless of window); the
// window then only shapes how far durability lags the acks.
func Ackpipe(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 20 {
		ops = 20
	}
	table := stats.NewTable("ackpipe: commit pipeline window x ack policy (1 shard, 64 clients, 2ms media commit)",
		"ack policy", "window", "acked writes", "snapshots", "wall ms", "writes/s", "p50 ack ms", "p99 ack ms", "speedup")
	var base float64
	for _, apply := range []bool{false, true} {
		policy := "durable"
		if apply {
			policy = "apply"
		}
		for _, window := range []int{1, 2, 4} {
			res, err := RunLoad(LoadSpec{
				Clients:            64,
				OpsPerClient:       ops,
				ValueBytes:         64,
				GetEveryN:          4,
				MaxBatch:           16,
				MaxDelay:           2 * time.Millisecond,
				CommitLatency:      2 * time.Millisecond,
				MaxInflightCommits: window,
				AckOnApply:         apply,
			})
			if err != nil {
				panic(fmt.Sprintf("benchkit: ackpipe (%s, window %d): %v", policy, window, err))
			}
			if !apply && window == 1 {
				base = res.Throughput
			}
			speedup := 0.0
			if base > 0 {
				speedup = res.Throughput / base
			}
			table.AddRowf(policy, window, res.AckedWrites, res.GroupCommits,
				float64(res.Wall.Milliseconds()), res.Throughput,
				float64(res.AckP50.Microseconds())/1e3,
				float64(res.AckP99.Microseconds())/1e3, speedup)
		}
	}
	return []*stats.Table{table}
}
