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
	"pax/internal/epochlog"
	"pax/internal/faultfs"
	"pax/internal/server"
	"pax/internal/stats"
	"pax/internal/workload"
)

// This file is the serving-layer load generator: instead of driving a
// fixture single-threaded like the paper experiments, it stands up the
// paxserve group-commit engine over fresh pools and hammers it with
// concurrent client goroutines, measuring how many individually-acked
// durable writes each snapshot amortizes — and, with Shards > 1, how
// partition-parallel group commit scales throughput. Every run, whatever it
// does to the fleet in the middle, goes through the one runner, RunScript.

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
	MaxBatch  int
	// Shards partitions the keyspace across N independent pools, each with
	// its own writer loop and device, so N group commits run in parallel
	// (default 1 — the single-writer engine).
	Shards int
	// PoolDir is where the run's pool files go (a fresh layout per run,
	// left there afterwards). Empty puts them in a temporary directory that
	// the run removes. Every run is file-backed: each commit is a delta
	// append and an fsync.
	PoolDir string
	// DataSize overrides the per-shard vPM data region in bytes (default
	// 32 MiB). The pool-size sweep holds the workload fixed and grows this:
	// a delta commit's cost must not grow with it.
	DataSize uint64
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
	// shard 0 after that many successful fsyncs of its epoch-log segments
	// (a commit's, and a segment roll's header), through a faultfs: every
	// later persist fails, commit retries exhaust, and the shard seals
	// fail-stop mid-run. Client errors are then expected (the client stops,
	// the run continues), and the run ends with Crash() instead of Close() —
	// a simulated kill, so what the black box captured is exactly what a
	// postmortem would find.
	FailSyncsAfter int
}

// Act is what a run does to the fleet between its two measured phases. A run
// with an act measures twice — the same traffic before and after — and ends
// in a crash, a reopen of whatever layout is on disk, and a count of lost
// keys instead of an orderly Close.
type Act int

const (
	// NoAct measures once and closes.
	NoAct Act = iota
	// SplitAct splits the hottest shard live (ShardedEngine.Split(-1)).
	SplitAct
	// AutopilotAct starts the reshard policy and floods until it splits on
	// its own; after the second phase the run idles until the policy has
	// merged the fleet back to its starting size.
	AutopilotAct
)

// actNames are an act's name in refusals and in its records' phase tags
// ("pre-split" / "post-autosplit"); both are read outside this package.
var actNames = [...]struct{ load, phase string }{
	SplitAct:     {"split", "split"},
	AutopilotAct: {"autopilot", "autosplit"},
}

// LoadResult summarizes one measured phase of a run.
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
	// commit window and the persist with its media sync — the latency a
	// serving client actually experiences, as opposed to the
	// server-side per-stage histograms in the metrics registry.
	AckP50, AckP95, AckP99 time.Duration
	// Metrics is the merged engine+pool metrics summary (per-shard gauges
	// carry a {shard="K"} suffix; plain names are cross-shard sums), sampled
	// when the phase was folded: after Close for a run without an act, on the
	// live fleet otherwise.
	Metrics stats.Summary
	// PoolBytes is the per-shard media size.
	PoolBytes int64
	// CommitP50Bytes/CommitP99Bytes are per-commit persisted-bytes quantiles
	// as the serving engine observed them since the fleet opened
	// (paxserve_epoch_delta_bytes, which excludes the one-time pool-format
	// sync): the delta records, O(dirty). They come from a log-bucketed
	// histogram, so each is the matching bucket's upper bound — up to ~3%
	// above the true value. CommitMeanBytes has no such error: it is the
	// histogram's exact sum/count. WriteAmplification is CommitMeanBytes
	// divided by the pool size — the fraction of the pool each commit
	// rewrites.
	CommitP50Bytes     float64
	CommitP99Bytes     float64
	CommitMeanBytes    float64
	WriteAmplification float64
	// PerShard breaks the phase down by shard (from the merged {shard="K"}
	// metrics): acked ops, queue pressure, and client-observed ack tail per
	// shard. ShardImbalance is max/mean per-shard acked ops — 1.0 is perfect
	// balance, and under zipfian skew it is the recorded size of the
	// hot-shard problem. HotShard is the argmax.
	PerShard       []ShardLoad
	ShardImbalance float64
	HotShard       int
	// Phase tags the result within a run that acted on the fleet ("pre-split"
	// / "post-split", "pre-autosplit" / "post-autosplit"); empty otherwise.
	// RunScript returns the post-act phase, with the pre-act one at Pre and
	// what the act did — and whether the crash check passed — at Split or
	// Autopilot.
	Phase     string
	Pre       *LoadResult
	Split     *SplitJSON
	Autopilot *AutopilotJSON
}

// ShardLoad is one shard's share of a phase.
type ShardLoad struct {
	Shard int `json:"shard"`
	// AckedOps is the shard's acked writes plus served GETs.
	AckedOps uint64 `json:"acked_ops"`
	// EnqueueWaitP99Micros is the shard's server-side enqueue-wait p99 since
	// the fleet opened — how long requests sat blocked on a full queue, the
	// first symptom of a hot shard.
	EnqueueWaitP99Micros float64 `json:"enqueue_wait_p99_us"`
	// AckP99Micros is the client-observed per-write ack p99 for writes routed
	// to this shard.
	AckP99Micros float64 `json:"ack_p99_us"`
}

// LoadJSON is the machine-readable form of a LoadResult — what
// `paxbench -loadgen -format json` emits so the perf trajectory is tracked
// across PRs.
type LoadJSON struct {
	Shards            int     `json:"shards"`
	Clients           int     `json:"clients"`
	OpsPerClient      int     `json:"ops_per_client"`
	MaxBatch          int     `json:"max_batch"`
	ReadRatio         float64 `json:"read_ratio"`
	AckedWrites       uint64  `json:"acked_writes"`
	Gets              uint64  `json:"gets"`
	Snapshots         uint64  `json:"snapshots"`
	BatchMax          uint64  `json:"batch_max"`
	Amortization      float64 `json:"amortization"`
	WallMillis        float64 `json:"wall_ms"`
	AckedWritesPerSec float64 `json:"acked_writes_per_sec"`
	AckedOpsPerSec    float64 `json:"acked_ops_per_sec"`
	AckP50Micros      float64 `json:"ack_p50_us"`
	AckP95Micros      float64 `json:"ack_p95_us"`
	AckP99Micros      float64 `json:"ack_p99_us"`
	// Commit-cost fields: the per-shard pool size, per-commit persisted
	// bytes, and the mean fraction of the pool rewritten per commit.
	// commit_p50_bytes/commit_p99_bytes are log-bucket upper bounds (up to
	// ~3% above the true value); commit_mean_bytes is exact (histogram
	// sum/count), so use it when the absolute byte count matters.
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
	// Phase, Split and Autopilot are set only on the records of a run that
	// acted on the fleet: which side of the act this record measures and, on
	// the post record, what moved (Split) or what the policy did unprompted
	// (Autopilot), each with the crash+reopen verdict.
	Phase     string         `json:"phase,omitempty"`
	Split     *SplitJSON     `json:"split,omitempty"`
	Autopilot *AutopilotJSON `json:"autopilot,omitempty"`
	// Blackbox is whether the run journaled to a crash black box — the A/B
	// axis for the journaling-overhead bound. FailSyncsAfter echoes the
	// chaos fault injection (0 = healthy run).
	Blackbox       bool `json:"blackbox"`
	FailSyncsAfter int  `json:"fail_syncs_after,omitempty"`
}

// JSON converts one phase to its machine-readable record.
func (r LoadResult) JSON() LoadJSON {
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
		Shards:             r.Spec.Shards,
		Clients:            r.Spec.Clients,
		OpsPerClient:       r.Spec.OpsPerClient,
		MaxBatch:           r.Spec.MaxBatch,
		ReadRatio:          r.Spec.ReadRatio,
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
		Phase:              r.Phase,
		Split:              r.Split,
		Autopilot:          r.Autopilot,
		Blackbox:           r.Spec.Blackbox,
		FailSyncsAfter:     r.Spec.FailSyncsAfter,
	}
}

// Phases lists a run's measured phases in order: the result itself, preceded
// by its pre-act phase when the run acted on the fleet.
func (r LoadResult) Phases() []LoadResult {
	if r.Pre != nil {
		return []LoadResult{*r.Pre, r}
	}
	return []LoadResult{r}
}

// defaultZipfS is the zipfian exponent used when Dist is "zipf" and ZipfS is
// unset — skewed enough that one shard's slots clearly dominate, mild enough
// that every shard still sees traffic (the YCSB constant is 0.99 for its
// scrambled variant; rand.Zipf's unscrambled form wants s > 1).
const defaultZipfS = 1.2

// sharedKey names key i of the shared keyspace.
func sharedKey(i uint64) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// validate refuses a spec the runner cannot execute, or whose result would
// not mean what its record says.
func (spec LoadSpec) validate(act Act) error {
	if spec.Clients <= 0 || spec.OpsPerClient <= 0 {
		return fmt.Errorf("benchkit: loadgen needs clients and ops, got %+v", spec)
	}
	if spec.ReadRatio < 0 || spec.ReadRatio >= 1 {
		return fmt.Errorf("benchkit: read ratio %v must be in [0, 1)", spec.ReadRatio)
	}
	if spec.Keys == 0 {
		// "uniform" and "fixed" are what private-key clients do anyway (and
		// paxbench's flag defaults), so only a real shape needs the keyspace.
		shaped := (spec.Dist != "" && spec.Dist != "uniform") || (spec.ValueDist != "" && spec.ValueDist != "fixed")
		if shaped || spec.ZipfS != 0 || spec.RMWRatio != 0 {
			return fmt.Errorf("benchkit: Dist/ZipfS/RMWRatio/ValueDist shape the shared keyspace; set Keys > 0")
		}
	} else {
		switch spec.Dist {
		case "", "uniform", "zipf":
		default:
			return fmt.Errorf("benchkit: key distribution %q (want uniform or zipf)", spec.Dist)
		}
		if spec.Dist == "zipf" && spec.ZipfS != 0 && spec.ZipfS <= 1 {
			return fmt.Errorf("benchkit: zipf exponent %v must be > 1", spec.ZipfS)
		}
		if spec.RMWRatio < 0 || spec.RMWRatio > 1 {
			return fmt.Errorf("benchkit: RMW ratio %v must be in [0, 1]", spec.RMWRatio)
		}
		switch spec.ValueDist {
		case "", "fixed", "uniform":
		default:
			return fmt.Errorf("benchkit: value distribution %q (want fixed or uniform)", spec.ValueDist)
		}
	}
	if spec.Blackbox && spec.PoolDir == "" {
		// The journal is read after the run; a temporary directory would be
		// gone by then.
		return fmt.Errorf("benchkit: Blackbox journals to a directory; set PoolDir")
	}
	if act == NoAct {
		return nil
	}
	// An act is judged by the keyspace that survives the crash: private keys
	// have no keyspace to count.
	name := actNames[act].load
	if spec.Keys == 0 {
		return fmt.Errorf("benchkit: %s load needs Keys > 0, got %+v", name, spec)
	}
	return nil
}

// loadRun is what one run carries from open to teardown.
type loadRun struct {
	eng   *server.ShardedEngine
	path  string // the fleet's pool path, under PoolDir or a temporary directory
	opts  pax.Options
	cfg   server.Config
	value []byte // every written value is a prefix of this

	bbStop  func() // non-nil while a black box is attached
	bb      *blackbox.Journal
	stopped bool

	pilot *server.Autopilot // started by autosplit, consulted again by automerge
}

// RunScript is the load runner. Every run follows one script over fresh pool
// files (one per shard, under spec.PoolDir or a temporary directory removed
// on every return):
//
//	open → preload (shared keyspace only) → measure → [act → measure] →
//	close, or crash → reopen → verify
//
// Without an act the run measures one phase and closes (a FailSyncsAfter run
// is killed instead, so its black box reads as a crash would leave it). With
// one, the same traffic is measured again on the reshaped fleet — reseeded,
// so the second phase draws a fresh sample of the same distribution rather
// than replaying identical key sequences against warm state — and the run
// ends in crashVerify: every key of the keyspace must survive. The returned
// result is the last measured phase; see LoadResult.Phase for the rest.
func RunScript(spec LoadSpec, act Act) (LoadResult, error) {
	if err := spec.validate(act); err != nil {
		return LoadResult{}, err
	}
	if spec.ValueBytes <= 0 {
		spec.ValueBytes = 64
	}
	if spec.Shards <= 0 {
		spec.Shards = 1
	}
	dir := spec.PoolDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pax-load-*")
		if err != nil {
			return LoadResult{}, fmt.Errorf("benchkit: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	r, err := openFleet(spec, act, filepath.Join(dir, "load.pool"))
	if err != nil {
		return LoadResult{}, err
	}
	defer r.stop(false) // error paths; a no-op once the script has stopped the fleet itself
	if spec.Keys > 0 {
		if err := r.preload(spec); err != nil {
			return LoadResult{}, err
		}
	}
	chaos := spec.FailSyncsAfter > 0
	if chaos {
		// Injected after the preload so the fill always lands: shard 0's
		// epoch log starts refusing fsyncs partway through the measured
		// phase, its commit retries exhaust, and it seals fail-stop.
		r.opts.FS.(*faultfs.FS).Set(faultfs.FailSyncsAfter(faultfs.In(server.ShardPath(r.path, 0)+epochlog.DirSuffix),
			spec.FailSyncsAfter, ErrInjectedFault))
	}
	ph, err := r.measure(spec)
	if err != nil {
		return LoadResult{}, err
	}
	if act == NoAct {
		// Simulated kill under chaos: no orderly close, no shutdown marker.
		// Everything a postmortem needs is already on disk — the journal
		// fsyncs each append — so the black box is read back exactly as a
		// crash would leave it (stopping the sampler only adds the
		// tail-window snapshot, which a periodic tick would have written
		// anyway). The sealed shard's teardown error is the experiment.
		if err := r.stop(chaos); err != nil && !chaos {
			return LoadResult{}, err
		}
		return r.fold(ph)
	}

	pre, err := r.fold(ph)
	if err != nil {
		return LoadResult{}, err
	}
	pre.Phase = "pre-" + actNames[act].phase
	var (
		split *SplitJSON
		pilot *AutopilotJSON
	)
	if act == SplitAct {
		split, err = r.split()
	} else {
		pilot, err = r.autosplit(spec)
	}
	if err != nil {
		return LoadResult{}, err
	}
	spec.Seed += 7919
	spec.Shards = r.eng.NumShards()
	if ph, err = r.measure(spec); err != nil {
		return LoadResult{}, err
	}
	res, err := r.fold(ph)
	if err != nil {
		return LoadResult{}, err
	}
	res.Phase, res.Pre, res.Split, res.Autopilot = "post-"+actNames[act].phase, &pre, split, pilot
	if pilot != nil {
		if err := r.automerge(pilot); err != nil {
			return LoadResult{}, err
		}
	}
	shards, lost, err := r.crashVerify(spec.Keys)
	if err != nil {
		return LoadResult{}, err
	}
	if split != nil {
		split.LostKeys, split.CrashVerified = lost, lost == 0
	} else {
		pilot.EndShards, pilot.LostKeys, pilot.CrashVerified = shards, lost, lost == 0
	}
	return res, nil
}

// openFleet creates the run's fresh fleet at path and attaches the black box.
func openFleet(spec LoadSpec, act Act, path string) (*loadRun, error) {
	r := &loadRun{
		path:  path,
		opts:  pax.Options{DataSize: 32 << 20, LogSize: 16 << 20, HBMSize: 16 << 20, Overwrite: true},
		cfg:   server.Config{MaxBatch: spec.MaxBatch},
		value: make([]byte, spec.ValueBytes),
	}
	for i := range r.value {
		r.value[i] = byte('a' + i%26)
	}
	if spec.DataSize > 0 {
		r.opts.DataSize = spec.DataSize
	}
	if spec.FailSyncsAfter > 0 {
		r.opts.FS = faultfs.New(nil)
	}
	if act == AutopilotAct {
		// A shallow queue makes hot-shard saturation visible where the policy
		// looks for it: durable writers pile into the enqueue path, so the hot
		// shard's windowed enqueue-wait p99 rises well above the cold shards'.
		r.cfg.QueueDepth = 8
	}
	eng, err := server.OpenSharded(r.path, spec.Shards, r.opts, 0, r.cfg)
	if err != nil {
		return nil, err
	}
	r.eng = eng
	if spec.Blackbox {
		j, err := blackbox.Open(blackbox.Config{Dir: r.path + blackbox.DirSuffix})
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("benchkit: blackbox: %w", err)
		}
		iv := spec.BlackboxInterval
		if iv <= 0 {
			iv = 250 * time.Millisecond
		}
		r.bb, r.bbStop = j, server.AttachBlackbox(eng, j, iv)
	}
	return r, nil
}

// stop takes the fleet down once — Crash for a simulated kill, else Close —
// and then releases the black box, so the journal's last record is whatever
// the teardown emitted. Later calls do nothing.
func (r *loadRun) stop(crash bool) error {
	if r.stopped {
		return nil
	}
	r.stopped = true
	var err error
	if crash {
		err = r.eng.Crash()
	} else {
		err = r.eng.Close()
	}
	if r.bbStop != nil {
		r.bbStop()
		if cerr := r.bb.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("benchkit: blackbox close: %w", cerr)
		}
	}
	return err
}

// crashVerify ends a run that acted on the fleet: Crash (no final commit),
// reopen whatever layout DiscoverShards finds, and count the keys of the
// shared keyspace that are gone. The preload was durable and every measured
// write was acked durable, so a miss is a lost acked write.
func (r *loadRun) crashVerify(keys uint64) (shards, lost int, err error) {
	if err := r.stop(true); err != nil {
		return 0, 0, fmt.Errorf("benchkit: crash: %w", err)
	}
	if shards, err = server.DiscoverShards(nil, r.path); err != nil {
		return 0, 0, fmt.Errorf("benchkit: rediscovering layout: %w", err)
	}
	// A fresh process after the crash: no fault armed.
	opts := r.opts
	opts.Overwrite, opts.FS = false, nil
	eng, err := server.OpenSharded(r.path, shards, opts, 0, r.cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("benchkit: reopening after crash: %w", err)
	}
	defer eng.Close()
	for i := uint64(0); i < keys; i++ {
		if _, ok, err := eng.Get(sharedKey(i)); err != nil || !ok {
			lost++
		}
	}
	return shards, lost, nil
}

// phase is one measured stretch of client traffic, not yet folded: what the
// clients observed, and the fleet's metrics as they stood when it began.
type phase struct {
	spec     LoadSpec
	wall     time.Duration
	ackLat   stats.LatencyHistogram   // lock-free by design, shared by every client
	shardAck []stats.LatencyHistogram // ackLat split by the shard that served the write
	before   stats.Summary
}

// measure runs spec.Clients clients to completion against the live fleet.
// The metrics sampled first are what fold subtracts, so a phase's counters
// cover only its own traffic — not the preload's fill, not an earlier
// phase, not a migration. (The registry's latency and size quantiles cannot
// be differenced and stay cumulative.)
func (r *loadRun) measure(spec LoadSpec) (*phase, error) {
	before, err := r.eng.Metrics()
	if err != nil {
		return nil, err
	}
	ph := &phase{
		spec:     spec,
		shardAck: make([]stats.LatencyHistogram, r.eng.NumShards()),
		before:   before,
	}
	errs := make(chan error, spec.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.client(spec, c, &ph.ackLat, ph.shardAck, errs)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return ph, nil
}

// fold turns a measured phase into its LoadResult: the fleet's counters now
// minus the counters at phase start, the clients' own ack histograms, and
// the per-shard breakdown with its imbalance summary (max/mean acked ops;
// 1.0 = perfectly balanced). It samples the fleet when called, which for a
// run without an act is after Close — the final drain commit is counted.
func (r *loadRun) fold(ph *phase) (LoadResult, error) {
	metrics, err := r.eng.Metrics()
	if err != nil {
		return LoadResult{}, err
	}
	delta := metrics.Diff(ph.before)
	// writes is the write acks of this phase, fleet-wide ("") or for one
	// {shard="K"} label: one per write, counted at its commit.
	writes := func(lbl string) float64 {
		return delta["paxserve_acked_writes"+lbl]
	}
	ack := ph.ackLat.Snapshot()
	res := LoadResult{
		Spec:           ph.spec,
		AckedWrites:    uint64(writes("")),
		Gets:           uint64(delta["paxserve_gets"]),
		GroupCommits:   uint64(delta["paxserve_group_commits"]),
		BatchMax:       r.eng.AggregateStats().BatchMax,
		Wall:           ph.wall,
		Metrics:        metrics,
		AckP50:         time.Duration(ack.Quantile(0.50)),
		AckP95:         time.Duration(ack.Quantile(0.95)),
		AckP99:         time.Duration(ack.Quantile(0.99)),
		PoolBytes:      int64(r.eng.MediaSize()),
		CommitP50Bytes: metrics[`paxserve_epoch_delta_bytes{q="p50"}`],
		CommitP99Bytes: metrics[`paxserve_epoch_delta_bytes{q="p99"}`],
		PerShard:       make([]ShardLoad, len(ph.shardAck)),
	}
	if res.GroupCommits > 0 {
		res.Amortization = float64(res.AckedWrites) / float64(res.GroupCommits)
	}
	if n := metrics["paxserve_epoch_delta_bytes_count"]; n > 0 {
		res.CommitMeanBytes = metrics["paxserve_epoch_delta_bytes_sum"] / n
		res.WriteAmplification = res.CommitMeanBytes / float64(res.PoolBytes)
	}
	if ph.wall > 0 {
		res.Throughput = float64(res.AckedWrites) / ph.wall.Seconds()
		res.OpsThroughput = float64(res.AckedWrites+res.Gets) / ph.wall.Seconds()
	}
	var sum, max float64
	for k := range res.PerShard {
		lbl := fmt.Sprintf("{shard=%q}", strconv.Itoa(k))
		acked := writes(lbl) + delta["paxserve_gets"+lbl]
		snap := ph.shardAck[k].Snapshot()
		res.PerShard[k] = ShardLoad{
			Shard:                k,
			AckedOps:             uint64(acked),
			EnqueueWaitP99Micros: metrics[fmt.Sprintf(`paxserve_enqueue_wait_ns{q="p99",shard=%q}`, strconv.Itoa(k))] / 1e3,
			AckP99Micros:         float64(snap.Quantile(0.99)) / 1e3,
		}
		sum += acked
		if acked > max {
			max, res.HotShard = acked, k
		}
	}
	if sum > 0 {
		res.ShardImbalance = max / (sum / float64(len(res.PerShard)))
	}
	return res, nil
}

// preload writes the whole shared keyspace before the measured phase, so
// measured reads always hit and the imbalance numbers reflect steady-state
// traffic, not fill: durable puts fanned across the clients' worth of
// goroutines, so they share group commits and the measured phase starts
// from a clean epoch.
func (r *loadRun) preload(spec LoadSpec) error {
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
				if _, err := r.eng.Put(sharedKey(i), r.value); err != nil {
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
		return nil
	}
}

// client is one measured-phase client: OpsPerClient ops, ReadRatio of them
// GETs, in a deterministic interleave. With a shared keyspace reads and
// writes both draw keys from the same sampler (read skew matches write skew
// — a hot key is hot on both paths), RMWRatio of the writes are
// read-modify-writes (the ack time then includes the read), and ValueDist
// sizes each value. Without one the client writes its own key sequence and
// reads back keys it already wrote, so every read hits with realistic reuse.
// It sends at most one error.
func (r *loadRun) client(spec LoadSpec, c int, ackLat *stats.LatencyHistogram, shardAck []stats.LatencyHistogram, errs chan<- error) {
	// sampler draws shared-keyspace keys (workload.Zipf or workload.Uniform);
	// nil means private keys.
	var sampler interface{ Next() uint64 }
	if spec.Keys > 0 {
		seed := spec.Seed*1_000_003 + int64(c)*2_654_435_761 + 1
		if spec.Dist == "zipf" {
			s := spec.ZipfS
			if s == 0 {
				s = defaultZipfS
			}
			sampler = workload.NewZipf(spec.Keys, s, seed)
		} else {
			sampler = workload.NewUniform(spec.Keys, seed)
		}
	}
	var (
		readAcc, rmwAcc float64                            // error-diffusion accumulators, deterministic per client
		wrote           int                                // private keys this client has written so far
		rng             = uint32(2654435761 * uint64(c+1)) // per-client LCG: private read picks, value sizes
	)
	// fail reports what stopped the client — unless a fault was injected:
	// then errors are the experiment (the sealed shard refuses this client's
	// ops) and the client just stops.
	fail := func(err error) {
		if spec.FailSyncsAfter == 0 {
			errs <- fmt.Errorf("client %d: %w", c, err)
		}
	}
	for op := 0; op < spec.OpsPerClient; op++ {
		readAcc += spec.ReadRatio
		if readAcc >= 1 && (sampler != nil || wrote > 0) {
			readAcc--
			var key []byte
			if sampler != nil {
				key = sharedKey(sampler.Next())
			} else {
				rng = rng*1664525 + 1013904223
				key = []byte(fmt.Sprintf("c%04d-%06d", c, int(rng)%wrote))
			}
			if _, ok, err := r.eng.Get(key); err != nil || !ok {
				fail(fmt.Errorf("read %s: ok=%v err=%v", key, ok, err))
				return
			}
			continue
		}
		var key []byte
		if sampler != nil {
			key = sharedKey(sampler.Next())
		} else {
			key = []byte(fmt.Sprintf("c%04d-%06d", c, wrote))
			wrote++
		}
		v := r.value
		if spec.ValueDist == "uniform" {
			rng = rng*1664525 + 1013904223
			v = v[:1+int(rng%uint32(len(v)))]
		}
		rmw := false
		if rmwAcc += spec.RMWRatio; rmwAcc >= 1 {
			rmwAcc--
			rmw = true
		}
		// Attribute the ack to the shard that serves it, by the engine's own
		// routing at issue time — the hot shard's tail is the split A/B's
		// before/after number.
		shard := r.eng.ShardFor(key)
		t0 := time.Now()
		if rmw {
			if _, ok, err := r.eng.Get(key); err != nil || !ok {
				fail(fmt.Errorf("rmw-read %s: ok=%v err=%v", key, ok, err))
				return
			}
		}
		if _, err := r.eng.Put(key, v); err != nil {
			fail(fmt.Errorf("op %d: %w", op, err))
			return
		}
		d := time.Since(t0).Nanoseconds()
		ackLat.Observe(d)
		shardAck[shard].Observe(d)
		if spec.ReadRatio == 0 && spec.GetEveryN > 0 && op%spec.GetEveryN == spec.GetEveryN-1 {
			if _, ok, err := r.eng.Get(key); err != nil || !ok {
				fail(fmt.Errorf("read-back %s: ok=%v err=%v", key, ok, err))
				return
			}
		}
	}
}

// EpochStoreAmplification measures what the epoch store buys: the same
// fixed workload (192 PUTs in 16-write epochs) over growing file-backed
// pools, bytes persisted per commit. Delta commits stay O(dirty) — flat
// across the sweep. Beside them, the "full-image" column is the per-commit
// cost of republishing the whole pool, the store this one replaced: it is
// the pool's media size by definition (amplification 1.0), so it is computed,
// not run.
func EpochStoreAmplification(cfg Config, sz Sizes) []*stats.Table {
	poolMiB := []int{64, 128, 256}
	if sz.MeasureOps < 10_000 {
		poolMiB = []int{16, 32, 64} // quick scale: smaller checkpoint files
	}
	table := stats.NewTable("epoch store: per-commit persisted bytes vs pool size (192 PUTs, 16 per epoch, file-backed)",
		"pool MiB", "commits", "p50 KiB/commit", "p99 KiB/commit", "amplification", "full-image KiB/commit")
	for _, mib := range poolMiB {
		commits, poolBytes, err := persistedBytesPerEpoch(mib)
		if err != nil {
			panic(fmt.Sprintf("benchkit: epoch-store sweep (%d MiB): %v", mib, err))
		}
		table.AddRowf(mib, commits.Count(),
			float64(commits.Quantile(0.50))/1024, float64(commits.Quantile(0.99))/1024,
			commits.Mean()/float64(poolBytes), float64(poolBytes)/1024)
	}
	return []*stats.Table{table}
}

// persistedBytesPerEpoch runs the epoch-store workload on one fresh
// file-backed pool and returns the per-Persist byte counts (a size histogram
// on the latency machinery, like paxserve_epoch_delta_bytes) and the pool's
// media size.
func persistedBytesPerEpoch(poolMiB int) (*stats.LatencyHistogram, int, error) {
	dir, err := os.MkdirTemp("", "pax-epochstore-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	pool, err := pax.CreatePool(filepath.Join(dir, "es.pool"), pax.Options{
		DataSize: uint64(poolMiB) << 20, LogSize: 16 << 20, HBMSize: 16 << 20,
	})
	if err != nil {
		return nil, 0, err
	}
	defer pool.Close()
	m, err := pax.NewMap(pool, 0)
	if err != nil {
		return nil, 0, err
	}
	value := make([]byte, 64)
	var commits stats.LatencyHistogram
	for i := 0; i < 192; i++ {
		if err := m.Put([]byte(fmt.Sprintf("es-%06d", i)), value); err != nil {
			return nil, 0, err
		}
		if i%16 == 15 {
			st, err := pool.Persist()
			if err != nil {
				return nil, 0, err
			}
			commits.Observe(st.PersistedBytes)
		}
	}
	return &commits, pool.MediaSize(), nil
}

// Loadgen is the experiment wrapper: sweep client counts (amortization vs
// concurrency on one shard), then shard counts and a GET-heavy mix. Every
// run is on pool files, where each group commit is a real delta append and
// fsync. The last two report what the medium gives; they assert no speedup —
// on a host with few cores and one disk, shards share both.
func Loadgen(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 20 {
		ops = 20
	}
	clientsTable := stats.NewTable("loadgen: group-commit serving vs client count",
		"clients", "acked writes", "snapshots", "writes/snapshot", "max batch", "wall ms", "writes/s")
	for _, clients := range []int{1, 4, 16, 64, 128} {
		res, err := RunScript(LoadSpec{
			Clients:      clients,
			OpsPerClient: ops,
			ValueBytes:   64,
			GetEveryN:    4,
			MaxBatch:     128,
		}, NoAct)
		if err != nil {
			panic(fmt.Sprintf("benchkit: loadgen with %d clients: %v", clients, err))
		}
		clientsTable.AddRowf(clients, res.AckedWrites, res.GroupCommits,
			res.Amortization, res.BatchMax,
			float64(res.Wall.Milliseconds()), res.Throughput)
	}

	shardsTable := stats.NewTable("loadgen: sharded serving vs shard count (256 clients, file-backed)",
		"shards", "acked writes", "snapshots", "writes/snapshot", "wall ms", "writes/s", "vs 1 shard", "p99 ack ms")
	var base float64
	for _, shards := range []int{1, 2, 4} {
		res, err := RunScript(LoadSpec{
			Clients:      256,
			OpsPerClient: ops,
			ValueBytes:   64,
			GetEveryN:    4,
			MaxBatch:     16,
			Shards:       shards,
		}, NoAct)
		if err != nil {
			panic(fmt.Sprintf("benchkit: loadgen with %d shards: %v", shards, err))
		}
		if shards == 1 {
			base = res.Throughput
		}
		ratio := 0.0
		if base > 0 {
			ratio = res.Throughput / base
		}
		shardsTable.AddRowf(shards, res.AckedWrites, res.GroupCommits,
			res.Amortization, float64(res.Wall.Milliseconds()), res.Throughput, ratio,
			float64(res.AckP99.Microseconds())/1e3)
	}

	// The GET-heavy sweep: 95% GETs served from the volatile read index while
	// writes commit behind them. Its other arm — every GET queued through the
	// writer loop, the engine before commit e7f5f0a — lost 4.7× at 4 shards
	// and has been deleted; EXPERIMENTS.md keeps the recorded A/B.
	readTable := stats.NewTable("loadgen: GET-heavy (read-ratio 0.95, 128 clients, file-backed)",
		"shards", "acked writes", "gets", "wall ms", "ops/s")
	for _, shards := range []int{1, 4} {
		res, err := RunScript(LoadSpec{
			Clients:      128,
			OpsPerClient: ops * 2,
			ValueBytes:   64,
			ReadRatio:    0.95,
			MaxBatch:     16,
			Shards:       shards,
		}, NoAct)
		if err != nil {
			panic(fmt.Sprintf("benchkit: GET-heavy loadgen (%d shards): %v", shards, err))
		}
		readTable.AddRowf(shards, res.AckedWrites, res.Gets,
			float64(res.Wall.Milliseconds()), res.OpsThroughput)
	}
	return []*stats.Table{clientsTable, shardsTable, readTable}
}
