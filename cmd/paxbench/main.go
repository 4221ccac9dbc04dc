// Command paxbench regenerates every table and figure of the paper's
// evaluation (and this repository's ablations) on the simulator.
//
// Usage:
//
//	paxbench -list
//	paxbench -experiment fig2a            # one experiment, paper scale
//	paxbench -experiment all -scale quick # everything, small and fast
//	paxbench -loadgen -clients 64 -ops 200 # serving-layer load generator
//	paxbench -loadgen -shards 1,2,4,8 -format json -out BENCH_loadgen.json
//	paxbench -loadgen -read-ratio 0.9      # GET-heavy mix on the read index
//	paxbench -loadgen -read-ratio 0.9 -queued-reads # same mix, pre-index path
//	paxbench -loadgen -ack-policy both -inflight 1,2,4 # ack policy x pipeline window
//
// Scales: "paper" uses a hash table far larger than the simulated LLC and
// 100k measured operations per system; "quick" is a seconds-long smoke run.
//
// -loadgen drives the paxserve group-commit engine with concurrent clients,
// sweeping the comma-separated -shards counts. By default the run is
// commit-latency-bound: -commit-latency models the real-time cost of an
// epoch commit on the backing medium (an msync-class sync; the in-memory
// simulator would otherwise commit at host-CPU speed), so a single pool has
// one commit in flight at a time and the sweep measures how sharding
// overlaps that latency. -read-ratio mixes GETs into the workload (0.9 models
// a read-heavy serving tier); GETs are served from the engine's volatile read
// index unless -queued-reads routes them through the writer queue, which is
// the pre-index behavior kept as the read-path A/B baseline. -ack-policy
// selects how writes are acked — "durable" (ack when the group commit
// reaches media), "apply" (ack when applied and read-index-visible), or
// "both" to A/B them — and -inflight sweeps the commit-pipeline window
// (sealed epochs in flight per shard; 1 is the serial baseline). The default
// table output
// prints one row per shard count plus the merged metrics registry as
// `name value` lines (the same text the STATS wire request returns);
// -format json emits a machine-readable record array instead, and -out
// additionally writes that JSON to a file (e.g. BENCH_loadgen.json) so the
// perf trajectory is tracked across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pax/internal/benchkit"
	"pax/internal/stats"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		scale      = flag.String("scale", "paper", "run scale: quick | paper")
		list       = flag.Bool("list", false, "list experiments and exit")
		format     = flag.String("format", "table", "output format: table | csv")
		loadgen    = flag.Bool("loadgen", false, "run the serving-layer load generator and exit")
		clients    = flag.Int("clients", 256, "loadgen: concurrent clients")
		ops        = flag.Int("ops", 150, "loadgen: writes per client")
		maxBatch   = flag.Int("max-batch", 16, "loadgen: max writes per group commit")
		maxDelay   = flag.Duration("max-delay", 2*time.Millisecond, "loadgen: max wait for company while the commit pipeline is busy (or a commit takes this long)")
		commitLat  = flag.Duration("commit-latency", 2*time.Millisecond, "loadgen: modeled media latency per group commit (0 = simulator speed)")
		shards     = flag.String("shards", "1", "loadgen: comma-separated shard counts to sweep (e.g. 1,2,4,8)")
		readRatio  = flag.Float64("read-ratio", 0, "loadgen: fraction of ops issued as GETs against previously written keys (0 = write-heavy with periodic read-backs)")
		queued     = flag.Bool("queued-reads", false, "loadgen: serve GETs through the writer queue (pre-read-index behavior, the read-path A/B baseline)")
		poolDir    = flag.String("pool-dir", "", "loadgen: back the engines with pool files in this directory instead of in-memory devices (required for write-amplification sweeps)")
		dataSizes  = flag.String("data-sizes", "", "loadgen: comma-separated per-shard vPM data sizes in bytes to sweep (e.g. 67108864,134217728; empty = the 32 MiB default)")
		epochLog   = flag.Bool("epoch-log", false, "loadgen: persist commits through the log-structured delta epoch store instead of full-image republish")
		epochLogAB = flag.Bool("epoch-log-ab", false, "loadgen: run every configuration in both persist modes (full-image then delta), overriding -epoch-log")
		ackPol     = flag.String("ack-policy", "durable", "loadgen: ack policy to run: durable | apply | both")
		inflight   = flag.String("inflight", "0", "loadgen: comma-separated commit-pipeline windows to sweep (1 = serial baseline, 0 = engine default)")
		jsonOut    = flag.String("out", "", "loadgen: also write the JSON records to this file")
		keys       = flag.Uint64("keys", 0, "loadgen: shared keyspace size; > 0 switches clients from private keys to a preloaded shared keyspace (required for -dist/-rmw-ratio/-value-dist/-split)")
		dist       = flag.String("dist", "uniform", "loadgen: shared-keyspace key distribution: uniform | zipf")
		zipfS      = flag.Float64("zipf-s", 0, "loadgen: zipf skew exponent s (> 1; 0 = the 1.2 default)")
		rmwRatio   = flag.Float64("rmw-ratio", 0, "loadgen: fraction of ops issued as read-modify-writes (GET then PUT of the same key)")
		valueDist  = flag.String("value-dist", "fixed", "loadgen: value size distribution: fixed | uniform (1..value bytes)")
		seed       = flag.Int64("seed", 1, "loadgen: base RNG seed for shared-keyspace sampling")
		split      = flag.Bool("split", false, "loadgen: run the live-split A/B instead of the shard sweep: measure, split the hottest shard, measure again, then crash and verify no acked write was lost (needs -keys; uses the first -shards count, min 2)")
		autopilot  = flag.Bool("autopilot", false, "loadgen: run the reshard-autopilot A/B instead of the shard sweep: measure, flood until the policy splits on its own, measure again, idle until it merges back, then crash and verify (uses the first -shards count, min 2)")
		bbox       = flag.Bool("blackbox", false, "loadgen: journal lifecycle events and windowed metrics snapshots to <pool-dir>/load.pool.blackbox/ (requires -pool-dir; the A/B against the same run without it bounds journaling overhead)")
		failAfter  = flag.Int("fail-syncs-after", 0, "loadgen: inject a persistent media-sync fault into shard 0 after N successful syncs — the shard seals fail-stop and the run ends in a simulated crash (postmortem smoke harness)")
	)
	flag.Parse()

	if *loadgen {
		cfg := loadgenConfig{
			shardList:  *shards,
			clients:    *clients,
			ops:        *ops,
			maxBatch:   *maxBatch,
			maxDelay:   *maxDelay,
			commitLat:  *commitLat,
			readRatio:  *readRatio,
			queued:     *queued,
			poolDir:    *poolDir,
			dataSizes:  *dataSizes,
			epochLog:   *epochLog,
			epochLogAB: *epochLogAB,
			ackPolicy:  *ackPol,
			inflight:   *inflight,
			format:     *format,
			jsonOut:    *jsonOut,
			keys:       *keys,
			dist:       *dist,
			zipfS:      *zipfS,
			rmwRatio:   *rmwRatio,
			valueDist:  *valueDist,
			seed:       *seed,
			split:      *split,
			autopilot:  *autopilot,
			blackbox:   *bbox,
			failAfter:  *failAfter,
		}
		if err := runLoadgen(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "paxbench: loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Printf("%-10s %-12s %s\n", "ID", "PAPER", "DESCRIPTION")
		for _, e := range benchkit.Experiments() {
			fmt.Printf("%-10s %-12s %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}

	var sz benchkit.Sizes
	switch *scale {
	case "quick":
		sz = benchkit.QuickSizes()
	case "paper":
		sz = benchkit.PaperSizes()
	default:
		fmt.Fprintf(os.Stderr, "paxbench: unknown scale %q (quick|paper)\n", *scale)
		os.Exit(2)
	}
	cfg := benchkit.DefaultConfig()
	if *scale == "quick" {
		cfg = benchkit.TestConfig()
	}

	run := func(e benchkit.Experiment) {
		start := time.Now()
		fmt.Printf("=== %s (%s): %s\n", e.ID, e.Paper, e.Desc)
		for _, table := range e.Run(cfg, sz) {
			if *format == "csv" {
				fmt.Printf("# %s\n%s\n", table.Title, table.CSV())
			} else {
				fmt.Println(table.String())
			}
		}
		fmt.Printf("    [%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range benchkit.Experiments() {
			run(e)
		}
		return
	}
	e, ok := benchkit.Find(*experiment)
	if !ok {
		fmt.Fprintf(os.Stderr, "paxbench: unknown experiment %q (use -list)\n", *experiment)
		os.Exit(2)
	}
	run(e)
}

// loadgenConfig carries the -loadgen flag set.
type loadgenConfig struct {
	shardList  string
	clients    int
	ops        int
	maxBatch   int
	maxDelay   time.Duration
	commitLat  time.Duration
	readRatio  float64
	queued     bool
	poolDir    string
	dataSizes  string
	epochLog   bool
	epochLogAB bool
	ackPolicy  string
	inflight   string
	format     string
	jsonOut    string
	keys       uint64
	dist       string
	zipfS      float64
	rmwRatio   float64
	valueDist  string
	seed       int64
	split      bool
	autopilot  bool
	blackbox   bool
	failAfter  int
}

// runLoadgen sweeps persist mode × data size × shard count and reports each
// run, as a table plus metrics registry or as JSON records. With -split it
// instead runs the live-split A/B (pre-split phase, hot-shard split,
// post-split phase, crash + reopen verification).
func runLoadgen(cfg loadgenConfig) error {
	var counts []int
	for _, f := range strings.Split(cfg.shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -shards value %q (want positive ints like 1,2,4,8)", f)
		}
		counts = append(counts, n)
	}
	if cfg.split {
		return runSplit(cfg, counts[0])
	}
	if cfg.autopilot {
		return runAutopilot(cfg, counts[0])
	}
	sizes := []uint64{0} // 0 = RunLoad's 32 MiB default
	if cfg.dataSizes != "" {
		sizes = nil
		for _, f := range strings.Split(cfg.dataSizes, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil || n == 0 {
				return fmt.Errorf("bad -data-sizes value %q (want positive byte counts)", f)
			}
			sizes = append(sizes, n)
		}
	}
	modes := []bool{cfg.epochLog}
	if cfg.epochLogAB {
		modes = []bool{false, true}
	}
	var policies []bool // AckOnApply values to sweep
	switch cfg.ackPolicy {
	case "durable":
		policies = []bool{false}
	case "apply":
		policies = []bool{true}
	case "both":
		policies = []bool{false, true}
	default:
		return fmt.Errorf("bad -ack-policy %q (want durable, apply, or both)", cfg.ackPolicy)
	}
	var windows []int
	for _, f := range strings.Split(cfg.inflight, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return fmt.Errorf("bad -inflight value %q (want non-negative ints like 1,2,4; 0 = engine default)", f)
		}
		windows = append(windows, n)
	}
	var (
		records []benchkit.LoadJSON
		results []benchkit.LoadResult
	)
	for _, epochLog := range modes {
		for _, dataSize := range sizes {
			for _, apply := range policies {
				for _, window := range windows {
					for _, n := range counts {
						spec := benchkit.LoadSpec{
							Clients:            cfg.clients,
							OpsPerClient:       cfg.ops,
							ValueBytes:         64,
							ReadRatio:          cfg.readRatio,
							QueuedReads:        cfg.queued,
							MaxBatch:           cfg.maxBatch,
							MaxDelay:           cfg.maxDelay,
							Shards:             n,
							CommitLatency:      cfg.commitLat,
							PoolDir:            cfg.poolDir,
							DataSize:           dataSize,
							EpochLog:           epochLog,
							MaxInflightCommits: window,
							AckOnApply:         apply,
							Keys:               cfg.keys,
							Dist:               cfg.dist,
							ZipfS:              cfg.zipfS,
							RMWRatio:           cfg.rmwRatio,
							ValueDist:          cfg.valueDist,
							Seed:               cfg.seed,
							Blackbox:           cfg.blackbox,
							FailSyncsAfter:     cfg.failAfter,
						}
						if cfg.readRatio == 0 && cfg.keys == 0 {
							spec.GetEveryN = 4
						}
						res, err := benchkit.RunLoad(spec)
						if err != nil {
							return fmt.Errorf("%d shards (epochLog=%v, data=%d, apply=%v, inflight=%d): %w",
								n, epochLog, dataSize, apply, window, err)
						}
						records = append(records, res.JSON())
						results = append(results, res)
					}
				}
			}
		}
	}

	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if cfg.jsonOut != "" {
		if err := os.WriteFile(cfg.jsonOut, blob, 0o644); err != nil {
			return err
		}
	}
	if cfg.format == "json" {
		_, err := os.Stdout.Write(blob)
		return err
	}

	t := stats.NewTable("loadgen", "mode", "ack", "w", "pool MiB", "shards", "clients", "acked writes", "gets", "snapshots", "writes/snapshot", "max batch", "writes/s", "ops/s", "ack p50 ms", "ack p99 ms", "KiB/commit p99", "amp", "imbalance")
	for _, res := range results {
		mode := "full-image"
		if res.EpochLog {
			mode = "delta"
		}
		j := res.JSON()
		t.AddRowf(mode, j.AckPolicy, j.MaxInflightCommits, float64(res.PoolBytes)/(1<<20), j.Shards, res.Spec.Clients, res.AckedWrites, res.Gets, res.GroupCommits,
			res.Amortization, res.BatchMax, res.Throughput, res.OpsThroughput,
			float64(res.AckP50.Microseconds())/1e3, float64(res.AckP99.Microseconds())/1e3,
			res.CommitP99Bytes/1024, res.WriteAmplification, res.ShardImbalance)
	}
	fmt.Println(t.String())
	for _, res := range results {
		if len(res.PerShard) > 1 {
			fmt.Println(perShardTable(res).String())
		}
	}
	for _, res := range results {
		fmt.Printf("## metrics (%d shards)\n", res.JSON().Shards)
		if _, err := res.Metrics.WriteTo(os.Stdout); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

// perShardTable renders one run's per-shard load so hot-shard skew is
// visible without grepping the metrics registry.
func perShardTable(res benchkit.LoadResult) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("per-shard load (%d shards, imbalance %.2f, hot shard %d)",
		res.Spec.Shards, res.ShardImbalance, res.HotShard),
		"shard", "acked ops", "ack p99 ms", "enqueue wait p99 ms")
	for _, s := range res.PerShard {
		t.AddRowf(s.Shard, s.AckedOps, s.AckP99Micros/1e3, s.EnqueueWaitP99Micros/1e3)
	}
	return t
}

// runSplit drives the live-split A/B: a zipfian-skewed shared keyspace on a
// file-backed sharded engine, split the hottest shard mid-run, and prove
// via crash + reopen that no acked write was lost.
func runSplit(cfg loadgenConfig, shards int) error {
	if shards < 2 {
		shards = 2
	}
	dir := cfg.poolDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "paxbench-split-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	keys := cfg.keys
	if keys == 0 {
		keys = 10_000
	}
	dist := cfg.dist
	if dist == "uniform" {
		dist = "zipf" // the A/B is about skew; an explicit -dist zipf is the expected call
	}
	spec := benchkit.LoadSpec{
		Clients:       cfg.clients,
		OpsPerClient:  cfg.ops,
		ValueBytes:    64,
		ReadRatio:     cfg.readRatio,
		QueuedReads:   cfg.queued,
		MaxBatch:      cfg.maxBatch,
		MaxDelay:      cfg.maxDelay,
		Shards:        shards,
		CommitLatency: cfg.commitLat,
		PoolDir:       dir,
		EpochLog:      cfg.epochLog,
		Keys:          keys,
		Dist:          dist,
		ZipfS:         cfg.zipfS,
		RMWRatio:      cfg.rmwRatio,
		ValueDist:     cfg.valueDist,
		Seed:          cfg.seed,
	}
	res, err := benchkit.RunSplitLoad(spec)
	if err != nil {
		return err
	}
	records := res.JSON()
	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if cfg.jsonOut != "" {
		if err := os.WriteFile(cfg.jsonOut, blob, 0o644); err != nil {
			return err
		}
	}
	if cfg.format == "json" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	t := stats.NewTable("live split A/B", "phase", "shards", "writes/s", "ops/s", "imbalance", "hot shard", "ack p99 ms", "moved slots", "moved keys", "crash ok", "lost keys")
	t.AddRowf("pre-split", res.Pre.Spec.Shards, res.Pre.Throughput, res.Pre.OpsThroughput, res.Pre.ShardImbalance,
		res.Pre.HotShard, float64(res.Pre.AckP99.Microseconds())/1e3, "-", "-", "-", "-")
	t.AddRowf("post-split", res.Post.Spec.Shards, res.Post.Throughput, res.Post.OpsThroughput, res.Post.ShardImbalance,
		res.Post.HotShard, float64(res.Post.AckP99.Microseconds())/1e3,
		res.Split.MovedSlots, res.Split.MovedKeys, res.Split.CrashVerified, res.Split.LostKeys)
	fmt.Println(t.String())
	fmt.Println(perShardTable(res.Pre).String())
	fmt.Println(perShardTable(res.Post).String())
	fmt.Printf("split: shard %d -> %d (new shard: %v), %d/%d slots moved (%.1f%% of keyspace), %d keys, %.1f ms\n",
		res.Split.Source, res.Split.Dest, res.Split.NewShard,
		res.Split.MovedSlots, 256, res.Split.MovedFrac*100, res.Split.MovedKeys, res.Split.SplitMS)
	return nil
}

// runAutopilot drives the policy-driven reshard A/B: nobody calls Split —
// the autopilot must grow the fleet under the zipf flood and shrink it back
// at idle, with a crash+reopen verification at the end.
func runAutopilot(cfg loadgenConfig, shards int) error {
	if shards < 2 {
		shards = 2
	}
	dir := cfg.poolDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "paxbench-autopilot-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	keys := cfg.keys
	if keys == 0 {
		keys = 10_000
	}
	dist := cfg.dist
	if dist == "uniform" {
		dist = "zipf" // the A/B is about skew; an explicit -dist zipf is the expected call
	}
	zipfS := cfg.zipfS
	if zipfS == 0 {
		zipfS = 1.5 // skewed enough that the hot shard's pipeline genuinely saturates
	}
	spec := benchkit.LoadSpec{
		Clients:       cfg.clients,
		OpsPerClient:  cfg.ops,
		ValueBytes:    64,
		ReadRatio:     cfg.readRatio,
		QueuedReads:   cfg.queued,
		MaxBatch:      cfg.maxBatch,
		MaxDelay:      cfg.maxDelay,
		Shards:        shards,
		CommitLatency: cfg.commitLat,
		PoolDir:       dir,
		EpochLog:      cfg.epochLog,
		Keys:          keys,
		Dist:          dist,
		ZipfS:         zipfS,
		RMWRatio:      cfg.rmwRatio,
		ValueDist:     cfg.valueDist,
		Seed:          cfg.seed,
	}
	res, err := benchkit.RunAutopilotLoad(spec)
	if err != nil {
		return err
	}
	records := res.JSON()
	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if cfg.jsonOut != "" {
		if err := os.WriteFile(cfg.jsonOut, blob, 0o644); err != nil {
			return err
		}
	}
	if cfg.format == "json" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	t := stats.NewTable("reshard autopilot A/B", "phase", "shards", "writes/s", "ops/s", "imbalance", "ack p99 ms", "policy wait ms")
	t.AddRowf("pre-autosplit", res.Pre.Spec.Shards, res.Pre.Throughput, res.Pre.OpsThroughput, res.Pre.ShardImbalance,
		float64(res.Pre.AckP99.Microseconds())/1e3, "-")
	t.AddRowf("post-autosplit", res.Post.Spec.Shards, res.Post.Throughput, res.Post.OpsThroughput, res.Post.ShardImbalance,
		float64(res.Post.AckP99.Microseconds())/1e3, res.Pilot.SplitWaitMS)
	fmt.Println(t.String())
	fmt.Println(perShardTable(res.Pre).String())
	fmt.Println(perShardTable(res.Post).String())
	fmt.Printf("autopilot: %d -> %d -> %d shards (%d split(s): %s; %d merge(s) %.1f ms after idle: %s); crash verified: %v, lost keys: %d\n",
		res.Pilot.StartShards, res.Pilot.PeakShards, res.Pilot.EndShards,
		res.Pilot.Splits, res.Pilot.SplitReason,
		res.Pilot.Merges, res.Pilot.MergeWaitMS, res.Pilot.MergeReason,
		res.Pilot.CrashVerified, res.Pilot.LostKeys)
	return nil
}
