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
//
// Scales: "paper" uses a hash table far larger than the simulated LLC and
// 100k measured operations per system; "quick" is a seconds-long smoke run.
//
// -loadgen drives the paxserve group-commit engine with concurrent clients,
// sweeping the comma-separated -shards counts. Every run is on pool files,
// where each commit is a real delta append and fsync: in -pool-dir when it is
// set (left there afterwards), else in a temporary directory the run
// removes. -read-ratio mixes GETs into the workload (0.9 models a read-heavy
// serving tier); GETs are served from the engine's volatile read index.
// Every write is acked once its group commit reaches media. -split and
// -autopilot run the same sweep with an act
// in the middle of every run: measure, reshape the fleet, measure again,
// crash, reopen and count lost keys. The default table output prints one row per
// measured phase plus the merged metrics registry as `name value` lines (the
// same text the STATS wire request returns); -format json emits a
// machine-readable record array instead, and -out additionally writes that
// JSON to a file (e.g. BENCH_loadgen.json) so the perf trajectory is tracked
// across PRs.
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
		loadgen    = flag.Bool("loadgen", false, "run the serving-layer load generator and exit")
		lg         loadgenConfig
	)
	flag.StringVar(&lg.format, "format", "table", "output format: table | csv (experiments), table | json (loadgen)")
	flag.IntVar(&lg.clients, "clients", 256, "loadgen: concurrent clients")
	flag.IntVar(&lg.ops, "ops", 150, "loadgen: writes per client")
	flag.IntVar(&lg.maxBatch, "max-batch", 16, "loadgen: max writes per group commit")
	flag.StringVar(&lg.shardList, "shards", "1", "loadgen: comma-separated shard counts to sweep (e.g. 1,2,4,8)")
	flag.Float64Var(&lg.readRatio, "read-ratio", 0, "loadgen: fraction of ops issued as GETs against previously written keys (0 = write-heavy with periodic read-backs)")
	flag.StringVar(&lg.poolDir, "pool-dir", "", "loadgen: put the runs' pool files in this directory and leave them there (default: a temporary directory per run, removed afterwards)")
	flag.StringVar(&lg.dataSizes, "data-sizes", "", "loadgen: comma-separated per-shard vPM data sizes in bytes to sweep (e.g. 67108864,134217728; empty = the 32 MiB default)")
	flag.StringVar(&lg.jsonOut, "out", "", "loadgen: also write the JSON records to this file")
	flag.Uint64Var(&lg.keys, "keys", 0, "loadgen: shared keyspace size; > 0 switches clients from private keys to a preloaded shared keyspace (required for -dist/-rmw-ratio/-value-dist; -split/-autopilot default it to 10000)")
	flag.StringVar(&lg.dist, "dist", "uniform", "loadgen: shared-keyspace key distribution: uniform | zipf")
	flag.Float64Var(&lg.zipfS, "zipf-s", 0, "loadgen: zipf skew exponent s (> 1; 0 = the 1.2 default)")
	flag.Float64Var(&lg.rmwRatio, "rmw-ratio", 0, "loadgen: fraction of ops issued as read-modify-writes (GET then PUT of the same key)")
	flag.StringVar(&lg.valueDist, "value-dist", "fixed", "loadgen: value size distribution: fixed | uniform (1..value bytes)")
	flag.Int64Var(&lg.seed, "seed", 1, "loadgen: base RNG seed for shared-keyspace sampling")
	flag.BoolVar(&lg.split, "split", false, "loadgen: make every run a live-split A/B: measure, split the hottest shard, measure again, then crash and verify no acked write was lost (file-backed zipfian shared keyspace; any shard count, 1 splits to 2)")
	flag.BoolVar(&lg.autopilot, "autopilot", false, "loadgen: make every run a reshard-autopilot A/B: measure, flood until the policy splits on its own, measure again, idle until it merges back, then crash and verify (same requirements as -split)")
	flag.BoolVar(&lg.blackbox, "blackbox", false, "loadgen: journal lifecycle events and windowed metrics snapshots to <pool-dir>/load.pool.blackbox/ (requires -pool-dir; the A/B against the same run without it bounds journaling overhead)")
	flag.IntVar(&lg.failAfter, "fail-syncs-after", 0, "loadgen: inject a persistent media-sync fault into shard 0 after N successful fsyncs of its epoch-log segments (commits and segment rolls) — the shard seals fail-stop and the run ends in a simulated crash (postmortem smoke harness)")
	flag.Parse()

	if *loadgen {
		if err := runLoadgen(lg); err != nil {
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
			if lg.format == "csv" {
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

// loadgenConfig is the -loadgen flag set; main binds the flags to it.
type loadgenConfig struct {
	shardList string
	clients   int
	ops       int
	maxBatch  int
	readRatio float64
	poolDir   string
	dataSizes string
	format    string
	jsonOut   string
	keys      uint64
	dist      string
	zipfS     float64
	rmwRatio  float64
	valueDist string
	seed      int64
	split     bool
	autopilot bool
	blackbox  bool
	failAfter int
}

// spec builds the LoadSpec of one run of the sweep: the flags, plus this
// run's point on each swept axis.
func (cfg loadgenConfig) spec(shards int, dataSize uint64) benchkit.LoadSpec {
	return benchkit.LoadSpec{
		Clients:        cfg.clients,
		OpsPerClient:   cfg.ops,
		ReadRatio:      cfg.readRatio,
		MaxBatch:       cfg.maxBatch,
		Shards:         shards,
		PoolDir:        cfg.poolDir,
		DataSize:       dataSize,
		Keys:           cfg.keys,
		Dist:           cfg.dist,
		ZipfS:          cfg.zipfS,
		RMWRatio:       cfg.rmwRatio,
		ValueDist:      cfg.valueDist,
		Seed:           cfg.seed,
		Blackbox:       cfg.blackbox,
		FailSyncsAfter: cfg.failAfter,
	}
}

// runLoadgen sweeps data size × shard count,
// one benchkit.RunScript per point, and reports every measured phase as a
// table plus metrics registry or as JSON records. -split / -autopilot put an
// act in the middle of each run and fill in what an act needs and the flags
// leave open.
func runLoadgen(cfg loadgenConfig) error {
	act := benchkit.NoAct
	switch {
	case cfg.split:
		act = benchkit.SplitAct
	case cfg.autopilot:
		act = benchkit.AutopilotAct
	}
	if act != benchkit.NoAct {
		if cfg.keys == 0 {
			cfg.keys = 10_000
		}
		if cfg.dist == "uniform" {
			cfg.dist = "zipf" // the A/B is about skew; an explicit -dist zipf is the expected call
		}
		if cfg.autopilot && cfg.zipfS == 0 {
			cfg.zipfS = 1.5 // skewed enough that the hot shard's pipeline genuinely saturates
		}
	}
	var counts []int
	for _, f := range strings.Split(cfg.shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -shards value %q (want positive ints like 1,2,4,8)", f)
		}
		counts = append(counts, n)
	}
	sizes := []uint64{0} // 0 = the runner's 32 MiB default
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
	var phases []benchkit.LoadResult
	for _, dataSize := range sizes {
		for _, n := range counts {
			res, err := benchkit.RunScript(cfg.spec(n, dataSize), act)
			if err != nil {
				return fmt.Errorf("%d shards (data=%d): %w", n, dataSize, err)
			}
			phases = append(phases, res.Phases()...)
		}
	}
	return emit(cfg, phases)
}

// emit writes the measured phases: JSON records to -out and, with -format
// json, to stdout; otherwise one table row per phase, the per-shard
// breakdowns, what each act did, and each phase's metrics registry.
func emit(cfg loadgenConfig, phases []benchkit.LoadResult) error {
	records := make([]benchkit.LoadJSON, len(phases))
	for i, res := range phases {
		records[i] = res.JSON()
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

	t := stats.NewTable("loadgen", "phase", "pool MiB", "shards", "clients", "acked writes", "gets", "snapshots", "writes/snapshot", "max batch", "writes/s", "ops/s", "ack p50 ms", "ack p99 ms", "KiB/commit p99", "amp", "imbalance", "hot shard")
	for i, res := range phases {
		phase := res.Phase
		if phase == "" {
			phase = "-"
		}
		j := records[i]
		t.AddRowf(phase, float64(res.PoolBytes)/(1<<20), j.Shards, res.Spec.Clients, res.AckedWrites, res.Gets, res.GroupCommits,
			res.Amortization, res.BatchMax, res.Throughput, res.OpsThroughput,
			float64(res.AckP50.Microseconds())/1e3, float64(res.AckP99.Microseconds())/1e3,
			res.CommitP99Bytes/1024, res.WriteAmplification, res.ShardImbalance, res.HotShard)
	}
	fmt.Println(t.String())
	for _, res := range phases {
		if len(res.PerShard) > 1 {
			fmt.Println(perShardTable(res).String())
		}
	}
	for _, res := range phases {
		if s := res.Split; s != nil {
			fmt.Printf("split: shard %d -> %d (new shard: %v), %d/%d slots moved (%.1f%% of keyspace), %d keys, %.1f ms; crash verified: %v, lost keys: %d\n",
				s.Source, s.Dest, s.NewShard, s.MovedSlots, 256, s.MovedFrac*100, s.MovedKeys, s.SplitMS,
				s.CrashVerified, s.LostKeys)
		}
		if p := res.Autopilot; p != nil {
			fmt.Printf("autopilot: %d -> %d -> %d shards (%d split(s) after %.1f ms: %s; %d merge(s) %.1f ms after idle: %s); crash verified: %v, lost keys: %d\n",
				p.StartShards, p.PeakShards, p.EndShards,
				p.Splits, p.SplitWaitMS, p.SplitReason,
				p.Merges, p.MergeWaitMS, p.MergeReason,
				p.CrashVerified, p.LostKeys)
		}
	}
	for i, res := range phases {
		fmt.Printf("## metrics (%d shards)\n", records[i].Shards)
		if _, err := res.Metrics.WriteTo(os.Stdout); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

// perShardTable renders one phase's per-shard load so hot-shard skew is
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
