package benchkit

import (
	"fmt"

	"pax/internal/amat"
	"pax/internal/core"
	"pax/internal/device"
	"pax/internal/hbm"
	"pax/internal/memory"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/stats"
	"pax/internal/structures"
	"pax/internal/undolog"
	"pax/internal/workload"
)

// Sizes scales an experiment run.
type Sizes struct {
	// Keys sizes the table for the headline figures (chosen to exceed the
	// LLC at paper scale).
	Keys uint64
	// SweepKeys sizes the table for multi-fixture sweep experiments, which
	// rebuild and reload fixtures many times; 0 falls back to Keys.
	SweepKeys    uint64
	MeasureOps   int
	PersistEvery int
	Threads      []int
}

func (s Sizes) sweepKeys() uint64 {
	if s.SweepKeys != 0 {
		return s.SweepKeys
	}
	return s.Keys
}

// QuickSizes returns test-scale sizes (seconds, small tables).
func QuickSizes() Sizes {
	return Sizes{Keys: 2000, MeasureOps: 3000, PersistEvery: 200, Threads: []int{1, 8, 16, 24, 32}}
}

// PaperSizes returns evaluation-scale sizes: the headline figures use a
// table well beyond the LLC; the sweeps use a smaller (but still cache-
// hostile) table so the full suite finishes in minutes.
func PaperSizes() Sizes {
	return Sizes{Keys: 400_000, SweepKeys: 60_000, MeasureOps: 100_000, PersistEvery: 1000, Threads: []int{1, 8, 16, 24, 32}}
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Paper string // which part of the paper it reproduces
	Desc  string
	Run   func(cfg Config, sz Sizes) []*stats.Table
}

// Experiments lists every experiment in DESIGN.md's index order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2a", "Figure 2a", "AMAT for DRAM, PM, PM via CXL PAX, PM via Enzian PAX", Fig2a},
		{"fig2b", "Figure 2b", "write-only throughput vs threads: DRAM, PM Direct, PMDK", Fig2b},
		{"fig2b-pax", "§5 claims", "Figure 2b plus PAX (CXL and Enzian)", Fig2bPAX},
		{"wamp", "§1/§5.1", "write amplification: page logging vs PAX line logging", WriteAmplification},
		{"stalls", "§2", "ordering stalls per op: PMDK, compiler pass, page faults, PAX", Stalls},
		{"traps", "§1", "first-touch interposition cost: trap vs coherence message", Traps},
		{"bw", "§5.1", "demanded vs available bandwidth at high thread counts", Bandwidth},
		{"devrate", "§5.1", "device pipeline clock sweep (Enzian FPGA vs ASIC)", DeviceRate},
		{"epoch", "§3.2/§3.3", "epoch length vs throughput, log traffic, persist latency", EpochLength},
		{"evict", "§3.3", "HBM eviction policy ablation under working sets ≫ HBM", Eviction},
		{"recovery", "§3.4", "recovery time and rolled-back lines vs crashed-epoch size", Recovery},
		{"latsweep", "§4/§5", "link latency sweep: where PAX stops beating PMDK", LatencySweep},
		{"hbmsize", "§5", "HBM cache size vs hit rate and op latency (zipfian gets)", HBMSize},
		{"overlap", "§6", "blocking vs pipelined persist()", Overlap},
		{"capacity", "§1", "PM capacity: PAX single-copy + log vs physical snapshots", Capacity},
		{"ycsb", "§5 extension", "YCSB-style mixes (A 50/50, B 95/5, C read-only) across systems", YCSB},
		{"hybrid", "§5.1", "combining with paging: direct-mapped clean pages + vPM dirty pages", HybridPaging},
		{"tail", "§3.2 extension", "tail latency: group commit's persist spikes vs per-op WAL", TailLatency},
		{"scan", "§3.1 extension", "ordered structure (B+tree) inserts and range scans across systems", ScanWorkload},
		{"epochstore", "§3.3 extension", "per-commit persisted bytes vs pool size: the delta epoch store beside a full-image republish", EpochStoreAmplification},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func mustBuild(kind SystemKind, cfg Config) *Fixture {
	f, err := Build(kind, cfg)
	if err != nil {
		panic(fmt.Sprintf("benchkit: building %s: %v", kind, err))
	}
	return f
}

// Fig2a reproduces Figure 2a: measure miss rates and the device HBM hit
// rate on the paper's get() workload, then estimate AMAT per configuration.
func Fig2a(cfg Config, sz Sizes) []*stats.Table {
	// The paper's Figure 2a estimates assume LLC misses are served from PM
	// media (no device-cache benefit); disable the HBM so the estimate is
	// comparable. The HBM upside is quantified separately (hbmsize, ycsb).
	noHBM := cfg
	noHBM.HBMSize = 0
	f := mustBuild(PAXCXL, noHBM)
	res := RunKV(f, RunSpec{
		Workload:     workload.Fig2aConfig(sz.Keys),
		LoadKeys:     int(sz.Keys),
		MeasureOps:   sz.MeasureOps,
		PersistEvery: sz.MeasureOps, // one epoch around the load
	})
	rates := amat.MissRates{L1: res.L1Miss, L2: res.L2Miss, LLC: res.LLCMiss}
	rows := amat.Figure2a(rates, res.HBMHitRate)

	t := stats.NewTable(
		fmt.Sprintf("Figure 2a — AMAT estimates (miss rates L1=%.3f L2=%.3f LLC=%.3f, HBM hit=%.2f)",
			res.L1Miss, res.L2Miss, res.LLCMiss, res.HBMHitRate),
		"config", "llc_miss_service_ns", "amat_ns", "vs_pm")
	for _, r := range rows {
		t.AddRowf(r.Config, r.MemService.Nanoseconds(), r.AMAT.Nanoseconds(), fmt.Sprintf("%.2fx", r.OverPM))
	}
	return []*stats.Table{t}
}

// fig2bSystems runs the write-only workload over the given systems and
// renders the throughput-vs-threads table.
func fig2bSystems(cfg Config, sz Sizes, systems []SystemKind, title string) []*stats.Table {
	headers := []string{"system"}
	for _, n := range sz.Threads {
		headers = append(headers, fmt.Sprintf("t%d_mops", n))
	}
	headers = append(headers, "ns_per_op", "bottleneck_at_max")
	t := stats.NewTable(title, headers...)
	for _, kind := range systems {
		f := mustBuild(kind, cfg)
		persistEvery := 0
		if f.PersistPipelined != nil || kind == PageFault {
			persistEvery = sz.PersistEvery // snapshot systems group-commit
		}
		res := RunKV(f, RunSpec{
			Workload:     workload.Fig2bConfig(sz.Keys),
			LoadKeys:     int(sz.Keys),
			MeasureOps:   sz.MeasureOps,
			PersistEvery: persistEvery,
		})
		points := Scale(res, f.Caps(), sz.Threads)
		row := []any{string(kind)}
		for _, p := range points {
			row = append(row, fmt.Sprintf("%.2f", p.Mops))
		}
		row = append(row, fmt.Sprintf("%.0f", res.NsPerOp), points[len(points)-1].Bottleneck)
		t.AddRowf(row...)
	}
	return []*stats.Table{t}
}

// Fig2b reproduces Figure 2b: DRAM, PM Direct, PMDK, write-only puts.
func Fig2b(cfg Config, sz Sizes) []*stats.Table {
	return fig2bSystems(cfg, sz, []SystemKind{DRAM, PMDirect, PMDK},
		"Figure 2b — write-only throughput vs threads (Mops)")
}

// Fig2bPAX extends Figure 2b with the PAX configurations (§5's claim that
// PAX approaches PM-direct performance).
func Fig2bPAX(cfg Config, sz Sizes) []*stats.Table {
	return fig2bSystems(cfg, sz, []SystemKind{DRAM, PMDirect, PMDK, PAXCXL, PAXEnzian},
		"Figure 2b + PAX — write-only throughput vs threads (Mops)")
}

// Stalls reproduces the §2 argument: ordering stalls and log traffic per
// operation for each crash-consistency mechanism.
func Stalls(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§2 — per-operation crash-consistency overheads (write-only puts)",
		"system", "fences_per_op", "traps_per_op", "log_bytes_per_op", "ns_per_op")
	for _, kind := range []SystemKind{PMDK, CompilerPass, PageFault, PAXCXL} {
		f := mustBuild(kind, cfg)
		persistEvery := 0
		if kind == PageFault || kind == PAXCXL {
			persistEvery = sz.PersistEvery
		}
		// Insert-heavy: no pre-load, keyspace larger than the op count, so
		// each put allocates and links a node (multiple stores per op —
		// where the mechanisms differ most).
		wl := workload.Fig2bConfig(uint64(sz.MeasureOps) * 2)
		res := RunKV(f, RunSpec{
			Workload:     wl,
			MeasureOps:   sz.MeasureOps,
			PersistEvery: persistEvery,
		})
		t.AddRowf(string(kind),
			fmt.Sprintf("%.2f", res.FencesPerOp),
			fmt.Sprintf("%.4f", res.TrapsPerOp),
			fmt.Sprintf("%.1f", res.LoggedBytesPerOp),
			fmt.Sprintf("%.0f", res.NsPerOp))
	}
	return []*stats.Table{t}
}

// storePattern drives 8-byte stores over a region in one of the wamp
// experiment's access patterns and reports bytes stored.
func storePattern(mem memory.Memory, base, size uint64, pattern string) uint64 {
	var stored uint64
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	switch pattern {
	case "dense":
		for off := uint64(0); off+8 <= size; off += 8 {
			mem.Store(base+off, buf)
			stored += 8
		}
	case "one-per-line":
		for off := uint64(0); off+8 <= size; off += 64 {
			mem.Store(base+off, buf)
			stored += 8
		}
	case "one-per-page":
		for off := uint64(0); off+8 <= size; off += sim.PageSize {
			mem.Store(base+off, buf)
			stored += 8
		}
	default:
		panic("benchkit: unknown pattern " + pattern)
	}
	return stored
}

// WriteAmplification reproduces the §1/§5.1 granularity argument: log bytes
// written per application byte stored, page-fault tracking vs PAX.
func WriteAmplification(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§1/§5.1 — logging write amplification (log bytes per stored byte)",
		"pattern", "pagefault_4KiB", "pax_64B_lines", "ratio")
	region := uint64(1 << 20)
	if region > cfg.DataSize/2 {
		region = cfg.DataSize / 2
	}
	for _, pattern := range []string{"dense", "one-per-line", "one-per-page"} {
		// Page-fault tracker.
		pf := mustBuild(PageFault, cfg)
		pfBase := cfg.LogSize + cfg.DataSize/2
		pfLogged0 := pf.LoggedBytes()
		pfStored := storePattern(pf.RawMem, pfBase, region, pattern)
		pf.Persist()
		pfWA := float64(pf.LoggedBytes()-pfLogged0) / float64(pfStored)

		// PAX.
		px := mustBuild(PAXCXL, cfg)
		pxBase := px.Pool.DataBase() + cfg.DataSize/2
		px0 := px.Dev.Log().Appends()
		pxStored := storePattern(px.RawMem, pxBase, region, pattern)
		px.Persist()
		pxWA := float64((px.Dev.Log().Appends()-px0)*undolog.EntrySize) / float64(pxStored)

		t.AddRowf(pattern, fmt.Sprintf("%.1f", pfWA), fmt.Sprintf("%.1f", pxWA),
			fmt.Sprintf("%.1fx", pfWA/pxWA))
	}
	return []*stats.Table{t}
}

// Traps reproduces the §1 interposition-cost comparison: the cost of the
// first store to a fresh page (trap) vs a fresh line via PAX (coherence
// message) vs raw PM.
func Traps(cfg Config, sz Sizes) []*stats.Table {
	const n = 256
	t := stats.NewTable("§1 — first-touch interposition cost (avg ns per first store)",
		"system", "first_touch_ns", "mechanism")

	pf := mustBuild(PageFault, cfg)
	base := cfg.LogSize + cfg.DataSize/2
	start := pf.Core.Now()
	for i := uint64(0); i < n; i++ {
		pf.RawMem.Store(base+i*sim.PageSize, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}
	t.AddRowf(string(PageFault), fmt.Sprintf("%.0f", (pf.Core.Now()-start).Nanoseconds()/n), "write-protection trap + 4KiB log")

	px := mustBuild(PAXCXL, cfg)
	pxBase := px.Pool.DataBase() + cfg.DataSize/2
	m := px.Pool.Mem(0)
	start = px.Core.Now()
	for i := uint64(0); i < n; i++ {
		m.Store(pxBase+i*64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}
	t.AddRowf(string(PAXCXL), fmt.Sprintf("%.0f", (px.Core.Now()-start).Nanoseconds()/n), "RdOwn to device, async undo log")

	pd := mustBuild(PMDirect, cfg)
	pdBase := cfg.DataSize / 2
	start = pd.Core.Now()
	for i := uint64(0); i < n; i++ {
		pd.Core.Store(pdBase+i*64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	}
	t.AddRowf(string(PMDirect), fmt.Sprintf("%.0f", (pd.Core.Now()-start).Nanoseconds()/n), "none (not crash consistent)")
	return []*stats.Table{t}
}

// Bandwidth reproduces the §5.1 headroom analysis: unthrottled demanded
// bandwidth at the highest thread count against each channel's capacity.
func Bandwidth(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§5.1 — bandwidth demand at max threads vs channel capacity",
		"system", "pm_write_B_per_op", "demand_GBps", "pm_write_cap_GBps", "link_GBps_demand", "link_cap_GBps", "binding")
	maxT := sz.Threads[len(sz.Threads)-1]
	for _, kind := range []SystemKind{PMDirect, PMDK, PAXCXL} {
		f := mustBuild(kind, cfg)
		persistEvery := 0
		if f.PersistPipelined != nil {
			persistEvery = sz.PersistEvery
		}
		res := RunKV(f, RunSpec{
			Workload:     workload.Fig2bConfig(sz.Keys),
			LoadKeys:     int(sz.Keys),
			MeasureOps:   sz.MeasureOps,
			PersistEvery: persistEvery,
		})
		caps := f.Caps()
		rate1 := float64(res.Ops) / res.Elapsed.Seconds()
		unclamped := rate1 * float64(maxT)
		demandW := unclamped * res.PMWriteBytesPerOp / 1e9
		linkDemand := unclamped * res.LinkBytesPerOp / 1e9
		linkCap := caps.LinkBW / 1e9
		points := Scale(res, caps, []int{maxT})
		t.AddRowf(string(kind),
			fmt.Sprintf("%.0f", res.PMWriteBytesPerOp),
			fmt.Sprintf("%.1f", demandW),
			fmt.Sprintf("%.0f", caps.PMWriteBW/1e9),
			fmt.Sprintf("%.1f", linkDemand),
			fmt.Sprintf("%.0f", linkCap),
			points[0].Bottleneck)
	}
	return []*stats.Table{t}
}

// DeviceRate reproduces the §5.1 accelerator-bottleneck analysis: sweep the
// device pipeline clock from FPGA-class to ASIC-class and report the
// message-rate ceiling it imposes at full thread count.
func DeviceRate(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§5.1 — device pipeline clock sweep (PAX, write-only)",
		"device_clock_mhz", "msgs_per_op", "pipeline_cap_mops", "mops_at_max_threads", "bottleneck")
	maxT := sz.Threads[len(sz.Threads)-1]
	for _, hz := range []float64{150e6, 300e6, 600e6, 1e9, 2e9} {
		link := sim.CXLLink
		link.DeviceHz = hz
		f := buildPAXWithLink(cfg, link)
		res := RunKV(f, RunSpec{
			Workload:     workload.Fig2bConfig(sz.sweepKeys()),
			LoadKeys:     int(sz.sweepKeys()),
			MeasureOps:   sz.MeasureOps,
			PersistEvery: sz.PersistEvery,
		})
		points := Scale(res, f.Caps(), []int{maxT})
		capMops := 0.0
		if res.DeviceMsgsPerOp > 0 {
			capMops = hz / res.DeviceMsgsPerOp / 1e6
		}
		t.AddRowf(fmt.Sprintf("%.0f", hz/1e6),
			fmt.Sprintf("%.2f", res.DeviceMsgsPerOp),
			fmt.Sprintf("%.1f", capMops),
			fmt.Sprintf("%.2f", points[0].Mops),
			points[0].Bottleneck)
	}
	return []*stats.Table{t}
}

// buildPAXWithLink is mustBuild for a PAX pool on a custom link profile.
func buildPAXWithLink(cfg Config, link sim.LinkProfile) *Fixture {
	f, err := buildPAX(cfg, link)
	if err != nil {
		panic(fmt.Sprintf("benchkit: building pax on %s: %v", link.Name, err))
	}
	return f
}

// EpochLength reproduces the §3.2/§3.3 group-commit analysis: ops per
// persist() vs throughput, log traffic, and persist latency.
func EpochLength(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§3.2/§3.3 — epoch length (ops per persist)",
		"ops_per_persist", "ns_per_op", "log_entries_per_op", "avg_persist_us", "lines_per_persist")
	for _, every := range []int{1, 10, 100, 1000} {
		if every > sz.MeasureOps {
			continue
		}
		// Short epochs persist tens of thousands of times; a tenth of the
		// ops is ample for a stationary per-op figure.
		measure := sz.MeasureOps
		if every <= 10 && measure > 10_000 {
			measure = measure / 10
		}
		f := mustBuild(PAXCXL, cfg)
		pool := f.Pool
		var persistTime sim.Time
		var persists, lines int
		f.Persist = func() {
			before := f.Core.Now()
			rep, err := pool.Persist()
			if err != nil {
				panic(err) // in-memory fixture: media cannot fail
			}
			persistTime += f.Core.Now() - before
			persists++
			lines += rep.LinesSnooped
		}
		var appends0 uint64
		res := RunKV(f, RunSpec{
			Workload:     workload.Fig2bConfig(sz.sweepKeys()),
			LoadKeys:     int(sz.sweepKeys()),
			MeasureOps:   measure,
			PersistEvery: every,
			PostLoad: func() {
				appends0 = f.Dev.Log().Appends()
				persistTime, persists, lines = 0, 0, 0
			},
		})
		appends := float64(f.Dev.Log().Appends() - appends0)
		avgPersist := 0.0
		avgLines := 0.0
		if persists > 0 {
			avgPersist = (persistTime / sim.Time(persists)).Nanoseconds() / 1000
			avgLines = float64(lines) / float64(persists)
		}
		t.AddRowf(every,
			fmt.Sprintf("%.0f", res.NsPerOp),
			fmt.Sprintf("%.2f", appends/float64(res.Ops)),
			fmt.Sprintf("%.1f", avgPersist),
			fmt.Sprintf("%.0f", avgLines))
	}
	return []*stats.Table{t}
}

// Eviction reproduces the §3.3 eviction-policy ablation at the device's
// arrival process: upgrades and dirty write-backs arriving at the rate a
// full socket of writers produces (tens of ns apart), so undo-log entries
// are still in flight on the PM write channel when their lines must be
// evicted from the small device buffer. PreferDurable evicts clean or
// already-logged lines first; PlainLRU stalls on in-flight entries.
func Eviction(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§3.3 — HBM eviction policy under a socket-rate dirty burst",
		"policy", "stalled_dirty_evictions", "dirty_writebacks", "arrival_gap_ns")
	const gap = 10 // ns between arrivals ≈ 32 threads at ~3 Mops each
	for _, pol := range []hbm.Policy{hbm.PreferDurable, hbm.PlainLRU} {
		c := cfg
		c.HBMSize = 64 << 10
		c.HBMWays = 4
		c.Policy = pol
		f := mustBuild(PAXCXL, c)
		dev := f.Dev
		base := f.Pool.DataBase() + c.DataSize/2
		line := make([]byte, 64)
		var buf [64]byte
		at := sim.Time(0)
		for i := uint64(0); i < 4096; i++ {
			addr := base + i*64
			dev.UpgradeLine(addr, at)
			dev.WriteBackLine(addr, line, at+sim.NS(gap))
			// Clean fills interleave: candidates PreferDurable can evict
			// for free.
			dev.FetchLine(base-(i+1)*64, false, buf[:], at)
			at += sim.NS(2 * gap)
		}
		t.AddRowf(pol.String(),
			dev.HBM().DirtyEvictionsStalled.Load(),
			dev.Stats.WriteBacksRecv.Load(),
			gap)
	}
	return []*stats.Table{t}
}

// Recovery reproduces §3.4: crash with K modified lines in the open epoch,
// then measure what recovery reads, writes, and rolls back.
func Recovery(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§3.4 — recovery vs crashed-epoch size",
		"modified_lines", "rolled_back", "entries_scanned", "recovery_pm_bytes", "est_recovery_us")
	for _, k := range []int{100, 1000, 10000} {
		if uint64(k*64) > cfg.DataSize/2 {
			continue
		}
		opts := core.Options{
			DataSize: cfg.DataSize, LogSize: cfg.LogSize,
			Device: device.Config{Link: sim.CXLLink, HBMSize: cfg.HBMSize, HBMWays: cfg.HBMWays, Policy: cfg.Policy},
			Host:   cfg.Host,
		}
		pm := pmem.New(pmem.DefaultConfig(int(core.HeaderSize + cfg.LogSize + cfg.DataSize)))
		pool, err := core.Create(pm, opts)
		if err != nil {
			panic(err)
		}
		base := pool.DataBase() + cfg.DataSize/2
		m := pool.Mem(0)
		for i := 0; i < k; i++ {
			m.Store(base+uint64(i*64), []byte{9, 9, 9, 9, 9, 9, 9, 9})
		}
		// Crash: reopen and meter the media traffic recovery causes.
		pm.ResetStats()
		p2, err := core.Open(pm, opts)
		if err != nil {
			panic(err)
		}
		rec := p2.Recovery()
		recBytes := pm.BytesRead.Load() + pm.BytesWritten.Load()
		estUS := (float64(pm.BytesRead.Load())/sim.PMReadBandwidth +
			float64(pm.BytesWritten.Load())/sim.PMWriteBandwidth) * 1e6
		t.AddRowf(k, rec.LinesRolledBack, rec.EntriesScanned, recBytes, fmt.Sprintf("%.1f", estUS))
	}
	return []*stats.Table{t}
}

// LatencySweep reproduces the §4/§5 portability question: how much link
// latency can PAX absorb before a hand-crafted WAL wins.
func LatencySweep(cfg Config, sz Sizes) []*stats.Table {
	pmdkF := mustBuild(PMDK, cfg)
	pmdkRes := RunKV(pmdkF, RunSpec{
		Workload:   workload.Fig2bConfig(sz.sweepKeys()),
		LoadKeys:   int(sz.sweepKeys()),
		MeasureOps: sz.MeasureOps,
	})
	t := stats.NewTable(
		fmt.Sprintf("§4/§5 — link latency sweep (PMDK reference: %.0f ns/op)", pmdkRes.NsPerOp),
		"link_latency_ns", "pax_ns_per_op", "pax_vs_pmdk", "pax_wins")
	for _, lat := range []float64{25, 50, 100, 250, 500, 1000} {
		link := sim.CXLLink
		link.Latency = sim.NS(lat)
		f := buildPAXWithLink(cfg, link)
		res := RunKV(f, RunSpec{
			Workload:     workload.Fig2bConfig(sz.sweepKeys()),
			LoadKeys:     int(sz.sweepKeys()),
			MeasureOps:   sz.MeasureOps,
			PersistEvery: sz.PersistEvery,
		})
		ratio := res.NsPerOp / pmdkRes.NsPerOp
		t.AddRowf(fmt.Sprintf("%.0f", lat),
			fmt.Sprintf("%.0f", res.NsPerOp),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%v", ratio < 1))
	}
	return []*stats.Table{t}
}

// HBMSize reproduces the §5 HBM-cache claim. The device cache only pays off
// once it exceeds what the host LLC already absorbs, so the sweep runs from
// zero up to dataset-sized HBM (the paper's HBM is GB-class) under uniform
// reads whose reuse distance defeats the 22 MiB LLC.
func HBMSize(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§5 — HBM cache size vs hit rate (uniform gets, table ≫ LLC)",
		"hbm_bytes", "hbm_hit_rate", "ns_per_op")
	wl := workload.Config{
		Keys: sz.Keys, KeySize: 8, ValueSize: 8,
		ReadFraction: 1.0, Dist: "uniform", Seed: 42,
	}
	for _, size := range []int{0, int(cfg.DataSize / 16), int(cfg.DataSize / 4), int(cfg.DataSize)} {
		c := cfg
		c.HBMSize = size
		f := mustBuild(PAXCXL, c)
		res := RunKV(f, RunSpec{
			Workload:     wl,
			LoadKeys:     int(sz.Keys),
			MeasureOps:   sz.MeasureOps,
			PersistEvery: sz.MeasureOps,
		})
		t.AddRowf(size, fmt.Sprintf("%.3f", res.HBMHitRate), fmt.Sprintf("%.0f", res.NsPerOp))
	}
	return []*stats.Table{t}
}

// Overlap reproduces the §6 extension: blocking vs pipelined persist().
func Overlap(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§6 — blocking vs pipelined persist()",
		"ops_per_persist", "blocking_ns_per_op", "pipelined_ns_per_op", "speedup")
	for _, every := range []int{10, 100, 1000} {
		if every > sz.MeasureOps {
			continue
		}
		run := func(pipelined bool) float64 {
			f := mustBuild(PAXCXL, cfg)
			res := RunKV(f, RunSpec{
				Workload:     workload.Fig2bConfig(sz.sweepKeys()),
				LoadKeys:     int(sz.sweepKeys()),
				MeasureOps:   sz.MeasureOps,
				PersistEvery: every,
				Pipelined:    pipelined,
			})
			return res.NsPerOp
		}
		block := run(false)
		pipe := run(true)
		t.AddRowf(every, fmt.Sprintf("%.0f", block), fmt.Sprintf("%.0f", pipe),
			fmt.Sprintf("%.2fx", block/pipe))
	}
	return []*stats.Table{t}
}

// Capacity reproduces the §1 capacity argument: PAX keeps one copy of the
// structure plus a bounded log; physical-snapshot systems keep ≥ 2x.
func Capacity(cfg Config, sz Sizes) []*stats.Table {
	f := mustBuild(PAXCXL, cfg)
	RunKV(f, RunSpec{
		Workload:     workload.Fig2bConfig(sz.Keys),
		LoadKeys:     int(sz.Keys),
		MeasureOps:   sz.MeasureOps,
		PersistEvery: sz.PersistEvery,
	})
	live := f.Pool.Arena().Brk() - f.Pool.DataBase()
	peakLog := uint64(f.Dev.Log().PeakLive()) * undolog.EntrySize
	paxTotal := float64(live + peakLog)
	t := stats.NewTable("§1 — PM capacity cost per byte of live data",
		"approach", "pm_bytes", "ratio_to_live")
	t.AddRowf("live data", live, "1.00")
	t.AddRowf("pax (live + peak undo log)", uint64(paxTotal), fmt.Sprintf("%.2f", paxTotal/float64(live)))
	t.AddRowf("physical snapshot (Kamino/Pronto-style, ≥2 copies)", live*2, "2.00")
	return []*stats.Table{t}
}

// YCSB runs the classic YCSB A/B/C mixes (update-heavy, read-mostly,
// read-only) over the main systems — the paper's §5 expectation that PAX's
// advantage grows with write intensity, checked across mixes.
func YCSB(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("YCSB-style mixes — simulated ns/op (and Mops at max threads)",
		"system", "A_50r50w", "B_95r5w", "C_100r", "A_mops_maxt", "C_mops_maxt")
	maxT := sz.Threads[len(sz.Threads)-1]
	mixes := []struct {
		name string
		read float64
	}{{"A", 0.5}, {"B", 0.95}, {"C", 1.0}}
	for _, kind := range []SystemKind{PMDirect, PMDK, PAXCXL} {
		perMix := map[string]RunResult{}
		var capsOf Caps
		for _, mix := range mixes {
			f := mustBuild(kind, cfg)
			persistEvery := 0
			if f.PersistPipelined != nil {
				persistEvery = sz.PersistEvery
			}
			wl := workload.Config{
				Keys: sz.Keys, KeySize: 8, ValueSize: 8,
				ReadFraction: mix.read, Dist: "zipf", ZipfS: 1.2, Seed: 42,
			}
			perMix[mix.name] = RunKV(f, RunSpec{
				Workload:     wl,
				LoadKeys:     int(sz.Keys),
				MeasureOps:   sz.MeasureOps,
				PersistEvery: persistEvery,
			})
			capsOf = f.Caps()
		}
		aPoints := Scale(perMix["A"], capsOf, []int{maxT})
		cPoints := Scale(perMix["C"], capsOf, []int{maxT})
		t.AddRowf(string(kind),
			fmt.Sprintf("%.0f", perMix["A"].NsPerOp),
			fmt.Sprintf("%.0f", perMix["B"].NsPerOp),
			fmt.Sprintf("%.0f", perMix["C"].NsPerOp),
			fmt.Sprintf("%.2f", aPoints[0].Mops),
			fmt.Sprintf("%.2f", cPoints[0].Mops))
	}
	return []*stats.Table{t}
}

// HybridPaging reproduces the §5.1 combination sketch: clean pages read
// through a direct mapping (no device interposition), written pages tracked
// by PAX at line granularity. Compared against pure PAX across read
// fractions — paging should win as the workload gets read-heavier.
func HybridPaging(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§5.1 — pure PAX vs hybrid paging+PAX",
		"read_fraction", "pax_ns_per_op", "hybrid_ns_per_op", "hybrid_direct_reads", "hybrid_faults_per_op")
	for _, readFrac := range []float64{0.5, 0.95, 1.0} {
		wl := workload.Config{
			Keys: sz.sweepKeys(), KeySize: 8, ValueSize: 8,
			ReadFraction: readFrac, Dist: "uniform", Seed: 42,
		}
		run := func(kind SystemKind) (RunResult, *Fixture) {
			f := mustBuild(kind, cfg)
			res := RunKV(f, RunSpec{
				Workload:     wl,
				LoadKeys:     int(sz.sweepKeys()),
				MeasureOps:   sz.MeasureOps,
				PersistEvery: sz.PersistEvery,
			})
			return res, f
		}
		pax, _ := run(PAXCXL)
		hyb, hf := run(PAXHybrid)
		directFrac := 0.0
		if hm, ok := hf.RawMem.(interface{ DirectReadFraction() float64 }); ok {
			directFrac = hm.DirectReadFraction()
		}
		t.AddRowf(fmt.Sprintf("%.2f", readFrac),
			fmt.Sprintf("%.0f", pax.NsPerOp),
			fmt.Sprintf("%.0f", hyb.NsPerOp),
			fmt.Sprintf("%.2f", directFrac),
			fmt.Sprintf("%.4f", hyb.TrapsPerOp))
	}

	// Second table: spatial locality. The KV workload scatters 8-byte
	// writes, so every touched page costs a trap for little coverage —
	// paging's worst case. Sequential (page-dense) writes amortize one trap
	// over 512 stores, which is where §5.1 expects paging to pay off.
	t2 := stats.NewTable("§5.1 — hybrid fault amortization by write pattern (raw stores)",
		"pattern", "pax_sim_us", "hybrid_sim_us", "faults", "stored_bytes_per_fault")
	region := uint64(1 << 20)
	for _, pattern := range []string{"dense", "one-per-page"} {
		runRaw := func(kind SystemKind) (float64, uint64, uint64) {
			f := mustBuild(kind, cfg)
			var base uint64
			if kind == PAXHybrid {
				base = cfg.DataSize / 2 // hybrid offsets are region-relative
			} else {
				base = f.Pool.DataBase() + cfg.DataSize/2
			}
			traps0 := f.Traps() // exclude fixture-construction faults
			start := f.Core.Now()
			stored := storePattern(f.RawMem, base, region, pattern)
			f.Persist()
			elapsed := (f.Core.Now() - start).Nanoseconds() / 1000
			return elapsed, f.Traps() - traps0, stored
		}
		paxUS, _, _ := runRaw(PAXCXL)
		hybUS, faults, stored := runRaw(PAXHybrid)
		perFault := uint64(0)
		if faults > 0 {
			perFault = stored / faults
		}
		t2.AddRowf(pattern, fmt.Sprintf("%.0f", paxUS), fmt.Sprintf("%.0f", hybUS), faults, perFault)
	}
	return []*stats.Table{t, t2}
}

// TailLatency examines what group commit does to the latency DISTRIBUTION:
// PAX's median op is fast but the op that triggers persist() absorbs the
// whole epoch's write-back (p99.9/max spike), while PMDK pays a fat constant
// per op. Pipelined persist (§6) removes most of the spike.
func TailLatency(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§3.2 — per-op simulated latency distribution (write-only)",
		"system", "p50_ns", "p99_ns", "max_ns", "mean_ns")
	type variant struct {
		name      string
		kind      SystemKind
		every     int
		pipelined bool
	}
	variants := []variant{
		{"pmdk (per-op tx)", PMDK, 0, false},
		{"pax persist-every-1000", PAXCXL, 1000, false},
		{"pax pipelined-1000", PAXCXL, 1000, true},
	}
	for _, v := range variants {
		f := mustBuild(v.kind, cfg)
		res := RunKV(f, RunSpec{
			Workload:        workload.Fig2bConfig(sz.sweepKeys()),
			LoadKeys:        int(sz.sweepKeys()),
			MeasureOps:      sz.MeasureOps,
			PersistEvery:    v.every,
			Pipelined:       v.pipelined,
			RecordLatencies: true,
		})
		ns := func(ps int64) string { return fmt.Sprintf("%.0f", float64(ps)/1000) }
		// A quantile is its bucket's upper bound, so clamp it to the exact max.
		q := func(p float64) string { return ns(min(res.Latencies.Quantile(p), res.MaxLatency)) }
		t.AddRowf(v.name, q(0.5), q(0.99), ns(res.MaxLatency), fmt.Sprintf("%.0f", res.Latencies.Mean()/1000))
	}
	return []*stats.Table{t}
}

// ScanWorkload exercises an ordered structure — the B+tree — over the main
// systems: random inserts (each failure-atomic under the system's
// discipline) followed by range scans. Scans are pure reads, so the §3.1
// black-box claim predicts PAX scans at near-direct speed while the WAL
// baseline pays nothing extra either — the gap is all on the insert side.
func ScanWorkload(cfg Config, sz Sizes) []*stats.Table {
	t := stats.NewTable("§3.1 extension — B+tree inserts + range scans",
		"system", "insert_ns_per_op", "scan_ns_per_entry")
	keys := sz.sweepKeys()
	const scanLen = 100
	for _, kind := range []SystemKind{PMDirect, PMDK, PAXCXL} {
		f := mustBuild(kind, cfg)
		var bt *structures.BTree
		var err error
		f.OpWrap(func() {
			bt, err = structures.NewBTree(f.Arena)
		})
		if err != nil {
			panic(err)
		}
		rng := workload.NewUniform(keys, 42)

		start := f.Core.Now()
		for i := uint64(0); i < keys; i++ {
			k := rng.Next()
			f.OpWrap(func() {
				if err := bt.Put(k, k^0xABCD); err != nil {
					panic(err)
				}
			})
			if f.PersistPipelined != nil && (i+1)%uint64(sz.PersistEvery) == 0 {
				f.Persist()
			}
		}
		if f.PersistPipelined != nil {
			f.Persist()
		}
		insertNs := (f.Core.Now() - start).Nanoseconds() / float64(keys)

		start = f.Core.Now()
		scanned := 0
		for s := uint64(0); s < 200; s++ {
			from := rng.Next()
			n := 0
			bt.Scan(from, func(k, v uint64) bool {
				n++
				return n < scanLen
			})
			scanned += n
		}
		scanNs := 0.0
		if scanned > 0 {
			scanNs = (f.Core.Now() - start).Nanoseconds() / float64(scanned)
		}
		t.AddRowf(string(kind), fmt.Sprintf("%.0f", insertNs), fmt.Sprintf("%.0f", scanNs))
	}
	return []*stats.Table{t}
}
