// Package benchkit is the experiment harness: it builds each system under
// test (DRAM, PM-direct, PMDK-style WAL, compiler-pass WAL, page-fault
// tracking, and PAX over CXL- and Enzian-class links) behind one KV
// interface, runs the paper's workloads over them on simulated time, applies
// the multi-thread scaling model, and renders every figure and ablation as a
// text table.
package benchkit

import (
	"fmt"

	"pax/internal/alloc"
	"pax/internal/baselines/compilerpass"
	"pax/internal/baselines/pagefault"
	"pax/internal/baselines/pmdk"
	"pax/internal/cache"
	"pax/internal/core"
	"pax/internal/cxl"
	"pax/internal/device"
	"pax/internal/hbm"
	"pax/internal/hybrid"
	"pax/internal/memory"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/structures"
	"pax/internal/undolog"
)

// SystemKind names a system under test.
type SystemKind string

// The systems the paper's evaluation compares.
const (
	DRAM         SystemKind = "dram"
	PMDirect     SystemKind = "pm-direct"
	PMDK         SystemKind = "pmdk"
	CompilerPass SystemKind = "compilerpass"
	PageFault    SystemKind = "pagefault"
	PAXCXL       SystemKind = "pax-cxl"
	PAXEnzian    SystemKind = "pax-enzian"
	// PAXHybrid is the §5.1 "Combining with Paging" mode: clean pages are
	// read through a direct mapping; written pages transition to vPM.
	PAXHybrid SystemKind = "pax-hybrid"
)

// Config sizes a fixture.
type Config struct {
	Host     sim.HostProfile
	DataSize uint64 // heap / vPM region
	LogSize  uint64 // undo log region (all crash-consistent systems)
	HBMSize  int    // PAX device cache; 0 disables
	HBMWays  int
	Policy   hbm.Policy
	Buckets  int // initial hash buckets
}

// DefaultConfig returns the paper-scale fixture configuration.
func DefaultConfig() Config {
	return Config{
		Host:     sim.DefaultHost(),
		DataSize: 256 << 20,
		LogSize:  64 << 20,
		HBMSize:  16 << 20,
		HBMWays:  8,
		Policy:   hbm.PreferDurable,
		// Pre-sized so the table never rehashes mid-run: measurements are
		// stationary, and the PMDK baseline is not dominated by one giant
		// rehash transaction.
		Buckets: 1 << 20,
	}
}

// TestConfig returns a miniature configuration for unit tests.
func TestConfig() Config {
	return Config{
		Host:     sim.SmallHost(),
		DataSize: 4 << 20,
		LogSize:  4 << 20,
		HBMSize:  64 << 10,
		HBMWays:  4,
		Policy:   hbm.PreferDurable,
		Buckets:  4096,
	}
}

// KVMap is the operation surface every fixture exposes.
type KVMap interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, bool)
}

// Fixture is one ready-to-run system under test.
type Fixture struct {
	Map KVMap
	// Persist commits an epoch/group boundary; no-op for non-snapshot
	// systems (DRAM, PM-direct, PMDK which commits per op).
	Persist func()
	// PersistPipelined is the §6 non-blocking persist; nil except for PAX.
	PersistPipelined func()

	Core *cache.Core
	Hier *cache.Hierarchy
	PM   *pmem.Device
	Link *cxl.Link      // nil unless PAX
	Dev  *device.Device // nil unless PAX
	Pool *core.Pool     // nil unless PAX
	// PoolOpts are the core options a PAX pool was built with (for
	// crash-image reopening).
	PoolOpts core.Options

	// RawMem is the mechanism-facing memory (the tracker for page-fault
	// systems, a vPM view for PAX, the core itself for direct systems); the
	// write-amplification and trap experiments drive raw stores through it.
	RawMem memory.Memory
	// Arena is the allocator structures are built from; experiments that
	// construct additional structures (the scan workload's B+tree) use it.
	Arena memory.Allocator
	// OpWrap runs one mutating structure operation under the mechanism's
	// failure-atomicity discipline (a WAL transaction for the PMDK and
	// compiler-pass baselines; a plain call elsewhere).
	OpWrap func(op func())

	// Fences reports cumulative ordering stalls; LoggedBytes cumulative
	// undo-log volume; Traps cumulative protection faults. Zero-value
	// closures report 0.
	Fences      func() uint64
	LoggedBytes func() uint64
	Traps       func() uint64
}

func noCount() uint64 { return 0 }

func plainWrap(op func()) { op() }

// cpMap adapts the compiler-pass instrumented memory to KVMap: the pass
// brackets each outermost operation.
type cpMap struct {
	in *compilerpass.Instrumented
	hm *structures.HashMap
}

func (m *cpMap) Put(k, v []byte) error {
	m.in.BeginOp()
	err := m.hm.Put(k, v)
	m.in.EndOp()
	return err
}

func (m *cpMap) Get(k []byte) ([]byte, bool) { return m.hm.Get(k) }

// Build constructs a fixture of the given kind.
func Build(kind SystemKind, cfg Config) (*Fixture, error) {
	switch kind {
	case DRAM, PMDirect:
		return buildDirect(kind, cfg)
	case PMDK:
		return buildPMDK(cfg)
	case CompilerPass:
		return buildCompilerPass(cfg)
	case PageFault:
		return buildPageFault(cfg)
	case PAXCXL:
		return buildPAX(cfg, sim.CXLLink)
	case PAXEnzian:
		return buildPAX(cfg, sim.EnzianLink)
	case PAXHybrid:
		return buildHybrid(cfg)
	default:
		return nil, fmt.Errorf("benchkit: unknown system %q", kind)
	}
}

// buildDirect places the heap directly on DRAM- or PM-configured media with
// no crash consistency — the paper's "DRAM" and "PM Direct" series.
func buildDirect(kind SystemKind, cfg Config) (*Fixture, error) {
	var mediaCfg pmem.Config
	if kind == DRAM {
		mediaCfg = pmem.DRAMConfig(int(cfg.DataSize))
	} else {
		mediaCfg = pmem.DefaultConfig(int(cfg.DataSize))
	}
	pm := pmem.New(mediaCfg)
	hier := cache.NewHierarchy(cfg.Host)
	hier.AddRange(0, cfg.DataSize, memory.NewControllerHome(pm, 0, 0, cfg.DataSize))
	c := hier.Core(0)
	arena := alloc.Create(c, 0, cfg.DataSize)
	hm, err := structures.NewHashMap(arena, cfg.Buckets)
	if err != nil {
		return nil, err
	}
	return &Fixture{
		Map: hm, Persist: func() {},
		Core: c, Hier: hier, PM: pm, RawMem: c,
		Arena: arena, OpWrap: plainWrap,
		Fences: noCount, LoggedBytes: noCount, Traps: noCount,
	}, nil
}

// buildPMDK: hand-crafted WAL over PM. Layout: [wal log | heap].
func buildPMDK(cfg Config) (*Fixture, error) {
	total := cfg.LogSize + cfg.DataSize
	pm := pmem.New(pmem.DefaultConfig(int(total)))
	hier := cache.NewHierarchy(cfg.Host)
	hier.AddRange(0, total, memory.NewControllerHome(pm, 0, 0, total))
	c := hier.Core(0)
	tx := pmdk.New(c, 0, cfg.LogSize)

	tx.Begin() // construction is a transaction
	arena := alloc.Create(tx, cfg.LogSize, cfg.DataSize)
	hm, err := structures.NewHashMap(arena, cfg.Buckets)
	tx.Commit()
	if err != nil {
		return nil, err
	}
	return &Fixture{
		Map: pmdk.NewMap(tx, hm), Persist: func() {},
		Core: c, Hier: hier, PM: pm, RawMem: c,
		Arena: arena,
		OpWrap: func(op func()) {
			tx.Begin()
			op()
			tx.Commit()
		},
		Fences:      func() uint64 { return tx.Log().Fences.Load() },
		LoggedBytes: func() uint64 { return tx.Log().AppendedBytes.Load() },
		Traps:       noCount,
	}, nil
}

// buildCompilerPass: per-store instrumented WAL over PM.
func buildCompilerPass(cfg Config) (*Fixture, error) {
	total := cfg.LogSize + cfg.DataSize
	pm := pmem.New(pmem.DefaultConfig(int(total)))
	hier := cache.NewHierarchy(cfg.Host)
	hier.AddRange(0, total, memory.NewControllerHome(pm, 0, 0, total))
	c := hier.Core(0)
	in := compilerpass.New(c, 0, cfg.LogSize)

	in.BeginOp()
	arena := alloc.Create(in, cfg.LogSize, cfg.DataSize)
	hm, err := structures.NewHashMap(arena, cfg.Buckets)
	in.EndOp()
	if err != nil {
		return nil, err
	}
	return &Fixture{
		Map: &cpMap{in: in, hm: hm}, Persist: func() {},
		Core: c, Hier: hier, PM: pm, RawMem: c,
		Arena: arena,
		OpWrap: func(op func()) {
			in.BeginOp()
			op()
			in.EndOp()
		},
		Fences:      func() uint64 { return in.Log().Fences.Load() },
		LoggedBytes: func() uint64 { return in.Log().AppendedBytes.Load() },
		Traps:       noCount,
	}, nil
}

// buildPageFault: page-protection tracking with epoch snapshots over PM.
func buildPageFault(cfg Config) (*Fixture, error) {
	total := cfg.LogSize + cfg.DataSize
	pm := pmem.New(pmem.DefaultConfig(int(total)))
	hier := cache.NewHierarchy(cfg.Host)
	hier.AddRange(0, total, memory.NewControllerHome(pm, 0, 0, total))
	c := hier.Core(0)
	tr := pagefault.New(c, 0, cfg.LogSize)
	arena := alloc.Create(tr, cfg.LogSize, cfg.DataSize)
	hm, err := structures.NewHashMap(arena, cfg.Buckets)
	if err != nil {
		return nil, err
	}
	return &Fixture{
		Map:     hm,
		Persist: func() { tr.Persist() },
		Core:    c, Hier: hier, PM: pm, RawMem: tr,
		Arena: arena, OpWrap: plainWrap,
		Fences:      func() uint64 { return tr.Log().Fences.Load() },
		LoggedBytes: func() uint64 { return tr.Log().AppendedBytes.Load() },
		Traps:       func() uint64 { return tr.Traps.Load() },
	}, nil
}

// buildPAX: the paper's system — a pool on a PAX device.
func buildPAX(cfg Config, link sim.LinkProfile) (*Fixture, error) {
	opts := core.Options{
		DataSize: cfg.DataSize,
		LogSize:  cfg.LogSize,
		Device:   device.Config{Link: link, HBMSize: cfg.HBMSize, HBMWays: cfg.HBMWays, Policy: cfg.Policy},
		Host:     cfg.Host,
	}
	pm := pmem.New(pmem.DefaultConfig(int(core.HeaderSize + cfg.LogSize + cfg.DataSize)))
	pool, err := core.Create(pm, opts)
	if err != nil {
		return nil, err
	}
	hm, err := structures.NewHashMap(pool.Arena(), cfg.Buckets)
	if err != nil {
		return nil, err
	}
	pool.SetRoot(0, hm.Addr())
	dev := pool.Device()
	return &Fixture{
		Map:              hm,
		Persist:          func() { pool.Persist() },
		PersistPipelined: func() { pool.PersistPipelined() },
		Core:             pool.Hierarchy().Core(0),
		Hier:             pool.Hierarchy(),
		PM:               pm,
		Link:             dev.Link(),
		Dev:              dev,
		Pool:             pool,
		PoolOpts:         opts,
		RawMem:           pool.Mem(0),
		Arena:            pool.Arena(),
		OpWrap:           plainWrap,
		Fences:           noCount, // PAX stalls only inside persist()
		LoggedBytes:      func() uint64 { return dev.Log().Appends() * undolog.EntrySize },
		Traps:            noCount,
	}, nil
}

// buildHybrid: a PAX pool whose data region is additionally aliased through
// a direct controller mapping; accesses route through hybrid.Memory. The
// hybrid fixture owns the data region (its allocator supersedes the pool's)
// and uses region-relative addresses.
func buildHybrid(cfg Config) (*Fixture, error) {
	opts := core.Options{
		DataSize: cfg.DataSize,
		LogSize:  cfg.LogSize,
		Device:   device.Config{Link: sim.CXLLink, HBMSize: cfg.HBMSize, HBMWays: cfg.HBMWays, Policy: cfg.Policy},
		Host:     cfg.Host,
	}
	pm := pmem.New(pmem.DefaultConfig(int(core.HeaderSize + cfg.LogSize + cfg.DataSize)))
	pool, err := core.Create(pm, opts)
	if err != nil {
		return nil, err
	}
	hier := pool.Hierarchy()
	const directBase = uint64(1) << 40
	hier.AddRange(directBase, cfg.DataSize,
		memory.NewControllerHome(pm, directBase, pool.DataBase(), cfg.DataSize))
	c := hier.Core(0)
	hmem := hybrid.New(c, c, hier, directBase, pool.DataBase(), cfg.DataSize)

	arena := alloc.Create(hmem, 0, cfg.DataSize)
	hm, err := structures.NewHashMap(arena, cfg.Buckets)
	if err != nil {
		return nil, err
	}
	dev := pool.Device()
	return &Fixture{
		Map: hm,
		// Each epoch commit re-protects all pages (the paging model's
		// per-epoch tracking), so clean pages read direct again.
		Persist:          func() { pool.Persist(); hmem.ResetProtections() },
		PersistPipelined: func() { pool.PersistPipelined(); hmem.ResetProtections() },
		Core:             c,
		Hier:             hier,
		PM:               pm,
		Link:             dev.Link(),
		Dev:              dev,
		Pool:             pool,
		PoolOpts:         opts,
		RawMem:           hmem,
		Arena:            arena,
		OpWrap:           plainWrap,
		Fences:           noCount,
		LoggedBytes:      func() uint64 { return dev.Log().Appends() * undolog.EntrySize },
		Traps: func() uint64 {
			return hmem.Faults.Load()
		},
	}, nil
}

// ReopenCrashImage treats img as a post-crash media image of a PAX
// fixture's pool: it builds a fresh device from it and runs recovery,
// returning the recovered pool.
func ReopenCrashImage(f *Fixture, img []byte) (*core.Pool, error) {
	pm := pmem.New(pmem.DefaultConfig(len(img)))
	pm.Restore(img)
	return core.Open(pm, f.PoolOpts)
}
