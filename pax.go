// Package pax is the public API of the PAX reproduction: crash-consistent
// snapshots for unmodified volatile data structures via a (simulated)
// cache-coherent persistence accelerator, after "Cache-Coherent Accelerators
// for Persistent Memory Crash Consistency" (HotStorage '22).
//
// The programming model mirrors the paper's Listing 1:
//
//	pool, _ := pax.MapPool("./ht.pool", pax.DefaultOptions())
//	defer pool.Close()
//	m, _ := pax.NewMap(pool, 0)         // constructs or recovers, same call
//	m.Put([]byte("k"), []byte("v"))
//	v, ok := m.Get([]byte("k"))
//	pool.Persist()                      // atomic, crash-consistent snapshot
//
// Everything between two Persist calls is one epoch; after a crash the pool
// always recovers to exactly the state of the last completed Persist.
package pax

import (
	"errors"
	"fmt"
	"os"

	"pax/internal/core"
	"pax/internal/device"
	"pax/internal/epochlog"
	"pax/internal/hbm"
	"pax/internal/pmem"
	"pax/internal/seglog"
	"pax/internal/sim"
	"pax/internal/stats"
	"pax/internal/undolog"
)

// DeviceProfile selects the accelerator transport the simulated PAX device
// uses.
type DeviceProfile string

// Supported device profiles.
const (
	// ProfileCXL models a CXL 2.0 accelerator: ~25 ns/direction link, 1 GHz
	// ASIC-class message pipeline.
	ProfileCXL DeviceProfile = "cxl"
	// ProfileEnzian models the paper's Enzian prototype: ~250 ns/direction
	// coherence messages, 300 MHz FPGA pipeline.
	ProfileEnzian DeviceProfile = "enzian"
)

// Options configure a pool.
type Options struct {
	// DataSize is the vPM data region size in bytes (default 64 MiB).
	DataSize uint64
	// LogSize is the undo log region size in bytes (default 8 MiB). Size it
	// for the largest epoch working set: ~96 bytes per modified cache line.
	LogSize uint64
	// Profile selects the accelerator transport (default ProfileCXL).
	Profile DeviceProfile
	// HBMSize is the on-device cache size in bytes (default 16 MiB; 0
	// disables the device cache). Negative sizes are rejected.
	HBMSize int
	// Overwrite lets CreatePool reformat a path that already holds a file.
	// Without it, CreatePool refuses to clobber existing pools.
	Overwrite bool
	// Deprecated: EpochLog is ignored. Every file-backed pool persists
	// through the delta epoch store — each Persist appends and fsyncs the
	// dirty byte ranges to <path>.epochlog/, and the pool file is a
	// background checkpoint — so there is nothing left to select. The field
	// remains so existing callers compile.
	EpochLog bool
	// FS is where a file-backed pool keeps its files (nil means the
	// operating system's). It selects no behaviour, only where bytes go.
	FS seglog.FS
}

// DefaultOptions returns the default pool configuration.
func DefaultOptions() Options {
	return Options{DataSize: 64 << 20, LogSize: 8 << 20, Profile: ProfileCXL, HBMSize: 16 << 20}
}

func (o Options) fill() (core.Options, error) {
	if o.DataSize == 0 {
		o.DataSize = 64 << 20
	}
	if o.LogSize == 0 {
		o.LogSize = 8 << 20
	}
	if o.LogSize < undolog.MinRegionSize {
		return core.Options{}, fmt.Errorf(
			"pax: LogSize %d too small: the undo log needs at least %d bytes (64-byte header + one %d-byte entry)",
			o.LogSize, undolog.MinRegionSize, undolog.EntrySize)
	}
	if o.HBMSize < 0 {
		return core.Options{}, fmt.Errorf("pax: negative HBMSize %d (use 0 to disable the device cache)", o.HBMSize)
	}
	link := sim.CXLLink
	switch o.Profile {
	case ProfileCXL, "":
		link = sim.CXLLink
	case ProfileEnzian:
		link = sim.EnzianLink
	default:
		return core.Options{}, fmt.Errorf("pax: unknown device profile %q", o.Profile)
	}
	// Normalize the HBM geometry: the cache needs a power-of-two set count,
	// so round the requested size down to a power-of-two line count and cap
	// associativity at 8.
	hbmSize, hbmWays := 0, 0
	if lines := o.HBMSize / 64; lines > 0 {
		p := 1
		for p*2 <= lines {
			p *= 2
		}
		hbmWays = 8
		if p < hbmWays {
			hbmWays = p
		}
		hbmSize = p * 64
	}
	return core.Options{
		DataSize: o.DataSize,
		LogSize:  o.LogSize,
		Device: device.Config{
			Link:    link,
			HBMSize: hbmSize,
			HBMWays: hbmWays,
			Policy:  hbm.PreferDurable,
		},
		Host: sim.DefaultHost(),
	}, nil
}

// PersistStats describes one completed Persist.
type PersistStats struct {
	// Epoch is the epoch number that became durable.
	Epoch uint64
	// LinesSnooped is how many modified lines the device recalled from host
	// caches; LinesWritten how many it wrote back to PM.
	LinesSnooped, LinesWritten int
	// SimulatedLatency is the virtual time the device took to commit the
	// epoch: its completion time minus the calling core's clock at the call.
	// It depends on the epoch's dirty lines, not on how much the pool has
	// simulated before. For PersistAsync it is the device-side commit
	// duration, not the (shorter) time the caller was held.
	SimulatedLatency sim.Time
	// PersistedBytes is how many bytes the media commit actually wrote: the
	// delta record size. Dividing by the pool size gives the commit's write
	// amplification.
	PersistedBytes int64
}

// RecoveryInfo describes what opening the pool had to repair.
type RecoveryInfo struct {
	// DurableEpoch is the snapshot the pool recovered to.
	DurableEpoch uint64
	// LinesRolledBack is how many cache lines were undone from the log.
	LinesRolledBack int
}

// Pool is an open PAX pool.
type Pool struct {
	inner *core.Pool
	pm    *pmem.Device
	path  string
}

func poolSize(o core.Options) int {
	return int(core.HeaderSize + o.LogSize + o.DataSize)
}

// pmemConfig builds the media-device config for a pool: the default
// Optane-class device plus the location of the pool's durable-epoch cell
// (so delta records are stamped with the epoch they commit).
func pmemConfig(size int, fs seglog.FS) pmem.Config {
	cfg := pmem.DefaultConfig(size)
	cfg.EpochCellOffset = core.EpochCellOffset
	cfg.FS = fs
	return cfg
}

// CreatePool formats a new pool. With a non-empty path the pool is backed by
// that file; with an empty path it is in-memory. An existing file at path is
// an error unless opts.Overwrite is set — a pool is durable state, and
// reformatting one should never happen by accident.
func CreatePool(path string, opts Options) (*Pool, error) {
	copts, err := opts.fill()
	if err != nil {
		return nil, err
	}
	var pm *pmem.Device
	if path == "" {
		pm = pmem.New(pmemConfig(poolSize(copts), nil))
	} else {
		fs := seglog.OrOS(opts.FS)
		if _, err := fs.Stat(path); err == nil {
			if !opts.Overwrite {
				return nil, fmt.Errorf("pax: pool %q already exists (set Options.Overwrite to reformat it)", path)
			}
			// A failed remove must not fall through to pmem.Open: that would
			// silently reopen the old pool instead of reformatting it.
			if err := fs.Remove(path); err != nil {
				return nil, fmt.Errorf("pax: reformatting pool: %w", err)
			}
		}
		// Formatting means a fresh pool: stale epoch-log segments from a
		// previous life of this path must never replay onto the new image.
		if err := fs.RemoveAll(path + epochlog.DirSuffix); err != nil {
			return nil, fmt.Errorf("pax: clearing stale epoch log: %w", err)
		}
		pm, err = pmem.Open(path, pmemConfig(poolSize(copts), fs))
		if err != nil {
			return nil, err
		}
	}
	inner, err := core.Create(pm, copts)
	if err != nil {
		return nil, err
	}
	return &Pool{inner: inner, pm: pm, path: path}, nil
}

// OpenPool opens (and, if needed, recovers) an existing pool file. The
// region geometry (DataSize/LogSize) comes from the pool header, not opts,
// so a pool can be reopened without repeating its creation sizes; Profile
// and HBMSize still configure the device.
func OpenPool(path string, opts Options) (*Pool, error) {
	copts, err := opts.fill()
	if err != nil {
		return nil, err
	}
	fi, err := seglog.OrOS(opts.FS).Stat(path)
	if err != nil {
		return nil, fmt.Errorf("pax: opening pool: %w", err)
	}
	pm, err := pmem.Open(path, pmemConfig(int(fi.Size()), opts.FS))
	if err != nil {
		return nil, err
	}
	inner, err := core.Open(pm, copts)
	if err != nil {
		return nil, err
	}
	return &Pool{inner: inner, pm: pm, path: path}, nil
}

// MapPool is the Listing 1 entry point: open the pool file if it exists
// (recovering as needed), otherwise create it.
func MapPool(path string, opts Options) (*Pool, error) {
	if path == "" {
		return CreatePool("", opts)
	}
	if _, err := seglog.OrOS(opts.FS).Stat(path); errors.Is(err, os.ErrNotExist) {
		return CreatePool(path, opts)
	}
	return OpenPool(path, opts)
}

// Persist makes everything written since the previous Persist durable as one
// atomic snapshot (§3.3). No goroutine may be mutating pool structures
// during the call (§3.5).
//
// A non-nil error is a durability failure: the backing medium refused the
// image (EIO, ENOSPC, a dead disk), the snapshot is NOT durable, and after a
// restart the pool recovers to the previous successful Persist. Callers
// serving clients must not ack any write from the failed epoch. Retrying
// Persist is legal — a later successful call makes everything up to it
// durable. The stats are returned either way for their timing fields.
func (p *Pool) Persist() (PersistStats, error) {
	return p.persistStats(p.inner.Persist)
}

// PersistAsync is the §6 non-blocking persist: the snapshot point is now,
// but the calling thread does not wait for the device to finish committing.
// A later Persist or Close fully serializes. Errors mean the same thing as
// for Persist: the epoch is not durable on media.
func (p *Pool) PersistAsync() (PersistStats, error) {
	return p.persistStats(p.inner.PersistPipelined)
}

// persistStats runs one of core's persists and reports it. The device
// report's Done is an absolute virtual time, so the latency is measured from
// core 0's clock at the call — the clock the persist is issued on.
func (p *Pool) persistStats(persist func() (device.PersistReport, error)) (PersistStats, error) {
	start := p.inner.Hierarchy().Core(0).Now()
	rep, err := persist()
	st := PersistStats{
		Epoch:            rep.Epoch,
		LinesSnooped:     rep.LinesSnooped,
		LinesWritten:     rep.LinesWritten,
		SimulatedLatency: rep.Done - start,
	}
	if err == nil {
		st.PersistedBytes = p.pm.LastSyncBytes()
	}
	return st, err
}

// Recovery reports what opening this pool repaired (zero after CreatePool).
func (p *Pool) Recovery() RecoveryInfo {
	r := p.inner.Recovery()
	return RecoveryInfo{DurableEpoch: r.DurableEpoch, LinesRolledBack: r.LinesRolledBack}
}

// Epoch reports the current (not yet durable) epoch number.
func (p *Pool) Epoch() uint64 { return p.inner.Epoch() }

// MediaSize reports the total media footprint of the pool (header + undo log
// + data region) — the denominator of the write-amplification metric.
func (p *Pool) MediaSize() int { return p.pm.Size() }

// DurableEpoch reports the last committed epoch.
func (p *Pool) DurableEpoch() uint64 { return p.inner.DurableEpoch() }

// Close syncs the backing file (if any) without persisting the open epoch:
// exactly like a crash, unpersisted changes are rolled back on next open.
func (p *Pool) Close() error { return p.inner.Close() }

// Alloc reserves size bytes of vPM and returns its address. Most callers use
// the structure constructors instead.
func (p *Pool) Alloc(size uint64) (uint64, error) { return p.inner.Allocator().Alloc(size) }

// Free releases a block obtained from Alloc.
func (p *Pool) Free(addr, size uint64) error { return p.inner.Allocator().Free(addr, size) }

// Load reads raw vPM bytes (through the simulated host caches).
func (p *Pool) Load(addr uint64, buf []byte) { p.inner.Mem(0).Load(addr, buf) }

// Store writes raw vPM bytes (through the simulated host caches).
func (p *Pool) Store(addr uint64, data []byte) { p.inner.Mem(0).Store(addr, data) }

// SetRoot stores addr in one of the pool's named root slots (0..15).
func (p *Pool) SetRoot(slot int, addr uint64) { p.inner.SetRoot(slot, addr) }

// Root reads a named root slot; 0 means unset.
func (p *Pool) Root(slot int) uint64 { return p.inner.Root(slot) }

// Internal exposes the underlying core pool for the benchmark harness and
// tools inside this module.
func (p *Pool) Internal() *core.Pool { return p.inner }

// PoolStats is a point-in-time snapshot of the pool's device, host-cache,
// and undo-log counters. Like every pool operation it must not race with a
// mutator: take snapshots from the goroutine that owns the pool (the serving
// engine does exactly that).
type PoolStats struct {
	// Epoch is the open epoch; DurableEpoch the last committed one.
	Epoch, DurableEpoch uint64

	// Device-side counters (§3.2/§3.3 event stream).
	DeviceLogAppends   uint64 // undo entries written
	DeviceLogSkips     uint64 // upgrades for lines already logged this epoch
	DeviceFillsServed  uint64 // host line fills served
	DeviceHBMHits      uint64 // fills served from the HBM cache
	DeviceHBMMisses    uint64 // fills that went to PM media
	DeviceSnoopsSent   uint64 // persist()-time SnpData recalls
	DeviceSnoopsDirty  uint64 // recalls that returned modified data
	DeviceLinesWritten uint64 // lines written back to PM data space
	DevicePersists     uint64 // persist() calls completed

	// Host cache-hierarchy counters.
	HostLLCHits    uint64
	HostLLCMisses  uint64
	HostUpgrades   uint64 // exclusive-ownership notifications (log triggers)
	HostWriteBacks uint64 // dirty LLC evictions

	// Undo-log occupancy.
	LogLiveEntries     int // entries not yet truncated
	LogCapacityEntries int // total entry slots
	LogPeakLive        int // high-water mark of live entries
	LogAppends         uint64
	LogTruncations     uint64
}

// Stats snapshots the pool's device/cache/undo-log counters.
func (p *Pool) Stats() PoolStats {
	d := p.inner.Device()
	h := p.inner.Hierarchy()
	log := d.Log()
	s := PoolStats{
		Epoch:              p.inner.Epoch(),
		DurableEpoch:       p.inner.DurableEpoch(),
		DeviceLogAppends:   d.Stats.LogAppends.Load(),
		DeviceLogSkips:     d.Stats.LogSkips.Load(),
		DeviceFillsServed:  d.Stats.FillsServed.Load(),
		DeviceHBMHits:      d.Stats.HBMHits.Load(),
		DeviceSnoopsSent:   d.Stats.SnoopsSent.Load(),
		DeviceSnoopsDirty:  d.Stats.SnoopsDirty.Load(),
		DeviceLinesWritten: d.Stats.LinesPersisted.Load(),
		DevicePersists:     d.Stats.Persists.Load(),
		HostLLCHits:        h.LLCRatio.Hits.Load(),
		HostLLCMisses:      h.LLCRatio.Misses.Load(),
		HostUpgrades:       h.Upgrades.Load(),
		HostWriteBacks:     h.WriteBacks.Load(),
		LogLiveEntries:     log.Live(),
		LogCapacityEntries: log.CapacityEntries(),
		LogPeakLive:        log.PeakLive,
		LogAppends:         log.Appends,
		LogTruncations:     log.Truncations,
	}
	s.DeviceHBMMisses = s.DeviceFillsServed - s.DeviceHBMHits
	return s
}

// StatsRegistry returns a metrics registry over this pool's live counters,
// with stable `pax_*` gauge names. Sampling the registry reads the same
// counters as Stats and has the same single-mutator requirement.
func (p *Pool) StatsRegistry() *stats.Registry {
	r := stats.NewRegistry()
	gauge := func(name string, fn func(PoolStats) float64) {
		r.Register(name, func() float64 { return fn(p.Stats()) })
	}
	gauge("pax_epoch", func(s PoolStats) float64 { return float64(s.Epoch) })
	gauge("pax_durable_epoch", func(s PoolStats) float64 { return float64(s.DurableEpoch) })
	gauge("pax_device_log_appends", func(s PoolStats) float64 { return float64(s.DeviceLogAppends) })
	gauge("pax_device_log_skips", func(s PoolStats) float64 { return float64(s.DeviceLogSkips) })
	gauge("pax_device_fills_served", func(s PoolStats) float64 { return float64(s.DeviceFillsServed) })
	gauge("pax_device_hbm_hits", func(s PoolStats) float64 { return float64(s.DeviceHBMHits) })
	gauge("pax_device_hbm_misses", func(s PoolStats) float64 { return float64(s.DeviceHBMMisses) })
	gauge("pax_device_snoops_sent", func(s PoolStats) float64 { return float64(s.DeviceSnoopsSent) })
	gauge("pax_device_snoops_dirty", func(s PoolStats) float64 { return float64(s.DeviceSnoopsDirty) })
	gauge("pax_device_lines_written", func(s PoolStats) float64 { return float64(s.DeviceLinesWritten) })
	gauge("pax_device_persists", func(s PoolStats) float64 { return float64(s.DevicePersists) })
	gauge("pax_host_llc_hits", func(s PoolStats) float64 { return float64(s.HostLLCHits) })
	gauge("pax_host_llc_misses", func(s PoolStats) float64 { return float64(s.HostLLCMisses) })
	gauge("pax_host_upgrades", func(s PoolStats) float64 { return float64(s.HostUpgrades) })
	gauge("pax_host_writebacks", func(s PoolStats) float64 { return float64(s.HostWriteBacks) })
	gauge("pax_log_live_entries", func(s PoolStats) float64 { return float64(s.LogLiveEntries) })
	gauge("pax_log_capacity_entries", func(s PoolStats) float64 { return float64(s.LogCapacityEntries) })
	gauge("pax_log_peak_live", func(s PoolStats) float64 { return float64(s.LogPeakLive) })
	gauge("pax_log_appends_total", func(s PoolStats) float64 { return float64(s.LogAppends) })
	gauge("pax_log_truncations_total", func(s PoolStats) float64 { return float64(s.LogTruncations) })

	// Persist-stage latency histograms (lock-free; each renders as
	// name{q="p50"…"p999"} + name_count + name_sum lines). The *_ns names are
	// wall-clock; pax_persist_log_wait_ps is simulated picoseconds.
	t := p.inner.Timings()
	r.RegisterLatencyHistogram("pax_persist_device_ns", &t.DeviceNS)
	r.RegisterLatencyHistogram("pax_persist_sync_ns", &t.SyncNS)
	r.RegisterLatencyHistogram("pax_persist_log_wait_ps", &t.LogWaitPS)
	// Bytes per media commit (a size histogram on the latency machinery):
	// the delta record each Persist appended, O(dirty bytes).
	r.RegisterLatencyHistogram("pax_persist_bytes", &t.SyncBytes)
	st := &p.pm.SyncTimings
	r.RegisterLatencyHistogram("pax_sync_append_ns", &st.Append)
	r.RegisterLatencyHistogram("pax_sync_ns", &st.Total)

	// Epoch-store counters. The checkpoint and segment gauges stay zero on
	// an in-memory pool, which has no log to write.
	r.Register("pax_sync_bytes_total", func() float64 { return float64(p.pm.SyncBytes.Load()) })
	r.Register("pax_sync_last_bytes", func() float64 { return float64(p.pm.LastSyncBytes()) })
	r.Register("pax_epoch_checkpoints_total", func() float64 { return float64(p.pm.Checkpoints.Load()) })
	r.Register("pax_epoch_checkpoint_bytes_total", func() float64 { return float64(p.pm.CheckpointBytes.Load()) })
	r.Register("pax_epoch_checkpoint_failures_total", func() float64 { return float64(p.pm.CheckpointFailures.Load()) })
	r.Register("pax_epoch_log_live_bytes", func() float64 {
		if el := p.pm.EpochStore(); el != nil {
			return float64(el.LiveBytes())
		}
		return 0
	})
	r.Register("pax_epoch_log_segments", func() float64 {
		if el := p.pm.EpochStore(); el != nil {
			return float64(len(el.Segments()))
		}
		return 0
	})
	return r
}
