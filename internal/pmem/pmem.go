// Package pmem models a persistent-memory device: a byte-addressable medium
// with Optane-class latency and asymmetric read/write bandwidth, ADR
// durability semantics (a write accepted by the device is durable across
// power loss), 8-byte atomic write units, and optional file backing so pools
// survive real process restarts.
//
// The model follows Yang et al. (FAST'20): 305 ns random 64 B reads, ~94 ns
// stores into the controller's write-pending queue, ~40 GB/s read and
// ~14 GB/s write bandwidth per socket.
//
// Crash semantics: everything written to the Device is durable (ADR places
// the controller write queue inside the persistence domain). Volatile state —
// CPU caches, accelerator buffers, un-issued stores — lives in the layers
// above and is what crash injection discards.
package pmem

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pax/internal/epochlog"
	"pax/internal/seglog"
	"pax/internal/sim"
	"pax/internal/stats"
)

// AtomicWriteUnit is the granularity at which PM hardware guarantees failure
// atomicity of a single store (8 bytes on x86).
const AtomicWriteUnit = 8

// FaultOp identifies a media-durability stage a fault hook can fail: the
// seglog stage vocabulary, which the full-image publish and the epoch log
// both run through. In-memory devices, which have no file to sync, consult
// only FaultFileSync (modeling the media commit itself), so one fault
// schedule drives both backings.
type FaultOp = seglog.Stage

// Sync stages, in execution order.
const (
	// FaultWriteImage fails writing the staged temp image (ENOSPC-class).
	FaultWriteImage = seglog.StageWrite
	// FaultFileSync fails the temp file's fsync (EIO-class). This is the
	// stage the FailSyncs/FailSyncsAfter schedules count.
	FaultFileSync = seglog.StageFsync
	// FaultRename fails publishing the image under the pool's name.
	FaultRename = seglog.StageRename
	// FaultDirSync fails the directory fsync that makes the rename durable.
	FaultDirSync = seglog.StageDirSync

	// Epoch-log (delta) mode stages.

	// FaultAppend fails writing a delta record into the epoch log.
	FaultAppend = seglog.StageAppend
	// FaultCheckpoint fails a background checkpoint before it starts; the
	// log keeps every commit durable, so the failure only defers compaction.
	FaultCheckpoint FaultOp = "checkpoint"
	// FaultCompact fails deleting a checkpoint-covered segment.
	FaultCompact = seglog.StageRemove
)

// Config parameterizes a Device.
type Config struct {
	// Size is the media capacity in bytes.
	Size int
	// ReadLatency and WriteLatency are per-access service latencies.
	ReadLatency, WriteLatency sim.Time
	// ReadBandwidth and WriteBandwidth are channel rates in bytes/second.
	ReadBandwidth, WriteBandwidth float64
	// FaultFn, when set, is consulted before each media-durability stage; a
	// non-nil return makes that stage fail with the returned error. Fault
	// injection for tests and chaos harnesses — see FailSyncs and
	// FailSyncsAfter for ready-made schedules. Installable after Open via
	// SetFaultFn.
	FaultFn func(FaultOp) error

	// EpochLog selects the log-structured delta epoch store: Sync appends a
	// delta record of the dirty byte ranges to <path>.epochlog/ instead of
	// republishing the full image, which becomes the background checkpoint.
	// On an in-memory device there is no log to write, but the device still
	// tracks dirty ranges so LastSyncBytes models the delta cost.
	EpochLog bool
	// EpochLogSegmentBytes is the segment roll threshold (0 = epochlog's
	// default).
	EpochLogSegmentBytes int64
	// EpochLogCheckpointBytes is the log size past which a background
	// checkpoint is kicked (0 = DefaultCheckpointBytes).
	EpochLogCheckpointBytes int64
	// EpochCellOffset is the media offset of the pool's 8-byte durable-epoch
	// cell; each delta record is stamped with its little-endian value so the
	// log is inspectable by epoch. ≤ 0 means no cell (records stamp 0).
	EpochCellOffset int64
}

// DefaultCheckpointBytes is the default epoch-log size that triggers a
// background full-image checkpoint.
const DefaultCheckpointBytes = 16 << 20

// FailSyncs returns a fault schedule whose first n media syncs fail with err
// and whose later ones succeed — a transient fault the medium recovers from.
// The schedule counts FaultFileSync stages only, so one schedule means the
// same thing on file-backed and in-memory devices. Safe for concurrent use.
func FailSyncs(n int, err error) func(FaultOp) error {
	var calls atomic.Int64
	return func(op FaultOp) error {
		if op != FaultFileSync {
			return nil
		}
		if calls.Add(1) <= int64(n) {
			return err
		}
		return nil
	}
}

// FailSyncsAfter returns a fault schedule whose first k media syncs succeed
// and whose later ones all fail with err — a persistent fault (dead device,
// filesystem gone read-only). k=0 fails every sync. Counts like FailSyncs.
func FailSyncsAfter(k int, err error) func(FaultOp) error {
	var calls atomic.Int64
	return func(op FaultOp) error {
		if op != FaultFileSync {
			return nil
		}
		if calls.Add(1) > int64(k) {
			return err
		}
		return nil
	}
}

// DefaultConfig returns an Optane-DCPMM-like device of the given size.
func DefaultConfig(size int) Config {
	return Config{
		Size:           size,
		ReadLatency:    sim.PMReadLatency,
		WriteLatency:   sim.PMWriteLatency,
		ReadBandwidth:  sim.PMReadBandwidth,
		WriteBandwidth: sim.PMWriteBandwidth,
	}
}

// DRAMConfig returns a DRAM-like device of the given size; the same Device
// type backs the volatile baselines so every configuration shares one code
// path.
func DRAMConfig(size int) Config {
	return Config{
		Size:           size,
		ReadLatency:    sim.DRAMLatency,
		WriteLatency:   sim.DRAMLatency,
		ReadBandwidth:  sim.DRAMBandwidth,
		WriteBandwidth: sim.DRAMBandwidth,
	}
}

// Device is one simulated memory device. All methods are safe for concurrent
// use; timing methods serialize on the device's internal channel model, which
// is also physically accurate (a DIMM is a shared resource).
type Device struct {
	mu    sync.Mutex
	cfg   Config
	media []byte
	path  string // backing file; empty for in-memory devices

	readBW  *sim.BandwidthMeter
	writeBW *sim.BandwidthMeter

	// writeHook, when set, observes every media write (crash-exploration
	// tests record the exact durable-write sequence through it).
	writeHook func(addr uint64, data []byte)

	// faultFn, when set, can fail media-durability stages (see FaultOp).
	faultFn func(FaultOp) error

	// Epoch-log (delta) mode state — see delta.go. trackDirty is set in any
	// EpochLog config; store only on file-backed devices, which actually
	// persist the deltas.
	trackDirty bool
	dirty      []dirtyRange
	store      *epochlog.Store
	replayInfo epochlog.Info

	// deltaMu serializes delta Syncs from capturing the dirty bytes to the
	// record landing (or the ranges being re-marked): it guards deltaData,
	// the capture buffer every Sync reuses, and keeps records appending in
	// the order their bytes were captured.
	deltaMu   sync.Mutex
	deltaData []byte

	// publishMu serializes full-image publishes (full-image Sync and the
	// background checkpoint) and guards scratch, the reused staging buffer.
	publishMu sync.Mutex
	scratch   []byte

	closed    atomic.Bool
	ckptBusy  atomic.Bool
	ckptWG    sync.WaitGroup
	ckptBytes int64

	// Stats.
	Reads, Writes           stats.Counter
	BytesRead, BytesWritten stats.Counter
	// SyncBytes accumulates bytes persisted by successful Syncs (delta
	// record sizes in epoch-log mode, full images otherwise); Checkpoints /
	// CheckpointBytes / CheckpointFailures count background checkpoints.
	SyncBytes          stats.Counter
	Checkpoints        stats.Counter
	CheckpointBytes    stats.Counter
	CheckpointFailures stats.Counter
	lastSyncBytes      atomic.Int64

	// SyncTimings are the media-commit stage latencies (see SyncTimings).
	SyncTimings SyncTimings
}

// SyncTimings are wall-clock nanosecond histograms of Sync's durability
// stages, recorded per call: staging the image into the temp file, fsyncing
// it, renaming it over the pool file, fsyncing the directory, and the whole
// Sync. They answer "where does a media commit spend its time" — the repro's
// analogue of the per-stage persist breakdowns NearPM and Snapshot report.
// The histograms are lock-free; sampling them never blocks a commit.
type SyncTimings struct {
	WriteImage stats.LatencyHistogram // write the staged temp image
	FileSync   stats.LatencyHistogram // fsync the temp file
	Rename     stats.LatencyHistogram // publish via rename
	DirSync    stats.LatencyHistogram // fsync the directory
	Append     stats.LatencyHistogram // delta-record append + fsync (epoch-log mode)
	Total      stats.LatencyHistogram // full Sync, all stages
}

// New returns an in-memory device.
func New(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("pmem: device size must be positive")
	}
	ckptBytes := cfg.EpochLogCheckpointBytes
	if ckptBytes <= 0 {
		ckptBytes = DefaultCheckpointBytes
	}
	return &Device{
		cfg:        cfg,
		media:      make([]byte, cfg.Size),
		faultFn:    cfg.FaultFn,
		trackDirty: cfg.EpochLog,
		ckptBytes:  ckptBytes,
		readBW:     sim.NewBandwidthMeter("pm-read", cfg.ReadBandwidth),
		writeBW:    sim.NewBandwidthMeter("pm-write", cfg.WriteBandwidth),
	}
}

// Open returns a device backed by the file at path, creating it (zero-filled)
// if absent. Existing contents are loaded; a size mismatch with cfg.Size is
// an error, because silently resizing a pool would corrupt its layout. A
// stale staging file left by a crash mid-Sync is removed: it is never valid
// state (Sync republishes the whole image atomically via rename), only
// leftover garbage that would otherwise accumulate and confuse layout
// discovery.
//
// With cfg.EpochLog the pool file is the checkpoint: after loading it, Open
// replays the committed delta records from <path>.epochlog/ on top (a torn
// tail is discarded and reported in ReplayInfo) and attaches the store for
// appends. Opening a plain full-image pool in epoch-log mode upgrades it
// seamlessly. The reverse — a full-image open of a pool whose epoch log
// still holds segments — is refused: the checkpoint alone may be stale, and
// silently recovering it would lose acked commits. Convert with paxrecover
// first.
func Open(path string, cfg Config) (*Device, error) {
	d := New(cfg)
	d.path = path
	if err := os.Remove(path + syncTempSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("pmem: removing stale temp for %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	exists := true
	switch {
	case errors.Is(err, os.ErrNotExist):
		exists = false // fresh pool file
	case err != nil:
		return nil, fmt.Errorf("pmem: open %s: %w", path, err)
	case len(data) != cfg.Size:
		return nil, fmt.Errorf("pmem: %s holds %d bytes, config wants %d", path, len(data), cfg.Size)
	default:
		copy(d.media, data)
	}
	if !cfg.EpochLog {
		if has, herr := epochlog.HasSegments(path + epochlog.DirSuffix); herr != nil {
			return nil, fmt.Errorf("pmem: open %s: %w", path, herr)
		} else if has {
			return nil, fmt.Errorf("pmem: %s has an epoch log with unconsumed segments; open in epoch-log mode or convert with paxrecover", path)
		}
		return d, nil
	}
	if !exists {
		// Publish the zero-filled checkpoint now so the invariant "a delta
		// pool always has a checkpoint file" holds from the first commit on
		// (layout discovery and size checks rely on the file existing).
		if err := seglog.Publish(path, d.media, nil); err != nil {
			return nil, fmt.Errorf("pmem: open: %w", err)
		}
	}
	if err := d.openEpochLog(); err != nil {
		return nil, err
	}
	return d, nil
}

// Size reports the media capacity in bytes.
func (d *Device) Size() int { return d.cfg.Size }

// Config reports the device configuration.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) checkRange(addr uint64, n int) {
	if n < 0 || addr > uint64(d.cfg.Size) || uint64(n) > uint64(d.cfg.Size)-addr {
		panic(fmt.Sprintf("pmem: access [%d, %d) outside device of %d bytes", addr, addr+uint64(n), d.cfg.Size))
	}
}

// Read copies len(buf) bytes at addr into buf and returns the simulated
// completion time for a request arriving at `at`.
func (d *Device) Read(addr uint64, buf []byte, at sim.Time) sim.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, len(buf))
	copy(buf, d.media[addr:addr+uint64(len(buf))])
	d.Reads.Inc()
	d.BytesRead.Add(uint64(len(buf)))
	done := d.readBW.Transfer(at, len(buf))
	return done + d.cfg.ReadLatency
}

// Write stores data at addr. The write is durable when the call returns
// (ADR: the device write queue is in the persistence domain). It returns the
// simulated completion time — when the store has been accepted by the device —
// for a request arriving at `at`.
func (d *Device) Write(addr uint64, data []byte, at sim.Time) sim.Time {
	// Validate before locking: checkRange reads only immutable geometry,
	// and panicking while holding the lock would wedge the device.
	d.checkRange(addr, len(data))
	d.mu.Lock()
	copy(d.media[addr:addr+uint64(len(data))], data)
	d.trackDirtyLocked(addr, len(data))
	d.Writes.Inc()
	d.BytesWritten.Add(uint64(len(data)))
	done := d.writeBW.Transfer(at, len(data))
	hook := d.writeHook
	d.mu.Unlock()
	if hook != nil {
		hook(addr, data)
	}
	return done + d.cfg.WriteLatency
}

// SetWriteHook installs fn to observe every media write, in order. The hook
// runs outside the device lock and receives the caller's data slice; it must
// copy what it keeps and must not issue device writes (reads are fine).
// Crash-exploration tests use it to reconstruct every possible post-crash
// media image.
func (d *Device) SetWriteHook(fn func(addr uint64, data []byte)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeHook = fn
}

// WriteAtomic performs an 8-byte failure-atomic store. It panics if addr is
// not 8-byte aligned or data is not exactly 8 bytes: callers that need
// atomicity must meet the hardware's constraint, and quietly degrading to a
// torn write would defeat the point.
func (d *Device) WriteAtomic(addr uint64, data []byte, at sim.Time) sim.Time {
	if len(data) != AtomicWriteUnit || addr%AtomicWriteUnit != 0 {
		panic(fmt.Sprintf("pmem: WriteAtomic needs an aligned %d-byte store, got %d bytes at %#x",
			AtomicWriteUnit, len(data), addr))
	}
	return d.Write(addr, data, at)
}

// InjectTear simulates a crash that persisted only an 8-byte-aligned prefix
// of a write: bytes in [addr+validPrefix, addr+n) are overwritten with the
// 0xCD poison pattern. Crash-injection tests use it to verify that log-entry
// checksums reject partially persisted records.
func (d *Device) InjectTear(addr uint64, n, validPrefix int) {
	if validPrefix%AtomicWriteUnit != 0 {
		panic("pmem: tear prefix must be a multiple of the atomic write unit")
	}
	if validPrefix > n {
		validPrefix = n
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, n)
	for i := validPrefix; i < n; i++ {
		d.media[addr+uint64(i)] = 0xCD
	}
	d.trackDirtyLocked(addr, n)
}

// syncTempSuffix names the staging file Sync writes before renaming it over
// the pool file. Open and shard discovery know to ignore/clean it.
const syncTempSuffix = seglog.TempSuffix

// SetFaultFn installs (or, with nil, clears) a fault hook on an open device;
// the next durability stage consults it. See Config.FaultFn.
func (d *Device) SetFaultFn(fn func(FaultOp) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faultFn = fn
}

// faultAt consults the fault hook for one durability stage.
func (d *Device) faultAt(op FaultOp) error {
	d.mu.Lock()
	fn := d.faultFn
	d.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(op)
}

// Sync makes the media image durable on the backing file, if any. The image
// is published with seglog.Publish — staged through a temp file (written,
// fsynced), renamed over the pool file, directory fsynced — so a crash at
// any point leaves either the old image or the new one, never a torn mix,
// and the rename itself survives a kernel crash. On failure the previous
// image is untouched and the staging file is cleaned up; the caller must
// treat the epoch as not durable. In-memory devices have no file but still
// consult the fault hook (at the FaultFileSync stage), so durability
// failures can be injected without file backing.
func (d *Device) Sync() error {
	start := time.Now()
	if d.path == "" {
		if err := d.faultAt(FaultFileSync); err != nil {
			return fmt.Errorf("pmem: sync: %w", err)
		}
		// No file to persist, but keep the write-amplification accounting
		// honest: in epoch-log mode the cost modeled is the delta record the
		// dirty ranges would encode to; in full-image mode it is the image.
		if d.trackDirty {
			d.deltaMu.Lock()
			d.mu.Lock()
			ranges := d.takeDirtyLocked()
			d.mu.Unlock()
			n := epochlog.RecordSize(ranges)
			d.deltaMu.Unlock()
			d.lastSyncBytes.Store(n)
			d.SyncBytes.Add(uint64(n))
		} else {
			d.lastSyncBytes.Store(int64(d.cfg.Size))
			d.SyncBytes.Add(uint64(d.cfg.Size))
		}
		d.SyncTimings.Total.Since(start)
		return nil
	}
	if d.store != nil {
		return d.syncDelta(start)
	}
	// Full-image mode. publishMu serializes concurrent Syncs (they share one
	// staging file) and guards the reused scratch buffer — the former
	// per-call snapshot allocation was the dominant allocation churn on the
	// commit path, and it is still worth avoiding now that this is the cold
	// checkpoint/fallback path.
	d.publishMu.Lock()
	defer d.publishMu.Unlock()
	snapshot := d.snapshotLocked()
	if err := seglog.Publish(d.path, snapshot, d.syncStage); err != nil {
		return fmt.Errorf("pmem: sync: %w", err)
	}
	d.lastSyncBytes.Store(int64(len(snapshot)))
	d.SyncBytes.Add(uint64(len(snapshot)))
	d.SyncTimings.Total.Since(start)
	return nil
}

// snapshotLocked copies the media into the reused scratch buffer. Caller
// holds publishMu.
func (d *Device) snapshotLocked() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.scratch == nil {
		d.scratch = make([]byte, len(d.media))
	}
	copy(d.scratch, d.media)
	return d.scratch
}

// syncStage is the full-image Sync's publish hook: each stage consults the
// fault hook first and, when it succeeds, lands in its SyncTimings histogram.
func (d *Device) syncStage(st FaultOp, run func() error) error {
	start := time.Now()
	err := d.faultAt(st)
	if err == nil {
		err = run()
	}
	if err != nil {
		return err
	}
	switch st {
	case FaultWriteImage:
		d.SyncTimings.WriteImage.Since(start)
	case FaultFileSync:
		d.SyncTimings.FileSync.Since(start)
	case FaultRename:
		d.SyncTimings.Rename.Since(start)
	case FaultDirSync:
		d.SyncTimings.DirSync.Since(start)
	}
	return nil
}

// Snapshot returns a copy of the full media image — what a post-crash
// observer would find. Crash tests diff snapshots against recovered state.
func (d *Device) Snapshot() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, len(d.media))
	copy(out, d.media)
	return out
}

// Restore overwrites the media with the given image (used by crash tests to
// rewind a device to a captured post-crash state).
func (d *Device) Restore(image []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(image) != len(d.media) {
		panic(fmt.Sprintf("pmem: restore image of %d bytes onto device of %d", len(image), len(d.media)))
	}
	copy(d.media, image)
	d.trackDirtyLocked(0, len(image))
}

// ReadBandwidthMeter exposes the read channel for utilization reporting.
func (d *Device) ReadBandwidthMeter() *sim.BandwidthMeter { return d.readBW }

// WriteBandwidthMeter exposes the write channel for utilization reporting.
func (d *Device) WriteBandwidthMeter() *sim.BandwidthMeter { return d.writeBW }

// ResetStats clears counters and channel meters; media contents are kept.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Reads.Reset()
	d.Writes.Reset()
	d.BytesRead.Reset()
	d.BytesWritten.Reset()
	d.readBW.Reset()
	d.writeBW.Reset()
}
