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
//
// A file-backed device has one store, the delta epoch store (delta.go): the
// pool file is a checkpoint image, and Sync appends the byte ranges written
// since the previous Sync to <path>.epochlog/ and fsyncs only that append.
package pmem

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"pax/internal/epochlog"
	"pax/internal/seglog"
	"pax/internal/sim"
	"pax/internal/stats"
)

// AtomicWriteUnit is the granularity at which PM hardware guarantees failure
// atomicity of a single store (8 bytes on x86).
const AtomicWriteUnit = 8

// Config parameterizes a Device.
type Config struct {
	// Size is the media capacity in bytes.
	Size int
	// ReadLatency and WriteLatency are per-access service latencies.
	ReadLatency, WriteLatency sim.Time
	// ReadBandwidth and WriteBandwidth are channel rates in bytes/second.
	ReadBandwidth, WriteBandwidth float64
	// FS is where a file-backed device keeps its pool file and epoch log
	// (nil means seglog.OS). An in-memory device has no file and ignores it.
	FS seglog.FS

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
// background checkpoint.
const DefaultCheckpointBytes = 16 << 20

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
	media []byte // an anonymous mapping (media.go); nil once released
	path  string // backing file; empty for in-memory devices

	readBW  *sim.BandwidthMeter
	writeBW *sim.BandwidthMeter

	// writeHook, when set, observes every media write (crash-exploration
	// tests record the exact durable-write sequence through it).
	writeHook func(addr uint64, data []byte)

	// Delta epoch-store state — see delta.go. tracking starts at Open for a
	// file-backed device and at the first Sync for an in-memory one, so a
	// device that never Syncs (the volatile baselines) keeps an empty dirty
	// list. store is set only on file-backed devices, which actually persist
	// the deltas.
	tracking bool
	dirty    []dirtyRange
	// discarded holds the spans a Discard left out of a record and no later
	// write has covered: there the media may differ from what replaying the
	// log rebuilds, so a write over them is recorded whole, not only where
	// it changes the media (see storeLocked). It is merged like the dirty
	// list, so it may also hold the few bytes between two spans; a write
	// recorded whole costs bytes there, never correctness.
	discarded []dirtyRange
	// compacted is len(dirty) after its last compaction (see
	// trackDirtyLocked); Sync resets it with the list.
	compacted  int
	store      *epochlog.Store
	replayInfo epochlog.Info

	// deltaMu serializes delta Syncs from capturing the dirty bytes to the
	// record landing (or the ranges being re-marked): it guards deltaData
	// and deltaRanges, the capture buffers every Sync reuses, and keeps
	// records appending in the order their bytes were captured.
	deltaMu     sync.Mutex
	deltaData   []byte
	deltaRanges []epochlog.Range

	// foldMu serializes checkpoints: a fold and the compaction after it.
	foldMu sync.Mutex

	closed    atomic.Bool
	ckptBusy  atomic.Bool
	ckptWG    sync.WaitGroup
	ckptBytes int64

	// Stats.
	BytesRead, BytesWritten stats.Counter
	// SyncBytes accumulates bytes persisted by successful Syncs (delta
	// record sizes); Checkpoints / CheckpointFailures count checkpoints, and
	// CheckpointBytes the range bytes their folds wrote into the pool file.
	SyncBytes          stats.Counter
	Checkpoints        stats.Counter
	CheckpointBytes    stats.Counter
	CheckpointFailures stats.Counter
	lastSyncBytes      atomic.Int64

	// SyncTimings are the media-commit stage latencies (see SyncTimings).
	SyncTimings SyncTimings
}

// SyncTimings are wall-clock nanosecond histograms of Sync's stages,
// recorded per call: the delta-record append with its fsync. The whole
// Sync is timed once, by its caller (core.PersistTimings.SyncNS). The
// histogram is lock-free; sampling it never blocks a commit.
type SyncTimings struct {
	Append stats.LatencyHistogram // delta-record append + fsync (file-backed)
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
	d := &Device{
		cfg:       cfg,
		media:     newMedia(cfg.Size),
		ckptBytes: ckptBytes,
		readBW:    sim.NewBandwidthMeter("pm-read", cfg.ReadBandwidth),
		writeBW:   sim.NewBandwidthMeter("pm-write", cfg.WriteBandwidth),
	}
	runtime.SetFinalizer(d, (*Device).release)
	return d
}

// Open returns a device backed by the file at path. The file is the pool's
// checkpoint image: a missing file is created by publishing a sparse file of
// cfg.Size zero bytes (seglog.PublishZeros), an existing one is loaded (a
// size mismatch with cfg.Size is an error, because silently resizing a pool
// would corrupt its layout). Open then replays the committed delta records
// from <path>.epochlog/ on top (a torn tail is discarded and reported in
// ReplayInfo) and attaches the store for appends. A pool file with no epoch
// log — a legacy full-image pool, or paxrecover's output — opens as a
// checkpoint with an empty log. A stale staging file left by a crash while
// publishing a new pool's zero checkpoint is removed: it is never valid
// state, only leftover garbage that would otherwise accumulate and confuse
// layout discovery.
func Open(path string, cfg Config) (_ *Device, err error) {
	cfg.FS = seglog.OrOS(cfg.FS)
	d := New(cfg)
	d.path = path
	d.tracking = true
	defer func() {
		if err != nil {
			d.release()
		}
	}()
	if err := cfg.FS.Remove(path + seglog.TempSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("pmem: removing stale temp for %s: %w", path, err)
	}
	f, err := cfg.FS.OpenFile(path, os.O_RDONLY, 0)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Publish the zero checkpoint now so the invariant "a pool always
		// has a checkpoint file" holds from the first commit on (layout
		// discovery, size checks and the in-place fold rely on the file
		// existing). The media is zero already.
		if err := seglog.PublishZeros(cfg.FS, path, int64(cfg.Size)); err != nil {
			return nil, fmt.Errorf("pmem: open: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("pmem: open %s: %w", path, err)
	default:
		// Load the checkpoint into the media, refusing a file whose size is
		// not the configured one.
		fi, err := f.Stat()
		if err == nil && fi.Size() != int64(cfg.Size) {
			err = fmt.Errorf("holds %d bytes, config wants %d", fi.Size(), cfg.Size)
		}
		if err == nil {
			err = d.load(f)
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("pmem: open %s: %w", path, err)
		}
	}
	// Attach the epoch store and replay its committed deltas onto the
	// checkpoint image just loaded.
	st, err := epochlog.Open(epochlog.Config{Dir: path + epochlog.DirSuffix, SegmentBytes: cfg.EpochLogSegmentBytes, FS: cfg.FS})
	if err != nil {
		return nil, err
	}
	if err := st.Replay(func(rec epochlog.Record) error { return rec.Apply(d.media) }); err != nil {
		st.Close()
		return nil, fmt.Errorf("pmem: %s: %w", path, err)
	}
	d.store, d.replayInfo = st, st.Info()
	return d, nil
}

// loadChunk is how much of the checkpoint load reads per call, and
// loadPage the granularity at which it skips zeros.
const (
	loadChunk = 1 << 20
	loadPage  = 4 << 10
)

// load reads the checkpoint f into the media a chunk at a time through one
// buffer, copying only the pages that are not all zero: the media starts
// zero, so an untouched page of the pool stays unfaulted and costs no
// resident memory.
func (d *Device) load(f seglog.File) error {
	buf := make([]byte, loadChunk)
	var zero [loadPage]byte
	for off := 0; off < len(d.media); off += len(buf) {
		chunk := buf[:min(len(buf), len(d.media)-off)]
		if _, err := f.ReadAt(chunk, int64(off)); err != nil {
			return err
		}
		for p := 0; p < len(chunk); p += loadPage {
			page := chunk[p:min(p+loadPage, len(chunk))]
			if !bytes.Equal(page, zero[:len(page)]) {
				copy(d.media[off+p:], page)
			}
		}
	}
	return nil
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
	media := d.lockMedia()
	defer d.mu.Unlock()
	d.checkRange(addr, len(buf))
	copy(buf, media[addr:addr+uint64(len(buf))])
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
	media := d.lockMedia()
	d.storeLocked(media, addr, data)
	d.BytesWritten.Add(uint64(len(data)))
	done := d.writeBW.Transfer(at, len(data))
	hook := d.writeHook
	d.mu.Unlock()
	if hook != nil {
		// A copy, not data itself: handing the caller's slice to a func
		// value would move every buffer ever written to the heap.
		hook(addr, bytes.Clone(data))
	}
	return done + d.cfg.WriteLatency
}

// SetWriteHook installs fn to observe every media write, in order. The hook
// runs outside the device lock and receives a copy of the written bytes,
// which it may keep; it must not issue device writes (reads are fine).
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
	media := d.lockMedia()
	defer d.mu.Unlock()
	d.checkRange(addr, n)
	d.storeLocked(media, addr+uint64(validPrefix), bytes.Repeat([]byte{0xCD}, n-validPrefix))
}

// Snapshot returns a copy of the full media image — what a post-crash
// observer would find. Crash tests diff snapshots against recovered state.
func (d *Device) Snapshot() []byte {
	media := d.lockMedia()
	defer d.mu.Unlock()
	out := make([]byte, len(media))
	copy(out, media)
	return out
}

// Restore overwrites the media with the given image (used by crash tests to
// rewind a device to a captured post-crash state). On a tracking device the
// bytes it changes are dirty like a Write's, so the next record carries them.
func (d *Device) Restore(image []byte) {
	media := d.lockMedia()
	defer d.mu.Unlock()
	if len(image) != len(media) {
		panic(fmt.Sprintf("pmem: restore image of %d bytes onto device of %d", len(image), len(media)))
	}
	d.storeLocked(media, 0, image)
}

// ResetStats clears counters and channel meters; media contents are kept.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.BytesRead.Reset()
	d.BytesWritten.Reset()
	d.readBW.Reset()
	d.writeBW.Reset()
}
