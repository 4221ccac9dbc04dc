package pmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pax/internal/epochlog"
	"pax/internal/faultfs"
	"pax/internal/seglog"
)

// faulty puts cfg on a fresh faultfs, returned to arm once the device is
// open.
func faulty(cfg Config) (Config, *faultfs.FS) {
	ffs := faultfs.New(nil)
	cfg.FS = ffs
	return cfg, ffs
}

func openDelta(t *testing.T, path string, cfg Config) *Device {
	t.Helper()
	d, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestDeltaRecoveryEquivalence is the core property test: a random write
// workload synced through the epoch log recovers, across repeated
// close/reopen cycles, byte-identical to the media image captured at the
// last successful Sync — writes after it are lost like any unsynced state.
func TestDeltaRecoveryEquivalence(t *testing.T) {
	const size = 1 << 16
	rng := rand.New(rand.NewSource(42))
	path := filepath.Join(t.TempDir(), "delta.pool")
	cfg := DefaultConfig(size)
	cfg.EpochLogSegmentBytes = 8 << 10 // force rolls
	d := openDelta(t, path, cfg)

	write := func() {
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(size - 256))
			buf := make([]byte, 1+rng.Intn(256))
			rng.Read(buf)
			d.Write(addr, buf, 0)
		}
	}

	var want []byte
	for cycle := 0; cycle < 8; cycle++ {
		for s := 0; s < 5; s++ {
			write()
			if err := d.Sync(); err != nil {
				t.Fatalf("cycle %d: sync: %v", cycle, err)
			}
			want = d.Snapshot()
		}
		// "Crash": write past the last Sync, drop the device without any
		// further persistence and reopen from disk.
		write()
		d.Close()
		d = openDelta(t, path, cfg)
		if !bytes.Equal(d.Snapshot(), want) {
			t.Fatalf("cycle %d: recovered media differs from the image at the last sync", cycle)
		}
	}
}

// TestDeltaSyncIsODirty checks the headline property: on a large pool, a
// small write syncs a small number of bytes, not the pool.
func TestDeltaSyncIsODirty(t *testing.T) {
	const size = 4 << 20
	dir := t.TempDir()
	d := openDelta(t, filepath.Join(dir, "p.pool"), DefaultConfig(size))
	if err := d.Sync(); err != nil { // a first record with no ranges
		t.Fatal(err)
	}
	d.Write(1234, []byte("tiny"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.LastSyncBytes(); got > 1024 {
		t.Fatalf("delta sync persisted %d bytes for a 4-byte write", got)
	}
}

// maxSyncAllocs is the allocation count of a file-backed Sync of a small
// dirty set: the capture buffer is reused, the append and coalesce's sort
// allocate nothing, so what is left is the range table.
const maxSyncAllocs = 1

// TestDeltaSyncAllocations holds a small Sync to maxSyncAllocs, with and
// without a Discard that splits a dirty range first. A regression here is
// garbage on every commit.
func TestDeltaSyncAllocations(t *testing.T) {
	d := openDelta(t, filepath.Join(t.TempDir(), "p.pool"), DefaultConfig(1<<16))
	line := bytes.Repeat([]byte{7}, 64)
	for _, discard := range []bool{false, true} {
		sync := func() {
			for i := uint64(0); i < 4; i++ {
				d.Write(i*4096, line, 0)
			}
			if discard {
				d.Discard(8192+16, 16)
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		sync() // size the reused buffers
		if avg := testing.AllocsPerRun(50, sync); avg > maxSyncAllocs {
			t.Fatalf("a 4-range Sync (discard %v) allocates %.1f times, ceiling %d", discard, avg, maxSyncAllocs)
		}
	}
}

// dirtyAfter starts tracking on a fresh in-memory device, applies the
// writes, then discards [lo, hi), and returns the coalesced dirty list.
func dirtyAfter(writes []dirtyRange, lo, hi uint64) []dirtyRange {
	d := New(DefaultConfig(1 << 12))
	d.Sync()
	for _, w := range writes {
		d.Write(w.addr, make([]byte, w.end-w.addr), 0)
	}
	d.Discard(lo, int(hi-lo))
	return coalesce(d.dirty)
}

func TestDiscardTrimsDirtyRanges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes []dirtyRange
		lo, hi uint64
		want   []dirtyRange
	}{
		{"inside one range", []dirtyRange{{100, 200}}, 120, 150, []dirtyRange{{100, 120}, {150, 200}}},
		{"over its left edge", []dirtyRange{{100, 200}}, 50, 150, []dirtyRange{{150, 200}}},
		{"over its right edge", []dirtyRange{{100, 200}}, 150, 250, []dirtyRange{{100, 150}}},
		{"exactly one range", []dirtyRange{{100, 200}, {300, 400}}, 100, 200, []dirtyRange{{300, 400}}},
		{"covering several ranges", []dirtyRange{{100, 200}, {300, 400}, {500, 600}}, 150, 550,
			[]dirtyRange{{100, 150}, {550, 600}}},
		// [100,180) after [300,400) is not merged into [100,200), so two
		// list entries straddle the span and leave one right-hand piece.
		{"inside two overlapping entries", []dirtyRange{{100, 200}, {300, 400}, {100, 180}}, 120, 150,
			[]dirtyRange{{100, 120}, {150, 200}, {300, 400}}},
		{"disjoint", []dirtyRange{{100, 200}}, 200, 300, []dirtyRange{{100, 200}}},
		{"empty span", []dirtyRange{{100, 200}}, 150, 150, []dirtyRange{{100, 200}}},
	} {
		if got := dirtyAfter(tc.writes, tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("%s: discarding [%d,%d) leaves %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestDiscardMatchesByteModel drives random writes and discards against a
// per-byte model: a byte is dirty exactly when its last event was a write.
func TestDiscardMatchesByteModel(t *testing.T) {
	const size = 1 << 10
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		d := New(DefaultConfig(size))
		d.Sync()
		var model [size]bool
		for op := 0; op < 20; op++ {
			addr, n := rng.Intn(size-64), 1+rng.Intn(64)
			write := rng.Intn(3) != 0
			if write {
				d.Write(uint64(addr), make([]byte, n), 0)
			} else {
				d.Discard(uint64(addr), n)
			}
			for i := addr; i < addr+n; i++ {
				model[i] = write
			}
		}
		var want []dirtyRange
		for i := 0; i < size; i++ {
			if !model[i] {
				continue
			}
			if k := len(want) - 1; k >= 0 && want[k].end == uint64(i) {
				want[k].end++
			} else {
				want = append(want, dirtyRange{uint64(i), uint64(i) + 1})
			}
		}
		if got := coalesce(d.dirty); !slices.Equal(got, want) {
			t.Fatalf("trial %d: dirty list %v, byte model %v", trial, got, want)
		}
	}
}

// TestDiscardDropsOnlyEarlierWrites: a discarded span stays out of the next
// record, a write after the Discard puts its bytes back, and the file-backed
// pool reopens with the discarded span at its previously committed bytes.
func TestDiscardDropsOnlyEarlierWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pool")
	d := openDelta(t, path, DefaultConfig(1<<12))
	d.Write(0, bytes.Repeat([]byte{1}, 256), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Write(0, bytes.Repeat([]byte{2}, 256), 0)
	d.Discard(64, 128)
	d.Write(128, bytes.Repeat([]byte{3}, 16), 0) // re-dirties part of the span
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastSyncBytes(), epochlog.RecordSize([]epochlog.Range{
		{Addr: 0, Data: make([]byte, 64)},
		{Addr: 128, Data: make([]byte, 16)},
		{Addr: 192, Data: make([]byte, 64)},
	}); got != want {
		t.Fatalf("record after the discard is %d bytes, want %d", got, want)
	}
	d.Close()

	want := bytes.Repeat([]byte{2}, 256)
	copy(want[64:192], bytes.Repeat([]byte{1}, 128)) // the committed bytes
	copy(want[128:144], bytes.Repeat([]byte{3}, 16))
	re := openDelta(t, path, DefaultConfig(1<<12))
	got := make([]byte, 256)
	re.Read(0, got, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("reopened bytes\n%x\nwant\n%x", got, want)
	}
}

// TestInMemoryDiscardShrinksRecord: an in-memory device reports the record
// a Sync would have appended, so discarding dirty bytes shrinks it by them.
func TestInMemoryDiscardShrinksRecord(t *testing.T) {
	d := New(DefaultConfig(1 << 12))
	d.Sync()
	syncBytes := func(discard bool) int64 {
		for i := uint64(0); i < 4; i++ {
			d.Write(i*512, make([]byte, 96), 0)
		}
		if discard {
			d.Discard(1024, 96)
			d.Discard(1536+32, 32)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		return d.LastSyncBytes()
	}
	full, trimmed := syncBytes(false), syncBytes(true)
	want := epochlog.RecordSize([]epochlog.Range{
		{Addr: 0, Data: make([]byte, 96)},
		{Addr: 512, Data: make([]byte, 96)},
		{Addr: 1536, Data: make([]byte, 32)},
		{Addr: 1536 + 64, Data: make([]byte, 32)},
	})
	if trimmed != want || trimmed >= full {
		t.Fatalf("record with discards = %d bytes (want %d), without = %d", trimmed, want, full)
	}
}

// TestDeltaTornAppendRecoversPreviousEpoch crashes mid-append (torn tail on
// the last record) and verifies recovery lands on the previous sync's state.
func TestDeltaTornAppendRecoversPreviousEpoch(t *testing.T) {
	const size = 1 << 12
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	cfg := DefaultConfig(size)
	d := openDelta(t, path, cfg)

	d.Write(0, bytes.Repeat([]byte{1}, 64), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	stateAfterFirst := d.Snapshot()
	d.Write(0, bytes.Repeat([]byte{2}, 64), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Tear the last record: chop bytes off the newest segment.
	segs, err := os.ReadDir(path + epochlog.DirSuffix)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(path+epochlog.DirSuffix, segs[len(segs)-1].Name())
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	re := openDelta(t, path, cfg)
	if !re.ReplayInfo().TornTail {
		t.Fatalf("torn tail not reported: %+v", re.ReplayInfo())
	}
	if !bytes.Equal(re.Snapshot(), stateAfterFirst) {
		t.Fatalf("torn-append recovery did not land on the previous committed state")
	}
}

// TestDeltaCheckpointAndCompaction drives enough data through a small
// checkpoint threshold to trigger checkpoints, then verifies reopen state
// and that consumed segments were deleted.
func TestDeltaCheckpointAndCompaction(t *testing.T) {
	const size = 1 << 16
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	cfg := DefaultConfig(size)
	cfg.EpochLogSegmentBytes = 4 << 10
	cfg.EpochLogCheckpointBytes = 8 << 10
	d := openDelta(t, path, cfg)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		buf := make([]byte, 512)
		rng.Read(buf)
		d.Write(uint64(rng.Intn(size-512)), buf, 0)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitCheckpoint()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.Checkpoints.Load() == 0 {
		t.Fatalf("no checkpoint ran despite %d live bytes threshold", cfg.EpochLogCheckpointBytes)
	}
	if live := d.EpochStore().LiveBytes(); live > cfg.EpochLogCheckpointBytes {
		t.Fatalf("compaction left %d live bytes (threshold %d)", live, cfg.EpochLogCheckpointBytes)
	}
	want := d.Snapshot()
	d.Close()

	re := openDelta(t, path, cfg)
	if !bytes.Equal(re.Snapshot(), want) {
		t.Fatalf("post-checkpoint reopen lost state")
	}
}

// TestDeltaCrashMidCheckpoint simulates two crash points: a stale staging
// file, which only the create-time publish of a new pool's zero checkpoint
// can leave (a crash before its rename), and a checkpoint folded into the
// pool file with a crash before compaction (full log still present).
func TestDeltaCrashMidCheckpoint(t *testing.T) {
	const size = 1 << 14
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	cfg := DefaultConfig(size)
	d := openDelta(t, path, cfg)
	d.Write(100, []byte("committed state"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Snapshot()
	d.Close()

	// Crash before the zero checkpoint's rename: a stale .tmp with garbage
	// must be ignored.
	if err := os.WriteFile(path+seglog.TempSuffix, bytes.Repeat([]byte{0xEE}, size/2), 0o644); err != nil {
		t.Fatal(err)
	}
	re := openDelta(t, path, cfg)
	if !bytes.Equal(re.Snapshot(), want) {
		t.Fatalf("stale checkpoint staging file corrupted recovery")
	}

	// Crash after the fold, before compaction: checkpoint covers the log but
	// the log is still there. Replaying it on top must be a no-op
	// (idempotent absolute-value records).
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.Write(200, []byte("after checkpoint"), 0)
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	want2 := re.Snapshot()
	re.Close()
	re2 := openDelta(t, path, cfg)
	if !bytes.Equal(re2.Snapshot(), want2) {
		t.Fatalf("recovery after checkpoint+append diverged")
	}
}

// TestDeltaCrashMidCompaction deletes a middle segment (the on-disk
// signature of a crash partway through compaction) and verifies the reopened
// device still recovers: pre-gap segments are provably covered by the
// checkpoint.
func TestDeltaCrashMidCompaction(t *testing.T) {
	const size = 1 << 14
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	cfg := DefaultConfig(size)
	cfg.EpochLogSegmentBytes = 2 << 10
	// Threshold high enough that no background checkpoint interferes.
	cfg.EpochLogCheckpointBytes = 1 << 30
	d := openDelta(t, path, cfg)
	if err := d.Sync(); err != nil { // a first record with no ranges
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		buf := make([]byte, 512)
		rng.Read(buf)
		d.Write(uint64(rng.Intn(size-512)), buf, 0)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Write a checkpoint covering everything by hand, then crash
	// "mid-compaction": delete a middle segment instead of letting
	// CompactThrough finish.
	img := d.Snapshot()
	if err := seglog.Publish(nil, path, img); err != nil {
		t.Fatal(err)
	}
	d.Close()
	segs, err := os.ReadDir(path + epochlog.DirSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments to simulate a partial compaction, got %d", len(segs))
	}
	// Delete the oldest and one middle segment, keep the rest: exactly what
	// a crash between two os.Remove calls leaves.
	if err := os.Remove(filepath.Join(path+epochlog.DirSuffix, segs[0].Name())); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(path+epochlog.DirSuffix, segs[2].Name())); err != nil {
		t.Fatal(err)
	}
	re := openDelta(t, path, cfg)
	if !bytes.Equal(re.Snapshot(), img) {
		t.Fatalf("crash-mid-compaction recovery diverged from the published checkpoint state")
	}
}

// TestDeltaFailedAppendKeepsRangesDirty injects a one-shot fsync fault: the
// failed Sync must not lose the dirty ranges, and the retried Sync must make
// them durable.
func TestDeltaFailedAppendKeepsRangesDirty(t *testing.T) {
	const size = 1 << 12
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	cfg, ffs := faulty(DefaultConfig(size))
	d := openDelta(t, path, cfg)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	bang := errors.New("injected media fault")
	ffs.Set(faultfs.FailSyncs(faultfs.In(path+epochlog.DirSuffix), 1, bang))
	d.Write(64, []byte("must survive the retry"), 0)
	if err := d.Sync(); err == nil {
		t.Fatalf("sync should have failed")
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	want := d.Snapshot()
	d.Close()
	re := openDelta(t, path, cfg)
	if !bytes.Equal(re.Snapshot(), want) {
		t.Fatalf("retried append lost the dirty ranges")
	}
	if got := re.Snapshot()[64:86]; !bytes.Equal(got, []byte("must survive the retry")) {
		t.Fatalf("recovered bytes = %q", got)
	}
}

// TestDeltaRetriedAppendCapturesCurrentBytes: the capture buffers are reused
// from Sync to Sync, so a retry after a failed append must re-read the media
// — bytes overwritten since the failed attempt, and a new range that shifts
// every other range's place in the buffer — not replay what the failed
// attempt staged. A later, smaller Sync then reuses the same buffers.
func TestDeltaRetriedAppendCapturesCurrentBytes(t *testing.T) {
	const size = 1 << 12
	path := filepath.Join(t.TempDir(), "p.pool")
	cfg, ffs := faulty(DefaultConfig(size))
	d := openDelta(t, path, cfg)

	ffs.Set(faultfs.FailSyncs(faultfs.In(path+epochlog.DirSuffix), 1, errors.New("injected media fault")))
	d.Write(512, []byte("stale bytes, staged by the failed attempt"), 0)
	d.Write(2048, []byte("untouched between the attempts"), 0)
	if err := d.Sync(); err == nil {
		t.Fatal("sync should have failed")
	}
	d.Write(512, []byte("fresh bytes, written after the failure!!!"), 0)
	d.Write(64, []byte("a new range ahead of the others"), 0)
	if err := d.Sync(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	d.Write(1024, []byte("next epoch"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Snapshot()
	d.Close()
	got := openDelta(t, path, cfg).Snapshot()
	if !bytes.Equal(got, want) {
		t.Fatal("recovered image differs from the media at the last sync")
	}
	for addr, text := range map[int]string{
		64:   "a new range ahead of the others",
		512:  "fresh bytes, written after the failure!!!",
		1024: "next epoch",
		2048: "untouched between the attempts",
	} {
		if b := got[addr : addr+len(text)]; string(b) != text {
			t.Errorf("recovered [%d,+%d) = %q, want %q", addr, len(text), b, text)
		}
	}
}

// TestDeltaOpenUpgradesFullImagePool: a plain pool file with no epoch log —
// a legacy full-image pool, or paxrecover's output — opens as a checkpoint
// and gains a log on its first Sync.
func TestDeltaOpenUpgradesFullImagePool(t *testing.T) {
	const size = 1 << 12
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	want := make([]byte, size)
	copy(want[8:], "legacy image")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}

	d := openDelta(t, path, DefaultConfig(size))
	if !bytes.Equal(d.Snapshot(), want) {
		t.Fatalf("upgrade open lost the legacy image")
	}
	d.Write(100, []byte("delta now"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want2 := d.Snapshot()
	d.Close()
	re := openDelta(t, path, DefaultConfig(size))
	if !bytes.Equal(re.Snapshot(), want2) {
		t.Fatalf("post-upgrade recovery diverged")
	}
}

// TestInMemoryDeltaAccounting: an in-memory device persists nothing but
// still reports the modeled delta size. It starts tracking at its first
// Sync, so a device that never Syncs tracks nothing and that first Sync
// reports an empty record.
func TestInMemoryDeltaAccounting(t *testing.T) {
	d := New(DefaultConfig(1 << 16))
	d.Write(0, []byte{1}, 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastSyncBytes(), epochlog.RecordSize(nil); got != want {
		t.Fatalf("first in-memory LastSyncBytes = %d, want an empty record's %d", got, want)
	}
	d.Write(0, bytes.Repeat([]byte{1}, 100), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	got := d.LastSyncBytes()
	if got < 100 || got > 1024 {
		t.Fatalf("in-memory delta LastSyncBytes = %d, want ≈100 + overhead", got)
	}
}

// TestScatteredWritesCompactInLogTime: an epoch of n disjoint dirty ranges
// re-sorts its list O(log n) times. When every write past dirtyCompactLimit
// re-sorted the whole list, these 40 000 scattered lines took 16 s; the
// record that follows must still hold every byte written.
func TestScatteredWritesCompactInLogTime(t *testing.T) {
	const lines = 40_000
	const size = lines * 128
	d := openDelta(t, filepath.Join(t.TempDir(), "p.pool"), DefaultConfig(size))
	start := time.Now()
	for i, k := range rand.New(rand.NewSource(5)).Perm(lines) {
		d.Write(uint64(k)*128, bytes.Repeat([]byte{byte(i%255 + 1)}, 64), 0)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("%d scattered writes and one Sync took %v", lines, took)
	}
	got := make([]byte, size)
	ranges := 0
	err := d.EpochStore().Scan(0, d.EpochStore().LastSeq(), func(rec epochlog.Record) error {
		ranges += len(rec.Ranges)
		return rec.Apply(got)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranges != lines || !bytes.Equal(got, d.Snapshot()) {
		t.Fatalf("log holds %d ranges (want %d), image equal: %v", ranges, lines, bytes.Equal(got, d.Snapshot()))
	}
}

// TestUnsyncedDeviceTracksNothing: a device that never Syncs — the DRAM,
// PM-Direct and PMDK baselines — must not record dirty ranges, or its list
// would grow without bound and re-sort on every write past
// dirtyCompactLimit.
func TestUnsyncedDeviceTracksNothing(t *testing.T) {
	const size = 1 << 20
	d := New(DefaultConfig(size))
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 8)
	for i := 0; i < 100_000; i++ {
		d.Write(uint64(rng.Intn(size/64))*64, buf, 0)
	}
	if n := len(d.dirty); n != 0 {
		t.Fatalf("a device that never synced tracks %d dirty ranges", n)
	}
}

// TestDeltaCheckpointFaultInjection: a fault on the pool file defers the
// checkpoint without hurting durability.
func TestDeltaCheckpointFaultInjection(t *testing.T) {
	const size = 1 << 12
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	cfg, ffs := faulty(DefaultConfig(size))
	d := openDelta(t, path, cfg)
	ffs.Set(func(op faultfs.Op) error {
		if op.Path == path {
			return fmt.Errorf("injected checkpoint fault")
		}
		return nil
	})
	d.Write(0, []byte("survives"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatalf("checkpoint should have failed")
	}
	if d.CheckpointFailures.Load() == 0 {
		t.Fatalf("checkpoint failure not counted")
	}
	want := d.Snapshot()
	ffs.Set(nil)
	d.Close()
	re := openDelta(t, path, cfg)
	if !bytes.Equal(re.Snapshot(), want) {
		t.Fatalf("failed checkpoint hurt durability")
	}
}
