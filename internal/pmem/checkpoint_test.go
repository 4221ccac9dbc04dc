package pmem

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pax/internal/epochlog"
	"pax/internal/faultfs"
)

// heapInuse reports the live heap after a full collection.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestCheckpointKeepsNoImageCopy: a checkpoint folds the log into the pool
// file range by range, so after two of them on a 64 MiB device the heap has
// grown by at most one epoch-log segment (the largest thing a fold reads at
// once) plus slack — not by a second copy of the image.
func TestCheckpointKeepsNoImageCopy(t *testing.T) {
	const size = 64 << 20
	const slack = 4 << 20
	cfg := DefaultConfig(size)
	cfg.EpochLogCheckpointBytes = 1 << 40 // only the checkpoints below
	d := openDelta(t, filepath.Join(t.TempDir(), "p.pool"), cfg)
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 4096)
	base := heapInuse()
	for round := 0; round < 2; round++ {
		// 8 MiB of 4 KiB writes in 64 KiB records: two segments' worth.
		for i := 0; i < 2048; i++ {
			rng.Read(buf)
			d.Write(uint64(rng.Intn(size/len(buf))*len(buf)), buf, 0)
			if i%16 == 15 {
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Checkpoints.Load(); got != 2 {
		t.Fatalf("%d checkpoints ran, want 2", got)
	}
	if grew := heapInuse() - base; grew > epochlog.DefaultSegmentBytes+slack {
		t.Fatalf("two checkpoints grew the heap by %d MiB over the opened device; a fold may hold one segment (%d MiB) plus %d MiB",
			grew>>20, epochlog.DefaultSegmentBytes>>20, slack>>20)
	}
}

// TestCheckpointFoldsOnlyCommittedBytes: the fold takes its bytes from the
// log's records, never from the media, so bytes written after the last Sync
// do not reach the pool file.
func TestCheckpointFoldsOnlyCommittedBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pool")
	d := openDelta(t, path, DefaultConfig(1<<12))
	d.Write(0, []byte("committed"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Write(0, []byte("UNSYNCED!"), 0)
	d.Write(512, []byte("never synced"), 0)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(img[:9]); got != "committed" {
		t.Errorf("pool file [0,9) = %q, want the committed bytes", got)
	}
	if got := img[512:524]; !bytes.Equal(got, make([]byte, 12)) {
		t.Errorf("pool file [512,524) = %q, want zeros: unsynced bytes reached the checkpoint", got)
	}
	if d.CheckpointBytes.Load() != 9 {
		t.Errorf("CheckpointBytes = %d, want the 9 folded range bytes", d.CheckpointBytes.Load())
	}
}

// segmentNames lists the epoch log's segment files.
func segmentNames(t *testing.T, path string) []string {
	t.Helper()
	entries, err := os.ReadDir(path + epochlog.DirSuffix)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCheckpointFailsAtAnyRange fails the fold at its k-th operation on the
// pool file — its open (k=1), a range write, or the final fsync — for
// several k. Each failure leaves the pool file a mix of the old
// checkpoint and some newer ranges, and must leave every segment in place,
// count the failure, and reopen to the image at the last acked Sync; a
// checkpoint after the reopen then succeeds over the mixed file.
func TestCheckpointFailsAtAnyRange(t *testing.T) {
	const size = 1 << 16
	bang := errors.New("injected checkpoint fault")
	// setup builds the same history each time: a first checkpoint, then
	// records still to fold, then writes no Sync acked.
	setup := func(t *testing.T) (d *Device, path string, cfg Config, ffs *faultfs.FS, want []byte) {
		path = filepath.Join(t.TempDir(), "p.pool")
		cfg, ffs = faulty(DefaultConfig(size))
		cfg.EpochLogSegmentBytes = 4 << 10
		cfg.EpochLogCheckpointBytes = 1 << 30
		d = openDelta(t, path, cfg)
		rng := rand.New(rand.NewSource(29))
		write := func(n int) {
			for i := 0; i < n; i++ {
				buf := make([]byte, 1+rng.Intn(300))
				rng.Read(buf)
				d.Write(uint64(rng.Intn(size-len(buf))), buf, 0)
			}
		}
		for i := 0; i < 8; i++ {
			write(4)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			write(5)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		want = d.Snapshot()
		write(10)
		return d, path, cfg, ffs, want
	}

	d, _, _, _, _ := setup(t)
	ranges := 0
	if err := d.EpochStore().Replay(func(rec epochlog.Record) error {
		ranges += len(rec.Ranges)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stages := 1 + ranges + 1 // open, one write per range, fsync
	d.Close()

	for _, k := range []int{1, 2, 3, stages / 2, stages - 1, stages} {
		d, path, cfg, ffs, want := setup(t)
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		segs := segmentNames(t, path)
		var calls atomic.Int64
		ffs.Set(func(op faultfs.Op) error {
			if op.Path == path && calls.Add(1) == int64(k) {
				return bang
			}
			return nil
		})
		if err := d.Checkpoint(); !errors.Is(err, bang) {
			t.Fatalf("k=%d: checkpoint = %v, want the injected fault", k, err)
		}
		if got := d.CheckpointFailures.Load(); got != 1 {
			t.Fatalf("k=%d: CheckpointFailures = %d, want 1", k, got)
		}
		if got := segmentNames(t, path); !slices.Equal(got, segs) {
			t.Fatalf("k=%d: a failed checkpoint changed the segments: %v -> %v", k, segs, got)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if k > 2 && bytes.Equal(after, before) {
			t.Fatalf("k=%d: the fold wrote nothing before failing; the mixed file is untested", k)
		}
		ffs.Set(nil)
		d.Close()

		re := openDelta(t, path, cfg)
		if !bytes.Equal(re.Snapshot(), want) {
			t.Fatalf("k=%d: reopen after a fold failed part-way differs from the last acked Sync", k)
		}
		if err := re.Checkpoint(); err != nil {
			t.Fatalf("k=%d: checkpoint after reopen: %v", k, err)
		}
		re.Close()
		if !bytes.Equal(openDelta(t, path, cfg).Snapshot(), want) {
			t.Fatalf("k=%d: reopen after the repeated checkpoint differs from the last acked Sync", k)
		}
	}
}

// TestSyncCompletesWhileTheFoldIsHeld: the fold holds neither the device
// lock nor the store's, so a Sync completes while the medium holds the
// fold part-way; the record it appends is not compacted by that fold and
// survives a reopen.
func TestSyncCompletesWhileTheFoldIsHeld(t *testing.T) {
	const size = 1 << 14
	path := filepath.Join(t.TempDir(), "p.pool")
	cfg, ffs := faulty(DefaultConfig(size))
	cfg.EpochLogCheckpointBytes = 1 << 30
	d := openDelta(t, path, cfg)
	for i := 0; i < 4; i++ {
		d.Write(uint64(i*1024), bytes.Repeat([]byte{byte('a' + i)}, 100), 0)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	held, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	ffs.Set(func(op faultfs.Op) error {
		if op.Path == path && calls.Add(1) == 3 { // the second range write
			close(held)
			<-release
		}
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- d.Checkpoint() }()
	select {
	case <-held:
	case err := <-done:
		t.Fatalf("the checkpoint finished (%v) without reaching a second range write", err)
	}

	d.Write(8000, []byte("synced while the fold was held"), 0)
	synced := make(chan error, 1)
	go func() { synced <- d.Sync() }()
	select {
	case err := <-synced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a Sync blocked behind the held fold")
	}
	want := d.Snapshot()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if info := d.EpochStore().Info(); info.Records == 0 {
		t.Fatal("the checkpoint compacted the record appended during its fold")
	}
	d.Close()
	if !bytes.Equal(openDelta(t, path, cfg).Snapshot(), want) {
		t.Fatal("reopen lost the Sync that completed during the fold")
	}
}

// TestCheckpointFoldOrder: the fold writes its ranges into the pool file in
// place and fsyncs it once — no staging file, no rename — and only then does
// compaction remove a segment.
func TestCheckpointFoldOrder(t *testing.T) {
	const size = 1 << 14
	dir := t.TempDir()
	path := filepath.Join(dir, "p.pool")
	cfg, ffs := faulty(DefaultConfig(size))
	cfg.EpochLogSegmentBytes = 1 << 10
	cfg.EpochLogCheckpointBytes = 1 << 30
	d := openDelta(t, path, cfg)
	ranges := 0
	for i := 0; i < 6; i++ {
		d.Write(uint64(i*2048), bytes.Repeat([]byte{byte('a' + i)}, 300), 0)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		ranges++
	}
	var ops []string
	ffs.Set(func(op faultfs.Op) error {
		if op.Kind == faultfs.WriteAt || op.Kind == faultfs.Sync || op.Kind == faultfs.Rename || op.Kind == faultfs.Remove {
			rel, _ := filepath.Rel(dir, op.Path)
			ops = append(ops, string(op.Kind)+" "+rel)
		}
		return nil
	})
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ffs.Set(nil)
	var fold []string
	for range ranges {
		fold = append(fold, "WriteAt p.pool")
	}
	fold = append(fold, "Sync p.pool")
	if len(ops) < len(fold) || !slices.Equal(ops[:len(fold)], fold) {
		t.Fatalf("checkpoint began %q, want %d range writes then one fsync of the pool file", ops, ranges)
	}
	removed := 0
	for _, op := range ops[len(fold):] {
		if strings.HasSuffix(op, " p.pool") || strings.HasPrefix(op, "Rename") {
			t.Fatalf("after the fold's fsync the checkpoint ran %q; want only compaction (all ops %q)", op, ops)
		}
		if strings.HasPrefix(op, "Remove ") {
			removed++
		}
	}
	if removed == 0 {
		t.Fatalf("the checkpoint compacted nothing: %q", ops)
	}
}
