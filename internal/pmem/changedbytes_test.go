package pmem

import (
	"bytes"
	"cmp"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pax/internal/epochlog"
)

// TestUnchangedBytesAreNotRecorded: a write marks dirty only the span from
// the first byte it changes to the last, a write that changes nothing marks
// nothing, and a byte changed and changed back within one epoch is still
// recorded. Every write still reaches the media and its byte count.
func TestUnchangedBytesAreNotRecorded(t *testing.T) {
	d := New(DefaultConfig(1 << 12))
	d.Sync()
	base := bytes.Repeat([]byte{1}, 64)
	d.Write(100, base, 0)
	d.Sync()

	partial := slices.Clone(base)
	partial[10], partial[19] = 2, 3
	d.Write(100, partial, 0)
	if got, want := coalesce(d.dirty), []dirtyRange{{110, 120}}; !slices.Equal(got, want) {
		t.Fatalf("a write changing bytes [10,20) of 64 marks %v, want %v", got, want)
	}
	d.Sync()
	if got, want := d.LastSyncBytes(), epochlog.RecordSize([]epochlog.Range{{Addr: 110, Data: make([]byte, 10)}}); got != want {
		t.Fatalf("record of a 10-byte change is %d bytes, want %d", got, want)
	}

	written := d.BytesWritten.Load()
	d.Write(100, partial, 0)
	if len(d.dirty) != 0 {
		t.Fatalf("a write that changes nothing marks %v", d.dirty)
	}
	if got := d.BytesWritten.Load() - written; got != 64 {
		t.Fatalf("a write that changes nothing counts %d bytes written, want 64", got)
	}
	d.Sync()
	if got, want := d.LastSyncBytes(), epochlog.RecordSize(nil); got != want {
		t.Fatalf("record after an unchanged write is %d bytes, want an empty record's %d", got, want)
	}

	d.Write(130, []byte{9}, 0)
	d.Write(130, partial[30:31], 0) // back to what the last record holds
	if got, want := coalesce(d.dirty), []dirtyRange{{130, 131}}; !slices.Equal(got, want) {
		t.Fatalf("a byte changed and changed back marks %v, want %v", got, want)
	}
	got := make([]byte, 64)
	d.Read(100, got, 0)
	if !bytes.Equal(got, partial) {
		t.Fatalf("media holds %x, want %x", got, partial)
	}
}

// TestWriteOverDiscardedBytesIsRecordedWhole: a discarded span's media
// bytes are not in the log, so a later write of those same bytes changes
// nothing on the media but must still be recorded, or the pool reopens
// with the bytes of an older record there.
func TestWriteOverDiscardedBytesIsRecordedWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pool")
	d := openDelta(t, path, DefaultConfig(1<<12))
	entry := bytes.Repeat([]byte{5}, 96)
	d.Write(0, entry, 0)
	d.Discard(0, 96)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Write(0, entry, 0)
	if got, want := coalesce(d.dirty), []dirtyRange{{0, 96}}; !slices.Equal(got, want) {
		t.Fatalf("rewriting discarded bytes marks %v, want %v", got, want)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	re := openDelta(t, path, DefaultConfig(1<<12))
	got := make([]byte, 96)
	re.Read(0, got, 0)
	if !bytes.Equal(got, entry) {
		t.Fatalf("reopened bytes %x, want %x", got, entry)
	}
}

// TestRestoreRecordsWhatItChanges: Restore on a tracking device marks the
// bytes it changes dirty, so a later Write of the same bytes — which
// changes nothing — cannot leave them out of the log.
func TestRestoreRecordsWhatItChanges(t *testing.T) {
	const size = 1 << 12
	path := filepath.Join(t.TempDir(), "p.pool")
	d := openDelta(t, path, DefaultConfig(size))
	d.Write(0, bytes.Repeat([]byte{1}, 512), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	copy(img[200:], "restored")
	d.Restore(img)
	if got, want := coalesce(d.dirty), []dirtyRange{{200, 208}}; !slices.Equal(got, want) {
		t.Fatalf("a Restore changing [200,208) marks %v, want %v", got, want)
	}
	d.Write(200, []byte("restored"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if re := openDelta(t, path, DefaultConfig(size)); !bytes.Equal(re.Snapshot(), img) {
		t.Fatal("reopened pool lost the restored bytes")
	}
}

// exactRecordSize is the size of a record of ranges merged only where they
// overlap or touch: the same bytes with no gap merged across.
func exactRecordSize(dirty []dirtyRange) int64 {
	ranges := slices.Clone(dirty)
	slices.SortFunc(ranges, func(a, b dirtyRange) int { return cmp.Compare(a.addr, b.addr) })
	var out []epochlog.Range
	var lo, hi uint64
	for i, r := range ranges {
		if i > 0 && r.addr <= hi {
			hi = max(hi, r.end)
			continue
		}
		if i > 0 {
			out = append(out, epochlog.Range{Addr: lo, Data: make([]byte, hi-lo)})
		}
		lo, hi = r.addr, r.end
	}
	if len(ranges) > 0 {
		out = append(out, epochlog.Range{Addr: lo, Data: make([]byte, hi-lo)})
	}
	return epochlog.RecordSize(out)
}

// TestRecordsReplayToTheMedia drives random writes — fresh bytes, bytes the
// media already holds, a byte changed and changed back — and discards on a
// file-backed device, with checkpoints and reopens between. Every record is
// no larger than its ranges unmerged, and a reopened pool equals the media
// at the last Sync everywhere but the bytes a Discard left out of the log
// and no write has covered since.
func TestRecordsReplayToTheMedia(t *testing.T) {
	const size = 1 << 13
	rng := rand.New(rand.NewSource(11))
	path := filepath.Join(t.TempDir(), "p.pool")
	cfg := DefaultConfig(size)
	cfg.EpochLogSegmentBytes = 4 << 10
	d := openDelta(t, path, cfg)
	var dead, deadAtSync [size]bool
	var want []byte
	for cycle := 0; cycle < 30; cycle++ {
		for s := 0; s < 6; s++ {
			for op := 0; op < 12; op++ {
				addr, n := rng.Intn(size-128), 1+rng.Intn(128)
				buf := make([]byte, n)
				d.Read(uint64(addr), buf, 0)
				switch rng.Intn(5) {
				case 0: // the bytes the media holds
				case 1: // one byte changed, then changed back
					d.Write(uint64(addr), []byte{buf[0] + 1}, 0)
				case 2:
					d.Discard(uint64(addr), n)
					for i := addr; i < addr+n; i++ {
						dead[i] = true
					}
					continue
				default: // fresh bytes, some of them equal to the media's
					for i := range buf {
						if rng.Intn(4) != 0 {
							buf[i] = byte(rng.Intn(4))
						}
					}
				}
				d.Write(uint64(addr), buf, 0)
				for i := addr; i < addr+n; i++ {
					dead[i] = false
				}
			}
			unmerged := exactRecordSize(d.dirty)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := d.LastSyncBytes(); got > unmerged {
				t.Fatalf("cycle %d: record of %d bytes, its ranges unmerged %d", cycle, got, unmerged)
			}
			want, deadAtSync = d.Snapshot(), dead
		}
		if cycle%3 == 0 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		d.Write(uint64(rng.Intn(size-8)), []byte("unsynced"), 0) // lost on reopen
		d.Close()
		d = openDelta(t, path, cfg)
		got := d.Snapshot()
		for i := range got {
			if got[i] != want[i] && !deadAtSync[i] {
				t.Fatalf("cycle %d: reopened byte %d is %#x, the media held %#x at the last Sync", cycle, i, got[i], want[i])
			}
		}
		// The reopened media is what the log rebuilds: nothing is ahead of
		// it any more.
		dead = [size]bool{}
	}
}
