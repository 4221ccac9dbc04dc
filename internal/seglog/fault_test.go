package seglog_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"pax/internal/faultfs"
	"pax/internal/seglog"
)

// TestRollOrder: the new segment's header is written and fsynced, and then
// the directory, all before the swap closes the old segment and the next
// append lands in the new one.
func TestRollOrder(t *testing.T) {
	f := seglog.Formats[0]
	dir := filepath.Join(t.TempDir(), "log")
	fs := faultfs.New(nil)
	l := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, SegmentBytes: 128, FS: fs})
	seglog.MustAppend(t, l, 1, bytes.Repeat([]byte{1}, 64))
	ops := record(t, fs, dir, faultfs.OpenFile, faultfs.WriteAt, faultfs.Sync, faultfs.Close, faultfs.Remove)
	seglog.MustAppend(t, l, 2, bytes.Repeat([]byte{2}, 64))
	want := []string{
		"OpenFile " + f.SegName(2), "WriteAt " + f.SegName(2), "Sync " + f.SegName(2),
		"OpenFile .", "Sync .", "Close .",
		"Close " + f.SegName(1),
		"WriteAt " + f.SegName(2), "Sync " + f.SegName(2),
	}
	if got := ops(); !slices.Equal(got, want) {
		t.Fatalf("append across a roll ran\n%q\nwant\n%q", got, want)
	}
}

// TestRemoveOldestOrder: the removals come first, then one directory fsync
// makes them all durable.
func TestRemoveOldestOrder(t *testing.T) {
	f := seglog.Formats[0]
	dir := filepath.Join(t.TempDir(), "log")
	fs := faultfs.New(nil)
	l := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, SegmentBytes: 128, FS: fs})
	for i := range 3 {
		seglog.MustAppend(t, l, uint64(i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	ops := record(t, fs, dir, faultfs.WriteAt, faultfs.Sync, faultfs.Remove)
	if err := l.RemoveOldest(2); err != nil {
		t.Fatal(err)
	}
	if got, want := ops(), []string{"Remove " + f.SegName(1), "Remove " + f.SegName(2), "Sync ."}; !slices.Equal(got, want) {
		t.Fatalf("RemoveOldest ran %q, want %q", got, want)
	}
}

// TestFailedRollIsRetried: the new segment is created, headered and synced,
// and the directory synced, before the swap, so a roll that fails at any of
// those steps returns its error, leaves the log where it was, and the next
// append rolls again and lands.
func TestFailedRollIsRetried(t *testing.T) {
	seglog.EachFormat(t, func(t *testing.T, f seglog.Format) {
		next := f.SegName(2)
		for _, step := range []struct {
			name string
			kind faultfs.Kind
			path string
		}{
			{"create", faultfs.OpenFile, next},
			{"header", faultfs.WriteAt, next},
			{"fsync", faultfs.Sync, next},
			{"dirsync", faultfs.Sync, "."},
		} {
			t.Run(step.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "log")
				injected := errors.New("injected ENOSPC")
				fs := faultfs.New(nil)
				l := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, SegmentBytes: 128, FS: fs})
				first, second := bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 64)
				seglog.MustAppend(t, l, 1, first)
				failAt(fs, dir, step.kind, step.path, injected)
				if err := seglog.AppendBody(l, 2, second); !errors.Is(err, injected) {
					t.Fatalf("append across a failing roll = %v, want the injected fault", err)
				}
				if n := len(l.Segments()); n != 1 || l.NextSeq() != 2 {
					t.Fatalf("failed roll left %d segments, NextSeq %d", n, l.NextSeq())
				}
				fs.Set(nil)
				seglog.MustAppend(t, l, 2, second)
				if n := len(l.Segments()); n != 2 {
					t.Fatalf("retried roll left %d segments, want 2", n)
				}
				l.Close()
				re := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, ReadOnly: true})
				if got := seglog.Collect(t, re, 1); len(got) != 2 || !bytes.Equal(got[1], second) {
					t.Fatalf("replay after the retried roll = %d records", len(got))
				}
			})
		}
	})
}

// TestFailedAppendRewinds: a failed append — its write or its fsync —
// consumes no sequence number and leaves no bytes a later reopen could
// mistake for a record.
func TestFailedAppendRewinds(t *testing.T) {
	f := seglog.Formats[1]
	for _, step := range []struct {
		name string
		kind faultfs.Kind
	}{{"append", faultfs.WriteAt}, {"append-fsync", faultfs.Sync}} {
		t.Run(step.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "log")
			fs := faultfs.New(nil)
			l := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, FS: fs})
			seglog.MustAppend(t, l, 1, []byte("good"))
			failAt(fs, dir, step.kind, f.SegName(1), errors.New("injected"))
			if err := seglog.AppendBody(l, 2, []byte("doomed, and longer than its replacement")); err == nil {
				t.Fatal("append should have failed")
			}
			fs.Set(nil)
			if l.NextSeq() != 2 {
				t.Fatalf("failed append consumed a sequence number: NextSeq %d", l.NextSeq())
			}
			seglog.MustAppend(t, l, 2, []byte("retried"))
			l.Close()
			re := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, ReadOnly: true})
			if got := seglog.Collect(t, re, 1); len(got) != 2 || string(got[1]) != "retried" || re.TornBytes != 0 {
				t.Fatalf("replay after retry = %q (torn %d)", got, re.TornBytes)
			}
		})
	}
}

// TestRemoveOldest covers deletion and its crash matrix row: a failure
// part-way leaves a shorter log that still opens, oldest segments gone.
func TestRemoveOldest(t *testing.T) {
	f := seglog.Formats[0]
	dir := filepath.Join(t.TempDir(), "log")
	fs := faultfs.New(nil)
	l := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, SegmentBytes: 128, FS: fs})
	for i := 0; i < 6; i++ {
		seglog.MustAppend(t, l, uint64(i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if n := len(l.Segments()); n != 6 {
		t.Fatalf("expected one record per segment, got %d segments", n)
	}
	failAt(fs, dir, faultfs.Remove, f.SegName(2), errors.New("injected"))
	if err := l.RemoveOldest(3); err == nil {
		t.Fatal("remove should have failed on its second segment")
	}
	if segs := l.Segments(); len(segs) != 5 || segs[0].FirstSeq != 2 {
		t.Fatalf("after a part-way failure: %d segments starting at seq %d", len(segs), segs[0].FirstSeq)
	}
	fs.Set(nil)
	if err := l.RemoveOldest(100); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); len(segs) != 1 || segs[0].FirstSeq != 6 {
		t.Fatalf("RemoveOldest must stop at the active segment: %+v", segs)
	}
	seglog.MustAppend(t, l, 7, []byte("still appendable"))
	l.Close()
	re := seglog.OpenT(t, seglog.Config{Dir: dir, Format: f, ReadOnly: true})
	if got := seglog.Collect(t, re, 6); len(got) != 2 {
		t.Fatalf("reopen after removal replayed %d records, want 2", len(got))
	}
}
