package blackbox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pax/internal/seglog"
)

func mustOpen(t *testing.T, cfg Config) *Journal {
	t.Helper()
	j, err := Open(cfg)
	if err != nil {
		t.Fatalf("open %s: %v", cfg.Dir, err)
	}
	return j
}

func collect(t *testing.T, j *Journal) []Record {
	t.Helper()
	var recs []Record
	if err := j.Replay(func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 10; i++ {
		if err := j.Append("ev", []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	recs := collect(t, j)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Type != "ev" || string(rec.Payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d = %q %q", i, rec.Type, rec.Payload)
		}
		if rec.UnixNano == 0 {
			t.Fatalf("record %d has no timestamp", i)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A read-only reopen sees the same records.
	ro := mustOpen(t, Config{Dir: dir, ReadOnly: true})
	defer ro.Close()
	if got := collect(t, ro); len(got) != 10 {
		t.Fatalf("read-only replay %d records, want 10", len(got))
	}
	info := ro.Info()
	if info.FirstSeq != 1 || info.LastSeq != 10 || info.TornTail {
		t.Fatalf("info = %+v", info)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := j.Append("a", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j = mustOpen(t, Config{Dir: dir})
	defer j.Close()
	for i := 0; i < 5; i++ {
		if err := j.Append("b", []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	recs := collect(t, j)
	if len(recs) != 10 || recs[9].Seq != 10 || recs[9].Type != "b" {
		t.Fatalf("after reopen: %d records, tail %+v", len(recs), recs[len(recs)-1])
	}
}

func TestRotationPrunesOldest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir, SegmentBytes: 256, MaxSegments: 2})
	defer j.Close()
	for i := 0; i < 60; i++ {
		if err := j.Append("ev", bytes.Repeat([]byte("p"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	info := j.Info()
	if info.Segments > 2 {
		t.Fatalf("%d segments survive a MaxSegments=2 journal", info.Segments)
	}
	if info.FirstSeq <= 1 {
		t.Fatalf("firstSeq = %d; rotation should have pruned the oldest records", info.FirstSeq)
	}
	recs := collect(t, j)
	if len(recs) == 0 {
		t.Fatal("no records after rotation")
	}
	for i, rec := range recs {
		if want := info.FirstSeq + uint64(i); rec.Seq != want {
			t.Fatalf("record %d seq = %d, want %d (gap inside retained window)", i, rec.Seq, want)
		}
	}
	if recs[len(recs)-1].Seq != 60 {
		t.Fatalf("last seq = %d, want 60", recs[len(recs)-1].Seq)
	}

	// Reopen adopts the pruned window: the oldest surviving segment's header
	// says where the sequence now starts.
	j.Close()
	re := mustOpen(t, Config{Dir: dir, SegmentBytes: 256, MaxSegments: 2})
	defer re.Close()
	if got := re.Info(); got.FirstSeq != info.FirstSeq || got.LastSeq != 60 {
		t.Fatalf("reopened info = %+v, want firstSeq %d lastSeq 60", got, info.FirstSeq)
	}
}

// activeSegPath returns the newest segment's path.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	indices, err := seglog.List(dir, format)
	if err != nil || len(indices) == 0 {
		t.Fatalf("seglog.List: %v (%d)", err, len(indices))
	}
	return filepath.Join(dir, format.SegName(indices[len(indices)-1]))
}

func TestTornTailTruncatedOnWritableReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := j.Append("ev", []byte("keep")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate an append the crash interrupted: garbage after the last
	// committed record.
	path := activeSegPath(t, dir)
	clean, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial-append-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Read-only: torn tail reported, file untouched.
	ro := mustOpen(t, Config{Dir: dir, ReadOnly: true})
	if info := ro.Info(); !info.TornTail || info.TornBytes == 0 {
		t.Fatalf("read-only info = %+v, want torn tail", info)
	}
	if got := collect(t, ro); len(got) != 3 {
		t.Fatalf("read-only replay through torn tail: %d records, want 3", len(got))
	}
	ro.Close()
	if fi, _ := os.Stat(path); fi.Size() == clean.Size() {
		t.Fatal("read-only open truncated the file")
	}

	// Writable: torn tail truncated away, appends land cleanly after.
	j = mustOpen(t, Config{Dir: dir})
	defer j.Close()
	if info := j.Info(); !info.TornTail {
		t.Fatalf("writable info = %+v, want torn tail reported", info)
	}
	if fi, _ := os.Stat(path); fi.Size() != clean.Size() {
		t.Fatalf("repair left %d bytes, want %d", fi.Size(), clean.Size())
	}
	if err := j.Append("ev", []byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, j)
	if len(recs) != 4 || recs[3].Seq != 4 || string(recs[3].Payload) != "after-repair" {
		t.Fatalf("after repair: %+v", recs)
	}
}

func TestCorruptCRCIsATornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir})
	j.Append("ev", []byte("one"))
	j.Append("ev", []byte("two-to-be-torn"))
	j.Close()

	// Flip a payload byte of the last record: the frame is complete but the
	// CRC no longer matches — the record never fully committed.
	path := activeSegPath(t, dir)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-seglog.RecTrailerSize-2] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	j = mustOpen(t, Config{Dir: dir})
	defer j.Close()
	if info := j.Info(); !info.TornTail {
		t.Fatalf("info = %+v, want torn tail on CRC mismatch", info)
	}
	if recs := collect(t, j); len(recs) != 1 || string(recs[0].Payload) != "one" {
		t.Fatalf("replay = %+v, want the one intact record", recs)
	}
}

func TestTornMiddleSegmentIsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir, SegmentBytes: 256, MaxSegments: 8})
	for i := 0; i < 20; i++ {
		if err := j.Append("ev", bytes.Repeat([]byte("p"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Info().Segments < 3 {
		t.Fatalf("test needs >= 3 segments, got %d", j.Info().Segments)
	}
	j.Close()

	indices, _ := seglog.List(dir, format)
	middle := filepath.Join(dir, format.SegName(indices[1]))
	fi, _ := os.Stat(middle)
	if err := os.Truncate(middle, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, ReadOnly: true}); err == nil ||
		!strings.Contains(err.Error(), "non-newest") {
		t.Fatalf("open over a torn middle segment: %v, want non-newest-segment corruption", err)
	}
}

func TestMissingSegmentIsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir, SegmentBytes: 256, MaxSegments: 8})
	for i := 0; i < 20; i++ {
		if err := j.Append("ev", bytes.Repeat([]byte("p"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Info().Segments < 3 {
		t.Fatalf("test needs >= 3 segments, got %d", j.Info().Segments)
	}
	j.Close()
	indices, _ := seglog.List(dir, format)
	if err := os.Remove(filepath.Join(dir, format.SegName(indices[1]))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, ReadOnly: true}); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("open with a deleted middle segment: %v, want missing-records error", err)
	}
}

// TestFailedRollDoesNotBrickJournal: a roll that cannot create its segment
// (the directory is gone — ENOENT, standing in for ENOSPC) fails that one
// append; once the fault clears the next append rolls and lands, and the
// journal replays everything that was acked.
func TestFailedRollDoesNotBrickJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir, SegmentBytes: 256})
	defer j.Close()
	payload := bytes.Repeat([]byte("p"), 150)
	if err := j.Append("ev", payload); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("ev", payload); err == nil {
		t.Fatal("append that must roll into a missing directory succeeded")
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("ev", []byte("after the failed roll")); err != nil {
		t.Fatalf("journal dead after one failed roll: %v", err)
	}
	recs := collect(t, j)
	if len(recs) != 2 || recs[1].Seq != 2 || string(recs[1].Payload) != "after the failed roll" {
		t.Fatalf("replay = %+v", recs)
	}
	if info := j.Info(); info.Segments != 2 || info.LastSeq != 2 {
		t.Fatalf("info = %+v", info)
	}
}

// TestTornRollIsReadable: the journal exists to explain crashes, so a crash
// inside its own segment roll (a headerless newest segment) must not make
// it unreadable.
func TestTornRollIsReadable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bb")
	j := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := j.Append("ev", []byte("keep")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	stub := filepath.Join(dir, format.SegName(2))
	if err := os.WriteFile(stub, []byte("half a head"), 0o644); err != nil {
		t.Fatal(err)
	}
	ro := mustOpen(t, Config{Dir: dir, ReadOnly: true})
	if info := ro.Info(); info.TornTail || info.Records != 3 || info.Segments != 1 {
		t.Fatalf("read-only info = %+v", info)
	}
	if got := collect(t, ro); len(got) != 3 {
		t.Fatalf("read-only replay: %d records, want 3", len(got))
	}
	ro.Close()
	j = mustOpen(t, Config{Dir: dir})
	defer j.Close()
	if _, err := os.Stat(stub); !os.IsNotExist(err) {
		t.Fatalf("writable open left the stub behind: %v", err)
	}
	if err := j.Append("ev", []byte("after")); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, j); len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("after repair: %+v", recs)
	}
}

// TestParentFixture: testdata/ holds a journal segment written by the commit
// before internal/seglog existed, with the records its Replay reported.
func TestParentFixture(t *testing.T) {
	var want []struct {
		Seq      uint64
		UnixNano int64 `json:"unix_nano"`
		Type     string
		Payload  []byte
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, Config{Dir: "testdata", ReadOnly: true})
	defer j.Close()
	got := collect(t, j)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("replayed %d records, fixture recorded %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Seq != w.Seq || got[i].UnixNano != w.UnixNano || got[i].Type != w.Type || !bytes.Equal(got[i].Payload, w.Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], w)
		}
	}
	if info := j.Info(); info.Segments != 1 || info.FirstSeq != 1 || info.LastSeq != 3 || info.TornTail {
		t.Fatalf("info = %+v", info)
	}
}
