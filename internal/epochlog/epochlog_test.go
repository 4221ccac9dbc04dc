package epochlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pax/internal/faultfs"
	"pax/internal/seglog"
)

func openT(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func appendT(t *testing.T, s *Store, epoch uint64, ranges ...Range) {
	t.Helper()
	if _, err := s.Append(epoch, ranges); err != nil {
		t.Fatalf("Append(epoch=%d): %v", epoch, err)
	}
}

// collect replays the store into (records, payload-bytes-by-seq) with data
// copied out of the scratch buffer.
func collect(t *testing.T, s *Store) []Record {
	t.Helper()
	var out []Record
	err := s.Replay(func(rec Record) error {
		cp := Record{Seq: rec.Seq, Epoch: rec.Epoch}
		for _, r := range rec.Ranges {
			cp.Ranges = append(cp.Ranges, Range{Addr: r.Addr, Data: append([]byte(nil), r.Data...)})
		}
		out = append(out, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	s := openT(t, Config{Dir: dir})
	appendT(t, s, 1, Range{Addr: 10, Data: []byte("hello")})
	appendT(t, s, 2, Range{Addr: 0, Data: []byte("a")}, Range{Addr: 99, Data: []byte("bcd")})
	appendT(t, s, 3) // empty commit: record with no ranges
	s.Close()

	s2 := openT(t, Config{Dir: dir})
	recs := collect(t, s2)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Epoch != uint64(i+1) {
			t.Fatalf("record %d: seq=%d epoch=%d", i, rec.Seq, rec.Epoch)
		}
	}
	if !bytes.Equal(recs[0].Ranges[0].Data, []byte("hello")) {
		t.Fatalf("record 1 data = %q", recs[0].Ranges[0].Data)
	}
	if len(recs[1].Ranges) != 2 || recs[1].Ranges[1].Addr != 99 {
		t.Fatalf("record 2 ranges = %+v", recs[1].Ranges)
	}
	if len(recs[2].Ranges) != 0 {
		t.Fatalf("record 3 should be empty, got %+v", recs[2].Ranges)
	}
	info := s2.Info()
	if info.LastSeq != 3 || info.LastEpoch != 3 || info.TornTail {
		t.Fatalf("info = %+v", info)
	}
}

func TestSegmentRollAndMultiSegmentReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	// Tiny roll threshold: every record should land in its own segment after
	// the first.
	s := openT(t, Config{Dir: dir, SegmentBytes: 64})
	for i := 1; i <= 5; i++ {
		appendT(t, s, uint64(i), Range{Addr: uint64(i * 100), Data: bytes.Repeat([]byte{byte(i)}, 40)})
	}
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected ≥3 segments after rolls, got %d", len(segs))
	}
	s.Close()

	s2 := openT(t, Config{Dir: dir, SegmentBytes: 64})
	recs := collect(t, s2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	if s2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", s2.LastSeq())
	}
	appendT(t, s2, 6, Range{Addr: 7, Data: []byte("x")})
	if s2.LastSeq() != 6 {
		t.Fatalf("LastSeq after append = %d", s2.LastSeq())
	}
}

// tornVariant truncates or corrupts the newest segment's tail in a specific
// way and returns how many records should survive.
type tornVariant struct {
	name     string
	mutilate func(t *testing.T, segPath string, lastRecStart, fileEnd int64)
}

func TestTornTailVariants(t *testing.T) {
	variants := []tornVariant{
		{"cut-mid-header", func(t *testing.T, p string, start, end int64) {
			truncateTo(t, p, start+seglog.RecHeaderSize/2)
		}},
		{"cut-mid-payload", func(t *testing.T, p string, start, end int64) {
			truncateTo(t, p, start+(end-start)/2)
		}},
		{"cut-commit-marker", func(t *testing.T, p string, start, end int64) {
			truncateTo(t, p, end-4)
		}},
		{"flip-data-bit", func(t *testing.T, p string, start, end int64) {
			flipByte(t, p, start+seglog.RecHeaderSize+8)
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "pool.epochlog")
			s := openT(t, Config{Dir: dir})
			appendT(t, s, 1, Range{Addr: 0, Data: []byte("first record")})
			appendT(t, s, 2, Range{Addr: 64, Data: []byte("second record")})
			segs := s.Segments()
			firstEnd := segSizeAfter(t, dir, s, 1)
			s.Close()
			if len(segs) != 1 {
				t.Fatalf("expected 1 segment, got %d", len(segs))
			}
			segPath := filepath.Join(dir, segs[0].Name)
			fi, err := os.Stat(segPath)
			if err != nil {
				t.Fatal(err)
			}
			v.mutilate(t, segPath, firstEnd, fi.Size())

			s2 := openT(t, Config{Dir: dir})
			info := s2.Info()
			if !info.TornTail {
				t.Fatalf("expected torn tail reported, info=%+v", info)
			}
			recs := collect(t, s2)
			if len(recs) != 1 || recs[0].Epoch != 1 {
				t.Fatalf("replay after torn tail = %+v, want only record 1", recs)
			}
			// The torn bytes must be gone: the next append takes seq 2 and a
			// fresh open replays exactly two clean records.
			appendT(t, s2, 5, Range{Addr: 3, Data: []byte("replacement")})
			if s2.LastSeq() != 2 {
				t.Fatalf("LastSeq after re-append = %d, want 2", s2.LastSeq())
			}
			s2.Close()
			s3 := openT(t, Config{Dir: dir})
			recs = collect(t, s3)
			if len(recs) != 2 || recs[1].Epoch != 5 || s3.Info().TornTail {
				t.Fatalf("final replay = %+v (torn=%v)", recs, s3.Info().TornTail)
			}
		})
	}
}

// segSizeAfter returns the segment size after the first n records (computed
// from the live store's bookkeeping before any mutilation).
func segSizeAfter(t *testing.T, dir string, s *Store, n int) int64 {
	t.Helper()
	var size int64 = seglog.SegHeaderSize
	count := 0
	err := s.Replay(func(rec Record) error {
		if count >= n {
			return nil
		}
		var payload int
		for _, r := range rec.Ranges {
			payload += len(r.Data)
		}
		size += int64(seglog.RecHeaderSize + 16*len(rec.Ranges) + payload + seglog.RecTrailerSize)
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return size
}

func truncateTo(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyOpenDoesNotTruncate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	s := openT(t, Config{Dir: dir})
	appendT(t, s, 1, Range{Addr: 0, Data: []byte("keep")})
	appendT(t, s, 2, Range{Addr: 8, Data: []byte("torn soon")})
	segs := s.Segments()
	s.Close()
	segPath := filepath.Join(dir, segs[0].Name)
	fi, _ := os.Stat(segPath)
	truncateTo(t, segPath, fi.Size()-3)
	tornSize := fi.Size() - 3

	ro := openT(t, Config{Dir: dir, ReadOnly: true})
	if !ro.Info().TornTail {
		t.Fatalf("read-only open should report torn tail")
	}
	if _, err := ro.Append(3, nil); err == nil {
		t.Fatalf("read-only append should fail")
	}
	if err := ro.CompactThrough(1); err == nil {
		t.Fatalf("read-only compact should fail")
	}
	fi2, _ := os.Stat(segPath)
	if fi2.Size() != tornSize {
		t.Fatalf("read-only open truncated the segment: %d → %d", tornSize, fi2.Size())
	}
}

func TestSequenceGapDropsOlderSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	s := openT(t, Config{Dir: dir, SegmentBytes: 64})
	for i := 1; i <= 4; i++ {
		appendT(t, s, uint64(i), Range{Addr: 0, Data: bytes.Repeat([]byte{byte(i)}, 48)})
	}
	segs := s.Segments()
	if len(segs) < 4 {
		t.Fatalf("need ≥4 segments, got %d", len(segs))
	}
	s.Close()
	// Simulate a crash mid-compaction that deleted a middle segment before
	// its older sibling: everything older than the gap must be dropped.
	if err := os.Remove(filepath.Join(dir, segs[1].Name)); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, Config{Dir: dir, SegmentBytes: 64})
	recs := collect(t, s2)
	for _, rec := range recs {
		if rec.Epoch <= 2 {
			t.Fatalf("pre-gap record replayed: %+v", rec)
		}
	}
	var dropped int
	for _, seg := range s2.Info().Segments {
		if seg.Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatalf("expected dropped segments, info=%+v", s2.Info())
	}
	// New appends continue the surviving chain.
	appendT(t, s2, 9)
	if s2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", s2.LastSeq())
	}
}

func TestCompactThrough(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	s := openT(t, Config{Dir: dir, SegmentBytes: 64})
	for i := 1; i <= 6; i++ {
		appendT(t, s, uint64(i), Range{Addr: 0, Data: bytes.Repeat([]byte{byte(i)}, 48)})
	}
	before := s.LiveBytes()
	if err := s.CompactThrough(4); err != nil {
		t.Fatalf("CompactThrough: %v", err)
	}
	if s.LiveBytes() >= before {
		t.Fatalf("compaction did not shrink live bytes: %d → %d", before, s.LiveBytes())
	}
	recs := collect(t, s)
	for _, rec := range recs {
		if rec.Seq <= 4 && seqStillPresent(s, rec.Seq) {
			t.Fatalf("compacted record still replayable: %+v", rec)
		}
	}
	// Records 5, 6 must survive.
	if s.LastSeq() != 6 {
		t.Fatalf("LastSeq = %d", s.LastSeq())
	}
	found := map[uint64]bool{}
	for _, rec := range recs {
		found[rec.Seq] = true
	}
	if !found[5] || !found[6] {
		t.Fatalf("post-compaction replay lost live records: %+v", found)
	}
	// Compacting through everything rolls the active segment and leaves one
	// empty segment; appends still work and sequence numbers keep rising.
	if err := s.CompactThrough(s.LastSeq()); err != nil {
		t.Fatalf("CompactThrough(all): %v", err)
	}
	if got := len(s.Segments()); got != 1 {
		t.Fatalf("expected 1 segment after full compaction, got %d", got)
	}
	appendT(t, s, 7)
	if s.LastSeq() != 7 {
		t.Fatalf("LastSeq after post-compaction append = %d", s.LastSeq())
	}
	s.Close()
	s2 := openT(t, Config{Dir: dir, SegmentBytes: 64})
	if s2.LastSeq() != 7 {
		t.Fatalf("reopened LastSeq = %d, want 7", s2.LastSeq())
	}
}

// TestScanStreamsARangeWithoutTheLock: Scan delivers exactly the records in
// (after, through], across segment rolls, and an Append issued from its
// callback completes — the store's lock is not held while it reads — without
// the new record reaching this Scan.
func TestScanStreamsARangeWithoutTheLock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	s := openT(t, Config{Dir: dir, SegmentBytes: 64})
	for i := 1; i <= 6; i++ {
		appendT(t, s, uint64(i), Range{Addr: uint64(i), Data: bytes.Repeat([]byte{byte(i)}, 40)})
	}
	var seqs []uint64
	err := s.Scan(2, 5, func(rec Record) error {
		seqs = append(seqs, rec.Seq)
		if rec.Ranges[0].Data[0] != byte(rec.Seq) {
			t.Errorf("record %d carries data %d", rec.Seq, rec.Ranges[0].Data[0])
		}
		if rec.Seq == 3 {
			appendT(t, s, 7, Range{Addr: 7, Data: []byte("during the scan")})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if fmt.Sprint(seqs) != "[3 4 5]" {
		t.Fatalf("Scan(2, 5) delivered %v, want [3 4 5]", seqs)
	}
	if s.LastSeq() != 7 {
		t.Fatalf("LastSeq = %d, want 7", s.LastSeq())
	}
}

func seqStillPresent(s *Store, seq uint64) bool {
	for _, seg := range s.Segments() {
		if seg.Records > 0 && seg.FirstSeq <= seq && seq <= seg.LastSeq {
			return true
		}
	}
	return false
}

func TestAppendFaultRewindsAndRetries(t *testing.T) {
	for _, step := range []struct {
		name string
		kind faultfs.Kind
	}{{"append", faultfs.WriteAt}, {"append-fsync", faultfs.Sync}} {
		t.Run(step.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "pool.epochlog")
			fs := faultfs.New(nil)
			s := openT(t, Config{Dir: dir, FS: fs})
			appendT(t, s, 1, Range{Addr: 0, Data: []byte("good")})
			fail := 1
			fs.Set(func(op faultfs.Op) error {
				if op.Kind == step.kind && fail > 0 {
					fail--
					return fmt.Errorf("injected %s fault", op.Kind)
				}
				return nil
			})
			if _, err := s.Append(2, []Range{{Addr: 4, Data: []byte("doomed")}}); err == nil {
				t.Fatalf("append should have failed")
			}
			if s.LastSeq() != 1 {
				t.Fatalf("failed append consumed a sequence number: %d", s.LastSeq())
			}
			// Retry succeeds and lands at seq 2; replay sees exactly the two
			// committed records and no residue from the failed attempt.
			appendT(t, s, 2, Range{Addr: 4, Data: []byte("retried")})
			s.Close()
			s2 := openT(t, Config{Dir: dir})
			recs := collect(t, s2)
			if len(recs) != 2 || !bytes.Equal(recs[1].Ranges[0].Data, []byte("retried")) {
				t.Fatalf("replay after retry = %+v", recs)
			}
		})
	}
}

func TestCompactFaultLeavesRecoverableStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	fs := faultfs.New(nil)
	s := openT(t, Config{Dir: dir, SegmentBytes: 64, FS: fs})
	for i := 1; i <= 4; i++ {
		appendT(t, s, uint64(i), Range{Addr: 0, Data: bytes.Repeat([]byte{byte(i)}, 48)})
	}
	var injected bool
	fs.Set(func(op faultfs.Op) error {
		if op.Kind == faultfs.Remove && !injected {
			injected = true
			return fmt.Errorf("injected compact fault")
		}
		return nil
	})
	if err := s.CompactThrough(3); err == nil {
		t.Fatalf("compact should have failed")
	}
	// The store stays consistent: replay still yields a contiguous suffix
	// ending at seq 4, and a retried compaction succeeds.
	if s.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d", s.LastSeq())
	}
	if err := s.CompactThrough(3); err != nil {
		t.Fatalf("retried compact: %v", err)
	}
	recs := collect(t, s)
	found := map[uint64]bool{}
	for _, rec := range recs {
		found[rec.Seq] = true
	}
	if !found[4] {
		t.Fatalf("live record lost after compaction retry: %+v", found)
	}
}

func TestHasSegments(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "pool.epochlog")
	if ok, err := HasSegments(dir); err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
	s := openT(t, Config{Dir: dir})
	if ok, _ := HasSegments(dir); !ok {
		t.Fatalf("open store created a segment; HasSegments should see it")
	}
	s.Close()
}

// TestTornRollReopens: a kill inside a segment roll leaves a newest segment
// shorter than its header. It holds no record; the store must open, replay
// to its last committed record, and (writable) remove the stub.
func TestTornRollReopens(t *testing.T) {
	for _, stub := range [][]byte{nil, make([]byte, seglog.SegHeaderSize-1)} {
		dir := filepath.Join(t.TempDir(), "pool.epochlog")
		s := openT(t, Config{Dir: dir})
		appendT(t, s, 1, Range{Addr: 0, Data: []byte("committed")})
		appendT(t, s, 2, Range{Addr: 16, Data: []byte("also committed")})
		s.Close()
		stubPath := filepath.Join(dir, format.SegName(2))
		if err := os.WriteFile(stubPath, stub, 0o644); err != nil {
			t.Fatal(err)
		}

		ro := openT(t, Config{Dir: dir, ReadOnly: true})
		if info := ro.Info(); !info.TornRoll || info.TornTail || info.LastSeq != 2 || len(info.Segments) != 1 {
			t.Fatalf("read-only info = %+v", info)
		}
		if recs := collect(t, ro); len(recs) != 2 {
			t.Fatalf("read-only replay = %+v", recs)
		}
		if fi, err := os.Stat(stubPath); err != nil || fi.Size() != int64(len(stub)) {
			t.Fatalf("read-only open touched the stub: %v", err)
		}

		s2 := openT(t, Config{Dir: dir})
		if !s2.Info().TornRoll {
			t.Fatalf("writable info = %+v", s2.Info())
		}
		if _, err := os.Stat(stubPath); !os.IsNotExist(err) {
			t.Fatalf("writable open left the stub behind: %v", err)
		}
		appendT(t, s2, 3, Range{Addr: 32, Data: []byte("after the torn roll")})
		if recs := collect(t, s2); len(recs) != 3 || recs[2].Seq != 3 {
			t.Fatalf("replay after append = %+v", recs)
		}
	}
}

func TestRecordApply(t *testing.T) {
	img := make([]byte, 64)
	ok := Record{Seq: 1, Ranges: []Range{{Addr: 0, Data: []byte("head")}, {Addr: 60, Data: []byte("tail")}}}
	if err := ok.Apply(img); err != nil {
		t.Fatalf("range ending exactly at len(img): %v", err)
	}
	if string(img[:4]) != "head" || string(img[60:]) != "tail" {
		t.Fatalf("img = %q", img)
	}
	for name, r := range map[string]Range{
		"one past the end": {Addr: 61, Data: []byte("tail")},
		"far past the end": {Addr: 1 << 40, Data: []byte("x")},
		"wrapping":         {Addr: ^uint64(0) - 3, Data: []byte("wraps to 4")},
	} {
		before := append([]byte(nil), img...)
		err := Record{Seq: 9, Ranges: []Range{r}}.Apply(img)
		if err == nil || !bytes.Equal(img, before) {
			t.Fatalf("%s: err=%v, image changed=%v", name, err, !bytes.Equal(img, before))
		}
	}
}

// TestAppendDoesNotAllocate: the commit path encodes straight into the
// log's staging buffer; the encode closure must not escape.
func TestAppendDoesNotAllocate(t *testing.T) {
	s := openT(t, Config{Dir: filepath.Join(t.TempDir(), "pool.epochlog")})
	ranges := []Range{{Addr: 0x38, Data: make([]byte, 8)}, {Addr: 0x2000, Data: make([]byte, 480)}}
	appendT(t, s, 1, ranges...)
	if avg := testing.AllocsPerRun(50, func() { s.Append(2, ranges) }); avg != 0 {
		t.Fatalf("Append allocates %.1f times per record", avg)
	}
}

// TestParentFixture: testdata/ holds a segment written by the commit before
// internal/seglog existed, with the records its Replay reported. The format
// is unchanged iff this code lists it, replays it to the same records, and
// re-encodes those records to the same bytes.
func TestParentFixture(t *testing.T) {
	var want []struct {
		Seq, Epoch uint64
		Ranges     []struct {
			Addr uint64
			Data []byte
		}
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if ok, err := HasSegments("testdata"); err != nil || !ok {
		t.Fatalf("HasSegments(testdata) = %v, %v", ok, err)
	}
	fixture := openT(t, Config{Dir: "testdata", ReadOnly: true})
	got := collect(t, fixture)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("replayed %d records, fixture recorded %d", len(got), len(want))
	}
	freshDir := filepath.Join(t.TempDir(), "pool.epochlog")
	fresh := openT(t, Config{Dir: freshDir})
	for i, w := range want {
		if got[i].Seq != w.Seq || got[i].Epoch != w.Epoch || len(got[i].Ranges) != len(w.Ranges) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], w)
		}
		for k, r := range w.Ranges {
			if got[i].Ranges[k].Addr != r.Addr || !bytes.Equal(got[i].Ranges[k].Data, r.Data) {
				t.Fatalf("record %d range %d = %+v, want %+v", i, k, got[i].Ranges[k], r)
			}
		}
		appendT(t, fresh, got[i].Epoch, got[i].Ranges...)
	}
	name := fixture.Segments()[0].Name
	old, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(freshDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, again) {
		t.Fatalf("re-encoding the fixture's records gave different bytes:\n old %x\n new %x", old, again)
	}
}

// FuzzRecordApply feeds hostile record bodies through decodeRecord — with
// the n word bounded as seglog's scan guarantees, n*16 ≤ len(body) — and
// applies what decodes onto a 4 KiB image. Either step may refuse with an
// error; neither may panic, and Apply may write only the bytes its ranges
// name, in order, stopping at the first range outside the image.
func FuzzRecordApply(f *testing.F) {
	encode := func(ranges ...Range) []byte {
		body := make([]byte, RecordSize(ranges)-seglog.RecHeaderSize-seglog.RecTrailerSize)
		off := RangeHeaderSize * len(ranges)
		for i, r := range ranges {
			binary.LittleEndian.PutUint64(body[i*RangeHeaderSize:], r.Addr)
			binary.LittleEndian.PutUint64(body[i*RangeHeaderSize+8:], uint64(len(r.Data)))
			off += copy(body[off:], r.Data)
		}
		return body
	}
	f.Add(encode(Range{Addr: 8, Data: []byte("first")}, Range{Addr: 4000, Data: []byte("past the end")}), uint32(2))
	f.Add(encode(Range{Addr: 0, Data: bytes.Repeat([]byte{1}, 4096)}), uint32(1))
	f.Add(encode(Range{Addr: ^uint64(0) - 2, Data: []byte("wraps")}), uint32(1))
	f.Add(encode(Range{Addr: 16, Data: []byte("short")}), uint32(0))
	f.Add([]byte{}, uint32(7))
	f.Fuzz(func(t *testing.T, body []byte, n uint32) {
		h := seglog.Header{Seq: 1, N: n % uint32(len(body)/RangeHeaderSize+1)}
		rec, err := decodeRecord(h, body)
		if err != nil {
			return
		}
		img := bytes.Repeat([]byte{0xee}, 4096)
		want := bytes.Clone(img)
		fits := true
		for _, r := range rec.Ranges {
			end := r.Addr + uint64(len(r.Data))
			if fits = end >= r.Addr && end <= uint64(len(want)); !fits {
				break
			}
			copy(want[r.Addr:end], r.Data)
		}
		if err := rec.Apply(img); (err == nil) != fits {
			t.Fatalf("Apply = %v, but every range fits = %v", err, fits)
		}
		if !bytes.Equal(img, want) {
			t.Fatal("Apply wrote bytes its ranges do not name")
		}
	})
}
