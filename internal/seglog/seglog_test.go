package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// formats mirrors the two consumers' constants (epochlog and blackbox import
// this package, so it cannot import them back). TestParentFixtures pins them
// to the real ones: the fixtures were written by the consumers' own code.
var formats = []Format{
	{Name: "epochlog", Ext: ".seg", SegMagic: 0x5041584550530131, RecMagic: 0x44454c54, CommitMark: 0x5041584350544d4b, Unit: 16},
	{Name: "blackbox", Ext: ".bb", SegMagic: 0x5041584242423031, RecMagic: 0x42424556, CommitMark: 0x5041584243415054, Unit: 1},
}

func eachFormat(t *testing.T, fn func(t *testing.T, f Format)) {
	for _, f := range formats {
		t.Run(f.Name, func(t *testing.T) { fn(t, f) })
	}
}

func openT(t *testing.T, cfg Config) *Log {
	t.Helper()
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 1 << 20
	}
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", cfg.Dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// appendBody appends one record whose body is the given bytes, split between
// the n word and the size word the way the format's Unit allows.
func appendBody(l *Log, stamp uint64, body []byte) error {
	n := len(body) / l.cfg.Format.Unit % 3
	_, err := l.Append(uint32(n), stamp, uint64(len(body)-n*l.cfg.Format.Unit), func(b []byte) { copy(b, body) })
	return err
}

func mustAppend(t *testing.T, l *Log, stamp uint64, body []byte) {
	t.Helper()
	if err := appendBody(l, stamp, body); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// collect replays the log into copied bodies, checking sequence numbers run
// contiguously from first.
func collect(t *testing.T, l *Log, first uint64) [][]byte {
	t.Helper()
	var out [][]byte
	err := l.Replay(0, func(h Header, body []byte) error {
		if want := first + uint64(len(out)); h.Seq != want {
			t.Fatalf("replayed seq %d, want %d (phantom or gap)", h.Seq, want)
		}
		out = append(out, append([]byte{}, body...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func frameSize(body []byte) int64 { return int64(RecHeaderSize + len(body) + RecTrailerSize) }

// readDir snapshots every file in dir, so a test can assert an open changed
// no byte.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// checkRecovery is the crash contract every damaged-tail case must meet:
// a read-only open changes no byte and yields exactly bodies[:want]; a
// writable open yields the same, leaves the newest segment on a clean record
// boundary, and the next append takes the next sequence number and survives
// a further reopen with nothing torn left to report.
func checkRecovery(t *testing.T, f Format, dir string, bodies [][]byte, want int) {
	t.Helper()
	before := readDir(t, dir)
	ro, err := Open(Config{Dir: dir, Format: f, SegmentBytes: 512, ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	got := collect(t, ro, 1)
	ro.Close()
	if len(got) != want {
		t.Fatalf("read-only open recovered %d records, want %d", len(got), want)
	}
	for i := range got {
		if !bytes.Equal(got[i], bodies[i]) {
			t.Fatalf("record %d body mismatch", i+1)
		}
	}
	if after := readDir(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("read-only open modified the directory")
	}

	rw := openT(t, Config{Dir: dir, Format: f, SegmentBytes: 512})
	if (rw.TornBytes > 0) != (ro.TornBytes > 0) || rw.TornRoll != ro.TornRoll {
		t.Fatalf("writable open found torn=%d roll=%q, read-only found torn=%d roll=%q",
			rw.TornBytes, rw.TornRoll, ro.TornBytes, ro.TornRoll)
	}
	if n := len(collect(t, rw, 1)); n != want {
		t.Fatalf("writable open recovered %d records, want %d", n, want)
	}
	act := rw.active()
	if fi, err := os.Stat(rw.path(act.Name)); err != nil || fi.Size() != act.End {
		t.Fatalf("repair left %s at %v bytes, committed prefix ends at %d (%v)", act.Name, fi.Size(), act.End, err)
	}
	if rw.NextSeq() != uint64(want)+1 {
		t.Fatalf("NextSeq = %d after recovering %d records", rw.NextSeq(), want)
	}
	mustAppend(t, rw, 99, []byte("appended after repair, long enough to cover any torn bytes"))
	rw.Close()
	re := openT(t, Config{Dir: dir, Format: f, SegmentBytes: 512, ReadOnly: true})
	if re.TornBytes != 0 || re.TornRoll != "" {
		t.Fatalf("after repair + append: torn=%d roll=%q", re.TornBytes, re.TornRoll)
	}
	if n := len(collect(t, re, 1)); n != want+1 {
		t.Fatalf("after repair + append: %d records, want %d", n, want+1)
	}
}

// buildLog appends n random records under a 512-byte segment cap and
// returns their bodies plus the byte offsets in the newest segment at which
// a record boundary falls (the first being the segment header's end).
func buildLog(t *testing.T, f Format, dir string, rng *rand.Rand, n int) (bodies [][]byte, tail string, boundaries []int64) {
	t.Helper()
	l := openT(t, Config{Dir: dir, Format: f, SegmentBytes: 512})
	for i := 0; i < n; i++ {
		body := make([]byte, 16+rng.Intn(120))
		rng.Read(body)
		mustAppend(t, l, uint64(i), body)
		bodies = append(bodies, body)
	}
	act := *l.active()
	l.Close()
	boundaries = []int64{SegHeaderSize}
	for seq := act.FirstSeq; seq <= act.LastSeq; seq++ {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+frameSize(bodies[seq-1]))
	}
	if end := boundaries[len(boundaries)-1]; end != act.End {
		t.Fatalf("reconstructed tail layout %v, segment ends at %d", boundaries, act.End)
	}
	return bodies, filepath.Join(dir, act.Name), boundaries
}

// TestByteCutProperty is the seeded crash-replay property test: cut the
// newest segment at an arbitrary byte — every byte a crash could have
// stopped at, the segment header's included — and recovery yields exactly
// the records whose frames were fully durable before the cut: every acked
// append, no phantom.
func TestByteCutProperty(t *testing.T) {
	eachFormat(t, func(t *testing.T, f Format) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 12; trial++ {
			dir := filepath.Join(t.TempDir(), "log")
			bodies, tail, boundaries := buildLog(t, f, dir, rng, 10+rng.Intn(30))
			end := boundaries[len(boundaries)-1]
			cut := rng.Int63n(end + 1)
			if err := os.Truncate(tail, cut); err != nil {
				t.Fatal(err)
			}
			want := len(bodies) - (len(boundaries) - 1)
			for _, b := range boundaries[1:] {
				if b <= cut {
					want++
				}
			}
			t.Logf("trial %d: %d records, tail %s cut at %d of %d", trial, len(bodies), filepath.Base(tail), cut, end)
			checkRecovery(t, f, dir, bodies, want)
		}
	})
}

// TestTornTailCases keeps the hand-picked cuts the property test might not
// draw: each way an interrupted append or roll can leave the newest segment.
func TestTornTailCases(t *testing.T) {
	cases := []struct {
		name string
		// damage edits the newest segment's image; start and end bracket its
		// last record. lost is how many records the damage costs.
		damage func(img []byte, start, end int64) []byte
		lost   int
	}{
		{"cut-mid-header", func(img []byte, start, end int64) []byte { return img[:start+RecHeaderSize/2] }, 1},
		{"cut-mid-payload", func(img []byte, start, end int64) []byte { return img[:start+(end-start)/2] }, 1},
		{"cut-commit-marker", func(img []byte, start, end int64) []byte { return img[:end-4] }, 1},
		{"flip-data-bit", func(img []byte, start, end int64) []byte { img[start+RecHeaderSize+8] ^= 0xff; return img }, 1},
		{"garbage-after-tail", func(img []byte, start, end int64) []byte { return append(img, "partial-append-garbage"...) }, 0},
		{"torn-roll-empty", func(img []byte, start, end int64) []byte { return nil }, -1},
		{"torn-roll-half-header", func(img []byte, start, end int64) []byte { return img[:SegHeaderSize/2] }, -1},
	}
	eachFormat(t, func(t *testing.T, f Format) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "log")
				bodies, tail, boundaries := buildLog(t, f, dir, rand.New(rand.NewSource(7)), 20)
				img, err := os.ReadFile(tail)
				if err != nil {
					t.Fatal(err)
				}
				n := len(boundaries)
				img = c.damage(img, boundaries[n-2], boundaries[n-1])
				if err := os.WriteFile(tail, img, 0o644); err != nil {
					t.Fatal(err)
				}
				lost := c.lost
				if lost < 0 { // the whole newest segment
					lost = n - 1
				}
				checkRecovery(t, f, dir, bodies, len(bodies)-lost)
			})
		}
	})
}

// TestDamageOutsideTheNewestSegmentIsRefused: the two legal crash states are
// legal only at the tail; a header with the wrong magic is never legal.
func TestDamageOutsideTheNewestSegmentIsRefused(t *testing.T) {
	cases := []struct {
		name   string
		seg    int // index into the sorted segment list; -1 = newest
		damage func(img []byte) []byte
		want   string
	}{
		{"torn-middle", 1, func(img []byte) []byte { return img[:len(img)-5] }, "non-newest"},
		{"short-header-middle", 1, func(img []byte) []byte { return img[:7] }, "short segment header"},
		{"bad-magic-newest", -1, func(img []byte) []byte { img[0] ^= 0xff; return img }, "bad segment magic"},
		{"bad-version-newest", -1, func(img []byte) []byte { img[8] = 9; return img }, "unsupported segment version"},
		{"zeroed-header-newest", -1, func(img []byte) []byte { return make([]byte, SegHeaderSize) }, "bad segment magic"},
	}
	eachFormat(t, func(t *testing.T, f Format) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "log")
				buildLog(t, f, dir, rand.New(rand.NewSource(3)), 20)
				indices, err := List(dir, f)
				if err != nil || len(indices) < 3 {
					t.Fatalf("need ≥3 segments, got %d (%v)", len(indices), err)
				}
				idx := indices[len(indices)-1]
				if c.seg >= 0 {
					idx = indices[c.seg]
				}
				path := filepath.Join(dir, f.SegName(idx))
				img, _ := os.ReadFile(path)
				if err := os.WriteFile(path, c.damage(img), 0o644); err != nil {
					t.Fatal(err)
				}
				for _, ro := range []bool{true, false} {
					_, err := Open(Config{Dir: dir, Format: f, SegmentBytes: 512, ReadOnly: ro})
					if err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), f.Name+": ") {
						t.Fatalf("open (read-only=%v) = %v, want a %q refusal", ro, err, c.want)
					}
				}
			})
		}
	})
}

// TestSecondTornRollIsRefused: a roll creates one file at a time and a
// writable open removes what it left, so two headerless segments cannot
// come from a crash.
func TestSecondTornRollIsRefused(t *testing.T) {
	f := formats[0]
	dir := filepath.Join(t.TempDir(), "log")
	buildLog(t, f, dir, rand.New(rand.NewSource(3)), 5)
	indices, _ := List(dir, f)
	next := indices[len(indices)-1] + 1
	for _, idx := range []uint64{next, next + 1} {
		if err := os.WriteFile(filepath.Join(dir, f.SegName(idx)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Config{Dir: dir, Format: f, SegmentBytes: 512, ReadOnly: true}); err == nil {
		t.Fatal("two headerless segments accepted")
	}
}

// TestFailedRollIsRetried: the new segment is created, headered and synced
// before the swap, so a failed roll returns its error, leaves the log where
// it was, and the next append rolls again and lands.
func TestFailedRollIsRetried(t *testing.T) {
	eachFormat(t, func(t *testing.T, f Format) {
		dir := filepath.Join(t.TempDir(), "log")
		injected := errors.New("injected ENOSPC")
		failRolls := 0
		l := openT(t, Config{Dir: dir, Format: f, SegmentBytes: 128, Fault: func(st Stage) error {
			if st == StageRoll && failRolls > 0 {
				failRolls--
				return injected
			}
			return nil
		}})
		first, second := bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 64)
		mustAppend(t, l, 1, first)
		failRolls = 1
		if err := appendBody(l, 2, second); !errors.Is(err, injected) {
			t.Fatalf("append across a failing roll = %v, want the injected fault", err)
		}
		if n := len(l.Segments()); n != 1 || l.NextSeq() != 2 {
			t.Fatalf("failed roll left %d segments, NextSeq %d", n, l.NextSeq())
		}
		mustAppend(t, l, 2, second)
		if n := len(l.Segments()); n != 2 {
			t.Fatalf("retried roll left %d segments, want 2", n)
		}
		l.Close()
		re := openT(t, Config{Dir: dir, Format: f, ReadOnly: true})
		if got := collect(t, re, 1); len(got) != 2 || !bytes.Equal(got[1], second) {
			t.Fatalf("replay after the retried roll = %d records", len(got))
		}
	})
}

// TestFailedAppendRewinds: a failed append consumes no sequence number and
// leaves no bytes a later reopen could mistake for a record.
func TestFailedAppendRewinds(t *testing.T) {
	for _, stage := range []Stage{StageAppend, StageAppendSync} {
		t.Run(string(stage), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "log")
			fail := false
			l := openT(t, Config{Dir: dir, Format: formats[1], Fault: func(st Stage) error {
				if st == stage && fail {
					fail = false
					return errors.New("injected")
				}
				return nil
			}})
			mustAppend(t, l, 1, []byte("good"))
			fail = true
			if err := appendBody(l, 2, []byte("doomed, and longer than its replacement")); err == nil {
				t.Fatal("append should have failed")
			}
			if l.NextSeq() != 2 {
				t.Fatalf("failed append consumed a sequence number: NextSeq %d", l.NextSeq())
			}
			mustAppend(t, l, 2, []byte("retried"))
			l.Close()
			re := openT(t, Config{Dir: dir, Format: formats[1], ReadOnly: true})
			if got := collect(t, re, 1); len(got) != 2 || string(got[1]) != "retried" || re.TornBytes != 0 {
				t.Fatalf("replay after retry = %q (torn %d)", got, re.TornBytes)
			}
		})
	}
}

// TestRemoveOldest covers deletion and its crash matrix row: a failure
// part-way leaves a shorter log that still opens, oldest segments gone.
func TestRemoveOldest(t *testing.T) {
	f := formats[0]
	dir := filepath.Join(t.TempDir(), "log")
	failAt := -1
	l := openT(t, Config{Dir: dir, Format: f, SegmentBytes: 128, Fault: func(st Stage) error {
		if st == StageRemove {
			if failAt == 0 {
				return errors.New("injected")
			}
			failAt--
		}
		return nil
	}})
	for i := 0; i < 6; i++ {
		mustAppend(t, l, uint64(i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if n := len(l.Segments()); n != 6 {
		t.Fatalf("expected one record per segment, got %d segments", n)
	}
	failAt = 1
	if err := l.RemoveOldest(3); err == nil {
		t.Fatal("remove should have failed on its second segment")
	}
	if segs := l.Segments(); len(segs) != 5 || segs[0].FirstSeq != 2 {
		t.Fatalf("after a part-way failure: %d segments starting at seq %d", len(segs), segs[0].FirstSeq)
	}
	failAt = -1
	if err := l.RemoveOldest(100); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); len(segs) != 1 || segs[0].FirstSeq != 6 {
		t.Fatalf("RemoveOldest must stop at the active segment: %+v", segs)
	}
	mustAppend(t, l, 7, []byte("still appendable"))
	l.Close()
	re := openT(t, Config{Dir: dir, Format: f, ReadOnly: true})
	if got := collect(t, re, 6); len(got) != 2 {
		t.Fatalf("reopen after removal replayed %d records, want 2", len(got))
	}
}

func TestRollRule(t *testing.T) {
	f := formats[1]
	l := openT(t, Config{Dir: filepath.Join(t.TempDir(), "log"), Format: f, SegmentBytes: 256})
	// An oversized record lands in the empty first segment rather than
	// rolling forever; the next one does not fit behind it.
	mustAppend(t, l, 1, make([]byte, 1000))
	mustAppend(t, l, 2, make([]byte, 50))
	// 32 + 2*94 = 220 ≤ 256 < 220 + 94: two fit, the third rolls.
	mustAppend(t, l, 3, make([]byte, 50))
	mustAppend(t, l, 4, make([]byte, 50))
	var per []int
	for _, seg := range l.Segments() {
		per = append(per, seg.Records)
		if seg.Records > 1 && seg.End > 256 {
			t.Fatalf("%s holds %d records in %d bytes, over the 256-byte cap", seg.Name, seg.Records, seg.End)
		}
	}
	if fmt.Sprint(per) != "[1 2 1]" {
		t.Fatalf("records per segment = %v, want [1 2 1]", per)
	}
}

func TestListRule(t *testing.T) {
	f := formats[0]
	dir := t.TempDir()
	if got, err := List(filepath.Join(dir, "absent"), f); err != nil || got != nil {
		t.Fatalf("missing dir: %v, %v", got, err)
	}
	for _, name := range []string{"seg-00000010.seg", "seg-00000002.seg", "seg-00000002.bb", "seg-00000003.seg.tmp", "notes.txt", "seg-123456789.seg"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := List(dir, f)
	if err != nil || fmt.Sprint(got) != "[2 10 123456789]" {
		t.Fatalf("List = %v, %v; want [2 10 123456789] (numeric order, strangers ignored)", got, err)
	}
	for _, bad := range []string{"seg-3.seg", "seg-x.seg", "seg-.seg"} {
		path := filepath.Join(dir, bad)
		os.WriteFile(path, nil, 0o644)
		if _, err := List(dir, f); err == nil || !strings.Contains(err.Error(), "malformed segment name") {
			t.Fatalf("%s: List = %v, want a malformed-name refusal", bad, err)
		}
		os.Remove(path)
	}
}

func TestReadOnlyLogRefusesWrites(t *testing.T) {
	f := formats[0]
	dir := filepath.Join(t.TempDir(), "log")
	buildLog(t, f, dir, rand.New(rand.NewSource(1)), 3)
	ro := openT(t, Config{Dir: dir, Format: f, ReadOnly: true})
	if appendBody(ro, 1, []byte("0123456789abcdef")) == nil || ro.Roll() == nil || ro.RemoveOldest(1) == nil {
		t.Fatal("a read-only log accepted a write")
	}
	// A read-only open of a directory that does not exist is an empty log,
	// and does not create it.
	absent := filepath.Join(t.TempDir(), "absent")
	if l := openT(t, Config{Dir: absent, Format: f, ReadOnly: true}); len(l.Segments()) != 0 || l.NextSeq() != 1 {
		t.Fatalf("absent dir: %+v", l.Segments())
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatalf("read-only open created the directory: %v", err)
	}
}

// TestAppendDoesNotAllocate guards the log-owned staging buffer.
func TestAppendDoesNotAllocate(t *testing.T) {
	l := openT(t, Config{Dir: filepath.Join(t.TempDir(), "log"), Format: formats[0]})
	body := make([]byte, 496)
	mustAppend(t, l, 0, body)
	if avg := testing.AllocsPerRun(50, func() {
		l.Append(2, 1, uint64(len(body)-32), func(b []byte) { copy(b, body) })
	}); avg != 0 {
		t.Fatalf("Append allocates %.1f times per record", avg)
	}
}

// TestParentFixtures scans the two segment files the parent commit's
// epochlog and blackbox wrote (their own tests decode the bodies).
func TestParentFixtures(t *testing.T) {
	eachFormat(t, func(t *testing.T, f Format) {
		dir := filepath.Join("..", f.Name, "testdata")
		before := readDir(t, dir)
		l := openT(t, Config{Dir: dir, Format: f, ReadOnly: true})
		segs := l.Segments()
		if len(segs) != 1 || segs[0].Name != f.SegName(1) || segs[0].Records != 3 ||
			segs[0].FirstSeq != 1 || segs[0].LastSeq != 3 || segs[0].End != segs[0].Size || l.NextSeq() != 4 {
			t.Fatalf("fixture scan = %+v", segs)
		}
		if got := collect(t, l, 1); len(got) != 3 {
			t.Fatalf("fixture replay = %d records", len(got))
		}
		if after := readDir(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatal("read-only open modified the fixture")
		}
	})
}

// segmentImage builds a valid first segment holding the given bodies.
func segmentImage(t testing.TB, f Format, bodies ...[]byte) []byte {
	l, err := Open(Config{Dir: t.TempDir(), Format: f, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, b := range bodies {
		if err := appendBody(l, uint64(i), b); err != nil {
			t.Fatal(err)
		}
	}
	img, err := os.ReadFile(l.path(l.active().Name))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzScan feeds arbitrary bytes to Open as the newest segment and as a
// sealed one. It must never panic (scan sizes nothing from a length word —
// it only slices the file's own image, after checking the words against it),
// never report a record whose CRC and commit marker do not verify, and never
// accept a sealed segment with anything after its committed prefix.
func FuzzScan(f *testing.F) {
	var neighbours [][]byte
	for i, format := range formats {
		neighbours = append(neighbours, segmentImage(f, format, []byte("0123456789abcdef")))
		img := segmentImage(f, format, []byte("0123456789abcdef-first"), bytes.Repeat([]byte{0xab}, 48))
		f.Add(img, uint8(i))
		f.Add(img[:len(img)-5], uint8(i))
		f.Add(img[:SegHeaderSize+RecHeaderSize/2], uint8(i))
		f.Add(img[:SegHeaderSize], uint8(i))
		f.Add(img[:9], uint8(i))
		huge := bytes.Clone(img)
		le.PutUint64(huge[SegHeaderSize+24:], 1<<62) // size word far past the file
		f.Add(huge, uint8(i))
		wrap := bytes.Clone(img)
		le.PutUint32(wrap[SegHeaderSize+4:], 0xffffffff) // n*Unit + size wraps
		le.PutUint64(wrap[SegHeaderSize+24:], ^uint64(0)-15)
		f.Add(wrap, uint8(i))
	}
	f.Add([]byte("not a segment at all, but longer than one header"), uint8(0))
	f.Add([]byte{}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		format, neighbour := formats[int(which)%len(formats)], neighbours[int(which)%len(formats)]
		for _, sealed := range []bool{false, true} {
			dir := t.TempDir()
			dataName, otherName := format.SegName(2), format.SegName(1)
			if sealed {
				dataName, otherName = otherName, dataName
			}
			if err := os.WriteFile(filepath.Join(dir, dataName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, otherName), neighbour, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(Config{Dir: dir, Format: format, SegmentBytes: 1 << 20, ReadOnly: true})
			if err != nil {
				continue // a refusal is always allowed; a panic is not
			}
			for _, seg := range l.Segments() {
				if seg.Name != dataName {
					continue
				}
				if sealed && seg.End != seg.Size {
					t.Fatalf("sealed segment accepted with %d bytes after its committed prefix", seg.Size-seg.End)
				}
				// Re-verify, from the raw bytes, every record reported out
				// of data (Replay goes on into the neighbour when sealed).
				off, left := SegHeaderSize, seg.Records
				err := l.Replay(seg.Index, func(h Header, body []byte) error {
					if left == 0 {
						return nil
					}
					left--
					end := off + RecHeaderSize + len(body)
					if end+RecTrailerSize > len(data) || le.Uint32(data[off:]) != format.RecMagic ||
						!bytes.Equal(data[off+RecHeaderSize:end], body) ||
						crc32.Checksum(data[off:end], crcTable) != le.Uint32(data[end:]) ||
						le.Uint64(data[end+4:]) != format.CommitMark {
						t.Fatalf("record seq %d at byte %d does not verify", h.Seq, off)
					}
					off = end + RecTrailerSize
					return nil
				})
				if err != nil || left != 0 || int64(off) != seg.End {
					t.Fatalf("replay after a successful open: %v (%d records unreported, verified to byte %d of %d)", err, left, off, seg.End)
				}
			}
		}
	})
}
