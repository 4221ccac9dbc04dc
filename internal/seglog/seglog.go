// Package seglog is the one append-only segment log under the epoch store
// (internal/epochlog) and the crash black box (internal/blackbox), and the
// one atomic file publish and in-place patch (publish.go) beside it: the
// file-level form of the PAX ordering rule — a record is on media before
// anything that depends on it, and recovery trusts only what passes an
// integrity check.
//
// A log is a directory of files seg-<index><ext>, each a 32-byte header and
// consecutive framed records:
//
//	segment: [segMagic u64 | version u64 | firstSeq u64 | reserved u64]
//	record:  [recMagic u32 | n u32 | seq u64 | stamp u64 | size u64]
//	         [body: n*Unit + size bytes]
//	         [crc32c u32 (header+body) | commitMark u64]
//
// n, stamp and size are the consumer's (its Format gives the magic numbers
// and Unit); seglog assigns and verifies seq. A record is committed iff it
// is fully present, its CRC matches and its trailing commit marker is
// intact. Anything else is a torn tail from a crash mid-append: legal only
// in the newest segment, where a writable Open truncates it away (fsynced)
// so the next append never leaves garbage between records; corruption
// anywhere else. A newest segment shorter than its header is the other legal
// crash state — a kill inside Roll before the header was durable; it holds
// no record by construction and a writable Open removes it. What a sequence
// gap between segments means is the consumer's policy, applied on top.
//
// A Log is single-writer and not safe for concurrent use: each consumer
// serializes calls under its own mutex. ReadSegment is the one exception.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

const (
	// SegHeaderSize is the fixed segment preamble.
	SegHeaderSize = 32
	// RecHeaderSize is magic(4) + n(4) + seq(8) + stamp(8) + size(8).
	RecHeaderSize = 32
	// RecTrailerSize is crc(4) + commit marker(8).
	RecTrailerSize = 12

	segVersion = 1

	// maxRetainedBuf caps the staging buffer a log keeps between appends, so
	// one outsized record (a table rehash) does not pin its size in memory
	// for the log's lifetime.
	maxRetainedBuf = 1 << 20
)

var (
	le       = binary.LittleEndian
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// Format is what distinguishes one consumer's files from another's.
type Format struct {
	// Name prefixes every error ("epochlog", "blackbox").
	Name string
	// Ext is the segment file extension, dot included.
	Ext      string
	SegMagic uint64
	RecMagic uint32
	// CommitMark trails every record; a record without it was torn by a
	// crash mid-append. 8 bytes so the marker itself is a single atomic
	// write unit on the modeled media.
	CommitMark uint64
	// Unit is how many body bytes each count of a record's n word stands
	// for: a body is n*Unit + size bytes.
	Unit int
}

// SegName renders a segment file name; zero-padding keeps lexical order
// numeric.
func (f Format) SegName(index uint64) string { return fmt.Sprintf("seg-%08d%s", index, f.Ext) }

func (f Format) errorf(format string, args ...any) error {
	return fmt.Errorf(f.Name+": "+format, args...)
}

// Stage identifies a durability step a fault hook can fail.
type Stage string

// Log stages. The publish stages are in publish.go.
const (
	// StageAppend fails writing a record into the active segment.
	StageAppend Stage = "append"
	// StageAppendSync fails the segment fsync that commits the record.
	StageAppendSync Stage = "append-fsync"
	// StageRoll fails starting the next segment.
	StageRoll Stage = "roll"
	// StageRemove fails deleting an oldest segment.
	StageRemove Stage = "remove"
)

// Config parameterizes Open.
type Config struct {
	Dir    string
	Format Format
	// SegmentBytes caps a segment: an append that would not fit rolls first,
	// unless the active segment holds no record yet (a record larger than
	// the cap gets a segment to itself).
	SegmentBytes int64
	// Fault, when set, is consulted before each stage; a non-nil return
	// fails that stage with the returned error.
	Fault func(Stage) error
	// ReadOnly opens for inspection: no directory creation, no repair, no
	// appends. Tools use it on live or damaged logs.
	ReadOnly bool
}

// Header is the codec-visible part of a record frame.
type Header struct {
	N                uint32
	Seq, Stamp, Size uint64
}

// Segment is what a scan found in one segment file, kept current by Append.
type Segment struct {
	Name  string
	Index uint64
	// FirstSeq is the header's first sequence number; LastSeq is FirstSeq-1
	// while the segment holds no record.
	FirstSeq, LastSeq uint64
	Records           int
	// FirstStamp/LastStamp are the stamp words of the first and last record
	// (0/0 when empty).
	FirstStamp, LastStamp uint64
	// End is where the committed prefix ends; Size is the file size. Size >
	// End means a torn tail follows the last committed record, Size <
	// SegHeaderSize a file too short to hold a segment header.
	End, Size int64
}

// add accounts one committed record of frame bytes.
func (s *Segment) add(seq, stamp uint64, frame int) {
	if s.Records == 0 {
		s.FirstStamp = stamp
	}
	s.Records++
	s.LastSeq, s.LastStamp = seq, stamp
	s.End += int64(frame)
}

// Log is an open segment log.
type Log struct {
	cfg  Config
	segs []Segment // ascending Index; the last one is active
	f    *os.File  // active segment; nil when read-only or closed
	// buf is Append's staging buffer, reused so the commit path allocates
	// nothing per record.
	buf []byte

	// TornBytes is the length of the torn tail Open found on the newest
	// segment (and truncated, unless ReadOnly); 0 when it ended cleanly.
	TornBytes int64
	// TornRoll names the headerless newest segment Open found (and removed,
	// unless ReadOnly); empty when there was none.
	TornRoll string
}

// List returns the indices of the segment files in dir, ascending; a missing
// directory holds none. A name that begins "seg-" and ends in the format's
// extension claims to be a segment, so one that does not round-trip through
// SegName is refused rather than skipped — skipping it would turn a renamed
// segment into a silent sequence gap. Everything else (staging files, other
// logs' segments, editor litter) is ignored.
func List(dir string, f Format) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, f.errorf("%w", err)
	}
	var indices []uint64
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), "seg-")
		if ok {
			digits, ok = strings.CutSuffix(digits, f.Ext)
		}
		if !ok {
			continue
		}
		idx, err := strconv.ParseUint(digits, 10, 64)
		if err != nil || f.SegName(idx) != e.Name() {
			return nil, f.errorf("malformed segment name %q in %s", e.Name(), dir)
		}
		indices = append(indices, idx)
	}
	slices.Sort(indices)
	return indices, nil
}

// Open scans and validates the log at cfg.Dir and, unless ReadOnly, repairs
// the two legal crash states and prepares it for appends, creating the
// directory and first segment as needed.
func Open(cfg Config) (*Log, error) {
	l := &Log{cfg: cfg}
	if !cfg.ReadOnly {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, l.errorf("%w", err)
		}
	}
	indices, err := List(cfg.Dir, cfg.Format)
	if err != nil {
		return nil, err
	}
	for _, idx := range indices {
		seg, err := l.scanFile(idx, nil)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, seg)
	}
	if n := len(l.segs); n > 0 && l.segs[n-1].Size < SegHeaderSize {
		l.TornRoll = l.segs[n-1].Name
		l.segs = l.segs[:n-1]
		if !cfg.ReadOnly {
			err := os.Remove(l.path(l.TornRoll))
			if err == nil {
				err = SyncDir(cfg.Dir)
			}
			if err != nil {
				return nil, l.errorf("removing torn roll %s: %w", l.TornRoll, err)
			}
		}
	}
	for i, seg := range l.segs {
		switch {
		case seg.Size < SegHeaderSize:
			return nil, l.errorf("%s: short segment header (%d bytes) in a non-newest segment", seg.Name, seg.Size)
		case seg.Size > seg.End && i < len(l.segs)-1:
			return nil, l.errorf("%s: torn record inside a non-newest segment (corruption, not a crash tail)", seg.Name)
		}
	}
	if len(l.segs) > 0 {
		l.TornBytes = l.active().Size - l.active().End
	}
	if cfg.ReadOnly {
		return l, nil
	}
	if len(l.segs) == 0 {
		if err := l.Roll(); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := l.active()
	f, err := os.OpenFile(l.path(last.Name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, l.errorf("%w", err)
	}
	if l.TornBytes > 0 {
		// The truncation must be durable before new appends land after it,
		// or a crash could resurrect torn bytes between committed records.
		err := f.Truncate(last.End)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, l.errorf("truncating torn tail of %s: %w", last.Name, err)
		}
		last.Size = last.End
	}
	l.f = f
	return l, nil
}

func (l *Log) errorf(format string, args ...any) error { return l.cfg.Format.errorf(format, args...) }
func (l *Log) path(name string) string                 { return filepath.Join(l.cfg.Dir, name) }
func (l *Log) active() *Segment                        { return &l.segs[len(l.segs)-1] }

func (l *Log) fault(st Stage) error {
	if l.cfg.Fault == nil {
		return nil
	}
	return l.cfg.Fault(st)
}

// scanFile scans one segment file of the log's directory. The records it
// reports alias the file's image, read whole: a segment is bounded by
// SegmentBytes or by the one record too large for it.
func (l *Log) scanFile(index uint64, fn func(Header, []byte) error) (Segment, error) {
	name := l.cfg.Format.SegName(index)
	img, err := os.ReadFile(l.path(name))
	if err != nil {
		return Segment{}, l.errorf("%w", err)
	}
	seg, err := l.cfg.Format.scan(name, img, fn)
	seg.Index = index
	return seg, err
}

// scan walks one segment image and reports what it holds: the committed
// prefix (every record framed, CRC-verified, marked and in sequence), where
// it ends, and the file size. It applies no policy — whether a torn tail or
// a short header is legal depends on which segment this is, which Open
// knows. A bad magic or version, or a committed record out of sequence, is
// corruption wherever it appears. When fn is non-nil it receives each
// committed record; body aliases img.
func (f Format) scan(name string, img []byte, fn func(Header, []byte) error) (Segment, error) {
	seg := Segment{Name: name, Size: int64(len(img))}
	if len(img) < SegHeaderSize {
		return seg, nil
	}
	if got := le.Uint64(img[0:]); got != f.SegMagic {
		return seg, f.errorf("%s: bad segment magic %#x", name, got)
	}
	if got := le.Uint64(img[8:]); got != segVersion {
		return seg, f.errorf("%s: unsupported segment version %d", name, got)
	}
	seg.FirstSeq = le.Uint64(img[16:])
	if seg.FirstSeq == 0 {
		return seg, f.errorf("%s: segment header firstSeq 0", name)
	}
	seg.LastSeq = seg.FirstSeq - 1
	seg.End = SegHeaderSize
	// Anything that stops the loop short of the file's end is a torn tail:
	// a cut header, garbage where a header should be, lengths claiming more
	// than the file holds (checked before they size anything), a CRC
	// mismatch, or a crash before the marker.
	for {
		rec := img[seg.End:]
		room := len(rec) - RecHeaderSize - RecTrailerSize
		if room < 0 || le.Uint32(rec[0:]) != f.RecMagic {
			return seg, nil
		}
		h := Header{N: le.Uint32(rec[4:]), Seq: le.Uint64(rec[8:]), Stamp: le.Uint64(rec[16:]), Size: le.Uint64(rec[24:])}
		if h.Size > uint64(room) || uint64(h.N)*uint64(f.Unit) > uint64(room)-h.Size {
			return seg, nil
		}
		crcAt := RecHeaderSize + int(h.N)*f.Unit + int(h.Size)
		if crc32.Checksum(rec[:crcAt], crcTable) != le.Uint32(rec[crcAt:]) || le.Uint64(rec[crcAt+4:]) != f.CommitMark {
			return seg, nil
		}
		// The record is committed; a wrong sequence number here is not a
		// tail the crash tore — it is corruption.
		if h.Seq != seg.LastSeq+1 {
			return seg, f.errorf("%s: record sequence %d, want %d", name, h.Seq, seg.LastSeq+1)
		}
		if fn != nil {
			if err := fn(h, rec[RecHeaderSize:crcAt:crcAt]); err != nil {
				return seg, err
			}
		}
		seg.add(h.Seq, h.Stamp, crcAt+RecTrailerSize)
	}
}

// Segments reports the current segment set, oldest first. The slice is the
// log's own: read it, do not keep it across a mutating call.
func (l *Log) Segments() []Segment { return l.segs }

// NextSeq reports the sequence number the next Append will assign.
func (l *Log) NextSeq() uint64 {
	if len(l.segs) == 0 {
		return 1
	}
	return l.active().LastSeq + 1
}

// Replay streams every committed record, oldest first, of the segments whose
// Index is at least from.
func (l *Log) Replay(from uint64, fn func(Header, []byte) error) error {
	for _, seg := range l.segs {
		if seg.Index < from {
			continue
		}
		if err := l.ReadSegment(seg, fn); err != nil {
			return err
		}
	}
	return nil
}

// ReadSegment streams the committed records of seg, a copy the caller took
// from Segments, oldest first. It reads only the segment's file and the log's
// fixed configuration, so unlike the other methods it may run while Append
// and Roll go on elsewhere: those only add records past the End the caller
// saw, and fn may receive such records too. It fails if the file's committed
// records now end before seg.End — the segment was removed or damaged since
// it was listed.
func (l *Log) ReadSegment(seg Segment, fn func(Header, []byte) error) error {
	got, err := l.scanFile(seg.Index, fn)
	if err != nil {
		return err
	}
	if got.End < seg.End {
		return l.errorf("%s: committed records end at byte %d, were at %d when last scanned", seg.Name, got.End, seg.End)
	}
	return nil
}

// Append frames one record — header words n, stamp and size, a body of
// n*Unit + size bytes that fill must write every byte of — writes it with
// one WriteAt and commits it with one fsync, returning its on-media size.
// On failure the log rewinds to the previous record boundary: the sequence
// number is not consumed, a retry overwrites whatever the failed attempt
// left, and the caller must treat the record as not durable.
func (l *Log) Append(n uint32, stamp, size uint64, fill func(body []byte)) (int64, error) {
	if l.f == nil {
		return 0, l.errorf("log is not open for appends")
	}
	total := RecHeaderSize + int(n)*l.cfg.Format.Unit + int(size) + RecTrailerSize
	if seg := l.active(); seg.Records > 0 && seg.End+int64(total) > l.cfg.SegmentBytes {
		if err := l.Roll(); err != nil {
			return 0, err
		}
	}
	if err := l.fault(StageAppend); err != nil {
		return 0, l.errorf("append: %w", err)
	}
	seg, seq := l.active(), l.NextSeq()
	buf := l.buf
	if cap(buf) < total {
		buf = make([]byte, total)
		if total <= maxRetainedBuf {
			l.buf = buf
		}
	}
	buf = buf[:total]
	crcAt := total - RecTrailerSize
	le.PutUint32(buf[0:], l.cfg.Format.RecMagic)
	le.PutUint32(buf[4:], n)
	le.PutUint64(buf[8:], seq)
	le.PutUint64(buf[16:], stamp)
	le.PutUint64(buf[24:], size)
	fill(buf[RecHeaderSize:crcAt])
	le.PutUint32(buf[crcAt:], crc32.Checksum(buf[:crcAt], crcTable))
	le.PutUint64(buf[crcAt+4:], l.cfg.Format.CommitMark)

	_, err := l.f.WriteAt(buf, seg.End)
	if err == nil {
		err = l.fault(StageAppendSync)
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		// Best effort: clear the partial record so a later crash cannot
		// leave its bytes between committed records. Open's truncation
		// backstops this if the process dies first.
		l.f.Truncate(seg.End)
		return 0, l.errorf("append: %w", err)
	}
	seg.add(seq, stamp, total)
	seg.Size = seg.End
	return int64(total), nil
}

// Roll seals the active segment and starts the next one. The new file
// (header included) is fsynced, and so is the directory, before the swap: a
// record's durability must imply its segment's, and a failed roll leaves the
// log appending where it was, to be retried by the next Append.
func (l *Log) Roll() error {
	if l.cfg.ReadOnly || (l.f == nil && len(l.segs) > 0) {
		return l.errorf("log is not open for appends")
	}
	index, first := uint64(1), l.NextSeq()
	if len(l.segs) > 0 {
		index = l.active().Index + 1
	}
	name := l.cfg.Format.SegName(index)
	err := l.fault(StageRoll)
	var f *os.File
	if err == nil {
		f, err = os.OpenFile(l.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return l.errorf("roll: %w", err)
	}
	var hdr [SegHeaderSize]byte
	le.PutUint64(hdr[0:], l.cfg.Format.SegMagic)
	le.PutUint64(hdr[8:], segVersion)
	le.PutUint64(hdr[16:], first)
	if _, err = f.Write(hdr[:]); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = SyncDir(l.cfg.Dir)
	}
	if err != nil {
		f.Close()
		os.Remove(l.path(name))
		return l.errorf("roll: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.segs = append(l.segs, Segment{
		Name: name, Index: index,
		FirstSeq: first, LastSeq: first - 1,
		End: SegHeaderSize, Size: SegHeaderSize,
	})
	return nil
}

// RemoveOldest deletes the k oldest segments (never the active one), oldest
// first, and fsyncs the directory. A crash or failure part-way leaves a
// shorter log whose oldest segments are gone — never a hole behind a
// survivor.
func (l *Log) RemoveOldest(k int) error {
	if l.f == nil {
		return l.errorf("log is not open for appends")
	}
	removed := false
	for ; k > 0 && len(l.segs) > 1; k-- {
		err := l.fault(StageRemove)
		if err == nil {
			err = os.Remove(l.path(l.segs[0].Name))
		}
		if err != nil {
			return l.errorf("remove: %w", err)
		}
		l.segs = l.segs[1:]
		removed = true
	}
	if removed {
		if err := SyncDir(l.cfg.Dir); err != nil {
			return l.errorf("remove: %w", err)
		}
	}
	return nil
}

// Close releases the active segment. Appended records are already durable —
// every Append fsyncs — so Close adds nothing a crash would miss. Appends
// after Close fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
