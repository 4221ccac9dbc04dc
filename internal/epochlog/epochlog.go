// Package epochlog is the log-structured delta epoch store: an append-only
// sequence of per-commit delta records (dirty byte ranges + data, CRC,
// commit marker) held in rolling segment files next to a full-image
// checkpoint. It is the persistence backend that makes an epoch commit cost
// O(dirty bytes) instead of O(pool bytes): per commit, only the delta record
// is written and fsynced; the full image is republished in the background as
// a checkpoint, after which consumed segments are deleted.
//
// On-disk layout, for a pool file P:
//
//	P               — the checkpoint: a full pool image, atomically
//	                  published (tmp + rename + dir fsync) by the caller
//	P.epochlog/     — the segment directory owned by this package
//	    seg-00000001.seg
//	    seg-00000002.seg
//	    ...
//
// Each segment starts with a 32-byte header and holds consecutive records.
// A record is committed iff it is fully present, its CRC matches, and its
// trailing commit marker is intact; anything else is a torn tail from a
// crash mid-append and is discarded (and truncated away on a writable open,
// so the next append never leaves garbage between records).
//
// Recovery contract (why replay needs no metadata file): records carry
// absolute byte values, records are replayed in sequence order, and the
// checkpoint image always corresponds to the state after some record j with
// every record > j still retained (compaction deletes only segments whose
// records a published checkpoint covers, oldest first). Replaying records
// ≤ j onto the checkpoint rewrites bytes with older values, but every such
// byte is rewritten again by the records ≤ j that follow, so after the full
// ordered replay the image equals the state after the last committed record
// regardless of which checkpoint the crash left behind. A sequence gap
// between segments therefore only ever appears when a crash interrupted
// compaction mid-delete; segments older than the gap are provably covered
// by the published checkpoint and are dropped.
package epochlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	// DirSuffix names the segment directory relative to the pool file.
	DirSuffix = ".epochlog"

	segMagic   = 0x5041584550530131 // "PAXEPS" tag + version-ish salt
	segVersion = 1
	// segHeaderSize is the fixed segment preamble: magic, version, first
	// record sequence number, reserved.
	segHeaderSize = 32

	recMagic = 0x44454c54 // "DELT"
	// recCommitMark trails every record; a record without it was torn by a
	// crash mid-append. 8 bytes so the marker itself is a single atomic
	// write unit on the modeled media.
	recCommitMark = 0x5041584350544d4b // "PAXCPTMK"
	// recHeaderSize is magic(4) + nranges(4) + seq(8) + epoch(8) + payload(8).
	recHeaderSize = 32
	// recTrailerSize is crc(4) + commit marker (8).
	recTrailerSize = 12

	// maxRanges bounds a record's range count during decode so a corrupt
	// header cannot drive a giant allocation.
	maxRanges = 1 << 24

	// DefaultSegmentBytes is the roll threshold: a segment past this size is
	// sealed and a fresh one opened before the next append.
	DefaultSegmentBytes = 4 << 20

	// maxRetainedEncBuf caps the staging buffer a store keeps between
	// appends, so one outsized commit (a table rehash) does not pin its
	// record's worth of memory for the store's lifetime.
	maxRetainedEncBuf = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stage identifies a durability stage a fault hook can fail (the delta-mode
// analogue of pmem's Sync stages).
type Stage string

// Stages, in execution order.
const (
	// StageAppend fails writing a delta record into the active segment.
	StageAppend Stage = "append"
	// StageAppendSync fails the segment fsync that commits the record.
	StageAppendSync Stage = "append-fsync"
	// StageCompact fails deleting a checkpoint-covered segment.
	StageCompact Stage = "compact"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the segment directory (conventionally <pool>+DirSuffix).
	Dir string
	// SegmentBytes is the roll threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// Fault, when set, is consulted before each durability stage; a non-nil
	// return fails that stage with the returned error.
	Fault func(Stage) error
	// ReadOnly opens the store for inspection: no directory creation, no
	// torn-tail truncation, no appends. Tools use it on live or damaged
	// stores.
	ReadOnly bool
}

// Range is one dirty byte range of a delta record.
type Range struct {
	Addr uint64
	Data []byte
}

// Record is one committed delta: the epoch cell value after applying it and
// the dirty ranges it persisted.
type Record struct {
	Seq    uint64
	Epoch  uint64
	Ranges []Range
}

// SegmentInfo describes one segment file for tools and tests.
type SegmentInfo struct {
	Name     string `json:"name"`
	Index    uint64 `json:"index"`
	Bytes    int64  `json:"bytes"`
	Records  int    `json:"records"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"` // FirstSeq-1 when the segment is empty
	// FirstEpoch/LastEpoch are the epoch range the records span (0/0 when
	// empty).
	FirstEpoch uint64 `json:"first_epoch"`
	LastEpoch  uint64 `json:"last_epoch"`
	// TornTail reports a partial record at the segment's end — the signature
	// of a crash mid-append. Only legal on the newest segment.
	TornTail bool `json:"torn_tail,omitempty"`
	// Dropped marks a pre-gap segment: compaction deleted a newer segment
	// before this one when a crash interrupted it, which proves a published
	// checkpoint covers every record here. Replay skips it.
	Dropped bool `json:"dropped,omitempty"`
}

// Info summarizes an opened store.
type Info struct {
	Segments []SegmentInfo `json:"segments"`
	// Records and Bytes count the replayable records and their payload bytes
	// (dropped segments excluded).
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// LastSeq/LastEpoch identify the newest committed record (0/0 if none).
	LastSeq   uint64 `json:"last_seq"`
	LastEpoch uint64 `json:"last_epoch"`
	// TornTail reports that the newest segment ended in a partial record,
	// which Open discarded (and truncated, unless ReadOnly).
	TornTail bool `json:"torn_tail,omitempty"`
}

// Store is an open epoch store. Append, LastSeq, LiveBytes, and
// CompactThrough are safe for concurrent use with each other; Replay streams
// the state as of Open and must not run concurrently with Append.
type Store struct {
	cfg Config

	mu      sync.Mutex
	segs    []segment // sorted by Index; last one is active
	active  *os.File  // nil when ReadOnly
	offset  int64     // append offset in the active segment
	nextSeq uint64
	info    Info
	// encBuf is Append's record staging buffer, reused under mu so the
	// commit path allocates nothing per record.
	encBuf []byte
}

// segment is the in-memory bookkeeping for one segment file.
type segment struct {
	SegmentInfo
	path string
}

func segName(index uint64) string { return fmt.Sprintf("seg-%08d.seg", index) }

func (c Config) fault(st Stage) error {
	if c.Fault == nil {
		return nil
	}
	return c.Fault(st)
}

// Open scans, validates, and (unless ReadOnly) prepares the store for
// appends: the newest segment's torn tail, if any, is truncated away so new
// records always follow the last committed one.
func Open(cfg Config) (*Store, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if !cfg.ReadOnly {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("epochlog: %w", err)
		}
	}
	s := &Store{cfg: cfg, nextSeq: 1}
	names, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		path := filepath.Join(cfg.Dir, name)
		info, err := scanSegment(path, i == len(names)-1, nil)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, segment{SegmentInfo: info, path: path})
	}
	s.markDropped()
	for i := range s.segs {
		seg := &s.segs[i]
		s.info.Segments = append(s.info.Segments, seg.SegmentInfo)
		if seg.Dropped {
			continue
		}
		s.info.Records += seg.Records
		s.info.Bytes += seg.Bytes
		if seg.Records > 0 {
			s.info.LastSeq, s.info.LastEpoch = seg.LastSeq, seg.LastEpoch
		}
		s.nextSeq = seg.LastSeq + 1
	}
	if n := len(s.segs); n > 0 && s.segs[n-1].TornTail {
		s.info.TornTail = true
	}
	if cfg.ReadOnly {
		return s, nil
	}
	if len(s.segs) == 0 {
		if err := s.rollLocked(); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Truncate the newest segment past its last committed record and open it
	// for appends.
	last := &s.segs[len(s.segs)-1]
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("epochlog: %w", err)
	}
	if err := f.Truncate(last.Bytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("epochlog: truncating torn tail of %s: %w", last.Name, err)
	}
	if last.TornTail {
		// The truncation must be durable before new appends land after it,
		// or a crash could resurrect torn bytes between committed records.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("epochlog: %w", err)
		}
		last.TornTail = false
	}
	s.active = f
	s.offset = last.Bytes
	return s, nil
}

// listSegments returns the segment file names in dir, sorted by index.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("epochlog: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		var idx uint64
		if _, err := fmt.Sscanf(name, "seg-%d.seg", &idx); err != nil || segName(idx) != name {
			continue // not a segment (editor litter, tmp files)
		}
		names = append(names, name)
	}
	sort.Strings(names) // zero-padded indices sort numerically
	return names, nil
}

// markDropped finds the newest contiguous run of segments (by record
// sequence) and marks everything older as Dropped: a gap proves compaction
// deleted a newer segment first, which it only does after a checkpoint
// covering all of them was published.
func (s *Store) markDropped() {
	for i := len(s.segs) - 1; i > 0; i-- {
		newer, older := &s.segs[i], &s.segs[i-1]
		// An empty active segment carries its would-be first sequence in
		// FirstSeq, so the chain check works across it too.
		if older.LastSeq+1 != newer.FirstSeq {
			for j := 0; j < i; j++ {
				s.segs[j].Dropped = true
			}
			return
		}
	}
}

// scanSegment walks one segment file, validating records. A torn record is
// legal only when tailOK (the newest segment); anywhere else it is
// corruption. When fn is non-nil it receives each committed record; range
// data aliases a per-record buffer the callee must not retain.
func scanSegment(path string, tailOK bool, fn func(Record) error) (SegmentInfo, error) {
	info := SegmentInfo{Name: filepath.Base(path)}
	if _, err := fmt.Sscanf(info.Name, "seg-%d.seg", &info.Index); err != nil {
		return info, fmt.Errorf("epochlog: unrecognized segment name %q", info.Name)
	}
	f, err := os.Open(path)
	if err != nil {
		return info, fmt.Errorf("epochlog: %w", err)
	}
	defer f.Close()

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return info, fmt.Errorf("epochlog: %s: short header: %w", info.Name, err)
	}
	if got := binary.LittleEndian.Uint64(hdr[0:]); got != segMagic {
		return info, fmt.Errorf("epochlog: %s: bad segment magic %#x", info.Name, got)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != segVersion {
		return info, fmt.Errorf("epochlog: %s: unsupported segment version %d", info.Name, got)
	}
	info.FirstSeq = binary.LittleEndian.Uint64(hdr[16:])
	info.LastSeq = info.FirstSeq - 1
	info.Bytes = segHeaderSize

	r := &countingReader{r: f, n: segHeaderSize}
	expect := info.FirstSeq
	for {
		rec, ok, err := readRecord(r, expect)
		if err != nil {
			return info, fmt.Errorf("epochlog: %s: %w", info.Name, err)
		}
		if !ok {
			// Torn or absent: if any bytes follow the last committed record,
			// that is a torn tail.
			if r.sawAny {
				info.TornTail = true
				if !tailOK {
					return info, fmt.Errorf("epochlog: %s: torn record inside a sealed segment (corruption, not a crash tail)", info.Name)
				}
			}
			return info, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return info, err
			}
		}
		if info.Records == 0 {
			info.FirstEpoch = rec.Epoch
		}
		info.Records++
		info.LastSeq, info.LastEpoch = rec.Seq, rec.Epoch
		info.Bytes = r.n
		expect = rec.Seq + 1
	}
}

// countingReader tracks how many bytes of the segment have been consumed and
// whether the current record read saw any bytes at all.
type countingReader struct {
	r      io.Reader
	n      int64
	sawAny bool
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if n > 0 {
		c.sawAny = true
	}
	return n, err
}

// readRecord decodes one record. ok=false with nil error means the record is
// torn or the segment ended cleanly; the caller distinguishes the two by
// whether any bytes were consumed. expect is the required sequence number —
// a committed record with the wrong sequence is corruption, never a tail.
func readRecord(r *countingReader, expect uint64) (Record, bool, error) {
	r.sawAny = false
	var hdr [recHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, false, nil // clean EOF or torn header
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != recMagic {
		return Record{}, false, nil // garbage past the tail
	}
	nranges := binary.LittleEndian.Uint32(hdr[4:])
	seq := binary.LittleEndian.Uint64(hdr[8:])
	epoch := binary.LittleEndian.Uint64(hdr[16:])
	payload := binary.LittleEndian.Uint64(hdr[24:])
	if nranges > maxRanges || payload > 1<<40 {
		return Record{}, false, nil // implausible header: torn bytes
	}
	body := make([]byte, int(nranges)*16+int(payload)+recTrailerSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, false, nil // torn body
	}
	crcAt := len(body) - recTrailerSize
	crc := crc32.Checksum(hdr[:], crcTable)
	crc = crc32.Update(crc, crcTable, body[:crcAt])
	if crc != binary.LittleEndian.Uint32(body[crcAt:]) {
		return Record{}, false, nil // torn data
	}
	if binary.LittleEndian.Uint64(body[crcAt+4:]) != recCommitMark {
		return Record{}, false, nil // unmarked: crash before the marker
	}
	if seq != expect {
		return Record{}, false, fmt.Errorf("record sequence %d, want %d", seq, expect)
	}
	rec := Record{Seq: seq, Epoch: epoch, Ranges: make([]Range, nranges)}
	data := body[int(nranges)*16 : crcAt]
	var off uint64
	for i := range rec.Ranges {
		addr := binary.LittleEndian.Uint64(body[i*16:])
		n := binary.LittleEndian.Uint64(body[i*16+8:])
		if off+n > uint64(len(data)) {
			return Record{}, false, fmt.Errorf("record %d ranges exceed payload", seq)
		}
		rec.Ranges[i] = Range{Addr: addr, Data: data[off : off+n]}
		off += n
	}
	if off != uint64(len(data)) {
		return Record{}, false, fmt.Errorf("record %d payload/range mismatch", seq)
	}
	return rec, true, nil
}

// Info reports what Open found.
func (s *Store) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.info
	out.Segments = append([]SegmentInfo(nil), s.info.Segments...)
	return out
}

// LastSeq reports the newest committed record's sequence number (0 if none).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextSeq == 0 {
		return 0
	}
	return s.nextSeq - 1
}

// LiveBytes reports the total size of retained segments — the caller's
// checkpoint trigger.
func (s *Store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for i := range s.segs {
		if !s.segs[i].Dropped {
			n += s.segs[i].Bytes
		}
	}
	return n
}

// Segments reports the current segment set (post-compaction state included).
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, len(s.segs))
	for i := range s.segs {
		out[i] = s.segs[i].SegmentInfo
	}
	return out
}

// Replay streams every committed record, in sequence order, to apply.
// Dropped segments are skipped (a published checkpoint covers them). The
// record's range data aliases a scratch buffer: apply must copy what it
// keeps.
func (s *Store) Replay(apply func(Record) error) error {
	s.mu.Lock()
	segs := append([]segment(nil), s.segs...)
	s.mu.Unlock()
	for i := range segs {
		if segs[i].Dropped {
			continue
		}
		last := i == len(segs)-1
		if _, err := scanSegment(segs[i].path, last, apply); err != nil {
			return err
		}
	}
	return nil
}

// Append writes one committed delta record for the given epoch and fsyncs
// it, returning the record's total on-media size. On failure the store
// rewinds to the previous record boundary — the sequence number is not
// consumed and a retry overwrites whatever the failed attempt left — and the
// caller must treat the commit as not durable.
func (s *Store) Append(epoch uint64, ranges []Range) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return 0, fmt.Errorf("epochlog: store is read-only")
	}
	if s.offset >= s.cfg.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			return 0, err
		}
	}
	if err := s.cfg.fault(StageAppend); err != nil {
		return 0, fmt.Errorf("epochlog: append: %w", err)
	}
	buf := encodeRecord(s.encBuf, s.nextSeq, epoch, ranges)
	if cap(buf) <= maxRetainedEncBuf {
		s.encBuf = buf
	}
	fail := func(err error) (int64, error) {
		// Best effort: clear the partial record so a later crash cannot
		// leave its bytes between committed records. Open's truncation
		// backstops this if the process dies first.
		s.active.Truncate(s.offset)
		return 0, fmt.Errorf("epochlog: append: %w", err)
	}
	if _, err := s.active.WriteAt(buf, s.offset); err != nil {
		return fail(err)
	}
	if err := s.cfg.fault(StageAppendSync); err != nil {
		return fail(err)
	}
	if err := s.active.Sync(); err != nil {
		return fail(err)
	}
	seg := &s.segs[len(s.segs)-1]
	if seg.Records == 0 {
		seg.FirstEpoch = epoch
	}
	seg.Records++
	seg.LastSeq, seg.LastEpoch = s.nextSeq, epoch
	s.offset += int64(len(buf))
	seg.Bytes = s.offset
	s.nextSeq++
	return int64(len(buf)), nil
}

// RecordSize reports the encoded on-media size of a record holding the
// given ranges — what Append would persist. Callers without a backing file
// use it to model the delta cost.
func RecordSize(ranges []Range) int64 {
	var payload int
	for _, r := range ranges {
		payload += len(r.Data)
	}
	return int64(recHeaderSize + 16*len(ranges) + payload + recTrailerSize)
}

// encodeRecord encodes one record into dst's backing array when it is large
// enough, a fresh one otherwise; every byte of the result is overwritten.
func encodeRecord(dst []byte, seq, epoch uint64, ranges []Range) []byte {
	var payload int
	for _, r := range ranges {
		payload += len(r.Data)
	}
	size := recHeaderSize + len(ranges)*16 + payload + recTrailerSize
	buf := dst
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	binary.LittleEndian.PutUint32(buf[0:], recMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(ranges)))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint64(buf[16:], epoch)
	binary.LittleEndian.PutUint64(buf[24:], uint64(payload))
	off := recHeaderSize
	for _, r := range ranges {
		binary.LittleEndian.PutUint64(buf[off:], r.Addr)
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(len(r.Data)))
		off += 16
	}
	for _, r := range ranges {
		off += copy(buf[off:], r.Data)
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(buf[:off], crcTable))
	binary.LittleEndian.PutUint64(buf[off+4:], recCommitMark)
	return buf
}

// rollLocked seals the active segment and starts the next one. The new
// segment file (header included) is fsynced, and so is the directory, before
// any record lands in it: a record's durability must imply its segment's.
func (s *Store) rollLocked() error {
	index := uint64(1)
	if n := len(s.segs); n > 0 {
		index = s.segs[n-1].Index + 1
	}
	path := filepath.Join(s.cfg.Dir, segName(index))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:], s.nextSeq)
	if _, err := f.Write(hdr[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("epochlog: %w", err)
	}
	if err := syncDir(s.cfg.Dir); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if s.active != nil {
		s.active.Close()
	}
	s.active = f
	s.offset = segHeaderSize
	s.segs = append(s.segs, segment{
		SegmentInfo: SegmentInfo{
			Name:     segName(index),
			Index:    index,
			Bytes:    segHeaderSize,
			FirstSeq: s.nextSeq,
			LastSeq:  s.nextSeq - 1,
		},
		path: path,
	})
	return nil
}

// CompactThrough deletes segments whose records are all ≤ seq — covered by a
// checkpoint the caller has already durably published. Deletion runs oldest
// first, so a crash mid-compaction leaves at worst a sequence gap whose
// older side is provably covered (see markDropped). If the active segment
// itself is fully covered it is rolled first, then deleted, so a quiet store
// compacts down to one empty segment.
func (s *Store) CompactThrough(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("epochlog: store is read-only")
	}
	if n := len(s.segs); n > 0 {
		last := &s.segs[n-1]
		if last.Records > 0 && last.LastSeq <= seq {
			if err := s.rollLocked(); err != nil {
				return err
			}
		}
	}
	removed := 0
	for _, seg := range s.segs[:len(s.segs)-1] {
		if seg.LastSeq > seq && !seg.Dropped {
			break
		}
		if err := s.cfg.fault(StageCompact); err != nil {
			s.segs = s.segs[removed:]
			return fmt.Errorf("epochlog: compact: %w", err)
		}
		if err := os.Remove(seg.path); err != nil {
			s.segs = s.segs[removed:]
			return fmt.Errorf("epochlog: compact: %w", err)
		}
		removed++
	}
	s.segs = s.segs[removed:]
	if removed > 0 {
		return syncDir(s.cfg.Dir)
	}
	return nil
}

// Close releases the active segment file handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// HasSegments reports whether dir holds any segment files — the signal that
// a pool was last written in epoch-log mode and a full-image open would
// silently lose the deltas.
func HasSegments(dir string) (bool, error) {
	names, err := listSegments(dir)
	if err != nil {
		return false, err
	}
	return len(names) > 0, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	return nil
}
