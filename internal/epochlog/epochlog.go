// Package epochlog is the log-structured delta epoch store: an append-only
// sequence of per-commit delta records (dirty byte ranges + data, CRC,
// commit marker) held in rolling segment files next to a full-image
// checkpoint. It is the persistence backend that makes an epoch commit cost
// O(dirty bytes) instead of O(pool bytes): per commit, only the delta record
// is written and fsynced; in the background the caller folds the records
// into the checkpoint in place (Scan), fsyncs it, and only then deletes the
// consumed segments (CompactThrough).
//
// On-disk layout, for a pool file P:
//
//	P               — the checkpoint: a full pool image the caller creates
//	                  and its folds update in place
//	P.epochlog/     — the segment directory owned by this package
//	    seg-00000001.seg
//	    seg-00000002.seg
//	    ...
//
// Framing, the committed-record rule, torn-tail repair and segment rolling
// are internal/seglog's; this package adds the record body, the meaning of a
// sequence gap, and compaction.
//
// Recovery contract (why replay needs no metadata file): records carry
// absolute byte values, records are replayed in sequence order, and the
// checkpoint always holds the state after some record j — possibly with
// ranges of later records written over it by a fold a crash interrupted —
// while every record > j is still retained (compaction deletes only segments
// whose records a durable fold covers, oldest first). After the full ordered
// replay, every byte some retained record writes holds the last such value,
// and every other byte was written by no record after j, so the image equals
// the state after the last committed record wherever the crash left the
// checkpoint. A sequence gap between segments therefore only ever appears
// when a crash interrupted compaction mid-delete; segments older than the
// gap are provably covered by the checkpoint and are dropped.
package epochlog

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"pax/internal/seglog"
)

const (
	// DirSuffix names the segment directory relative to the pool file.
	DirSuffix = ".epochlog"

	// DefaultSegmentBytes is the segment size cap: an append that would push
	// the active segment past it seals that segment and opens a fresh one.
	DefaultSegmentBytes = 4 << 20

	// rangeHeaderSize is one range-table entry: addr(8) + length(8).
	rangeHeaderSize = 16
)

// format is the epoch store's instance of the seglog frame: the record's n
// word counts ranges (one 16-byte table entry each), stamp is the epoch and
// size the payload bytes.
var format = seglog.Format{
	Name:       "epochlog",
	Ext:        ".seg",
	SegMagic:   0x5041584550530131, // "PAXEPS" tag + version-ish salt
	RecMagic:   0x44454c54,         // "DELT"
	CommitMark: 0x5041584350544d4b, // "PAXCPTMK"
	Unit:       rangeHeaderSize,
}

// Config parameterizes a Store.
type Config struct {
	// Dir is the segment directory (conventionally <pool>+DirSuffix).
	Dir string
	// SegmentBytes is the segment size cap (default DefaultSegmentBytes).
	SegmentBytes int64
	// FS is where the segment files live (nil means seglog.OS).
	FS seglog.FS
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

// Apply replays the record onto img: each range's bytes are copied to its
// address. A range that does not lie inside img — including one whose
// Addr+len wraps around — is an error, and img is left as the ranges before
// it made it.
func (rec Record) Apply(img []byte) error {
	for _, r := range rec.Ranges {
		end := r.Addr + uint64(len(r.Data))
		if end < r.Addr || end > uint64(len(img)) {
			return fmt.Errorf("epochlog: record seq %d writes [%#x, +%d) outside the %d-byte pool",
				rec.Seq, r.Addr, len(r.Data), len(img))
		}
		copy(img[r.Addr:end], r.Data)
	}
	return nil
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

// Info summarizes a store: its current segments, plus what Open found torn.
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
	// TornRoll reports that a headerless newest segment — a crash inside a
	// segment roll — was found (and removed, unless ReadOnly).
	TornRoll bool `json:"torn_roll,omitempty"`
}

// Store is an open epoch store, safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	log *seglog.Log
	// keepFrom is the index of the oldest segment that is not Dropped.
	keepFrom uint64
}

// Open scans, validates, and (unless ReadOnly) prepares the store for
// appends: the newest segment's torn tail, if any, is truncated away so new
// records always follow the last committed one.
func Open(cfg Config) (*Store, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	log, err := seglog.Open(seglog.Config{
		Dir: cfg.Dir, Format: format, SegmentBytes: cfg.SegmentBytes, FS: cfg.FS, ReadOnly: cfg.ReadOnly,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{log: log}
	// Gap policy: find the newest contiguous run of segments (by record
	// sequence) and mark everything older as Dropped. A gap proves
	// compaction deleted a newer segment first, which it only does after a
	// checkpoint covering all of them was made durable. An empty segment
	// carries its would-be first sequence in FirstSeq, so the chain check
	// works across it too.
	segs := log.Segments()
	for i := len(segs) - 1; i > 0; i-- {
		if segs[i-1].LastSeq+1 != segs[i].FirstSeq {
			s.keepFrom = segs[i].Index
			break
		}
	}
	return s, nil
}

// Info reports the store's shape now and what Open found torn.
func (s *Store) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := Info{TornTail: s.log.TornBytes > 0, TornRoll: s.log.TornRoll != ""}
	for _, seg := range s.log.Segments() {
		si := SegmentInfo{
			Name: seg.Name, Index: seg.Index, Bytes: seg.End, Records: seg.Records,
			FirstSeq: seg.FirstSeq, LastSeq: seg.LastSeq,
			FirstEpoch: seg.FirstStamp, LastEpoch: seg.LastStamp,
			TornTail: seg.Size > seg.End, Dropped: seg.Index < s.keepFrom,
		}
		info.Segments = append(info.Segments, si)
		if si.Dropped {
			continue
		}
		info.Records += si.Records
		info.Bytes += si.Bytes
		if si.Records > 0 {
			info.LastSeq, info.LastEpoch = si.LastSeq, si.LastEpoch
		}
	}
	return info
}

// LastSeq reports the newest committed record's sequence number (0 if none).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.NextSeq() - 1
}

// LiveBytes reports the total size of retained segments — the caller's
// checkpoint trigger.
func (s *Store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.log.Segments() {
		if seg.Index >= s.keepFrom {
			n += seg.End
		}
	}
	return n
}

// Segments reports the current segment set (post-compaction state included).
func (s *Store) Segments() []SegmentInfo { return s.Info().Segments }

// Replay streams every committed record, in sequence order, to apply.
func (s *Store) Replay(apply func(Record) error) error { return s.Scan(0, math.MaxUint64, apply) }

// Scan streams the committed records with after < Seq ≤ through, oldest
// first, to fn; Dropped segments are skipped (the checkpoint covers them).
// It holds the store's lock only to list the segments, so appends go on
// while it reads and fn may block; a concurrent CompactThrough must be
// excluded by the caller (a segment removed under Scan fails it). The
// record's range data aliases the segment's image: fn must copy what it
// keeps rather than pin it.
func (s *Store) Scan(after, through uint64, fn func(Record) error) error {
	s.mu.Lock()
	var segs []seglog.Segment
	for _, seg := range s.log.Segments() {
		if seg.Index >= s.keepFrom && seg.Records > 0 && seg.LastSeq > after && seg.FirstSeq <= through {
			segs = append(segs, seg)
		}
	}
	s.mu.Unlock()
	for _, seg := range segs {
		err := s.log.ReadSegment(seg, func(h seglog.Header, body []byte) error {
			if h.Seq <= after || h.Seq > through {
				return nil
			}
			rec, err := decodeRecord(h, body)
			if err != nil {
				return err
			}
			return fn(rec)
		})
		if err != nil {
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
	return s.log.Append(uint32(len(ranges)), epoch, payloadBytes(ranges), func(body []byte) {
		off := rangeHeaderSize * len(ranges)
		for i, r := range ranges {
			binary.LittleEndian.PutUint64(body[i*rangeHeaderSize:], r.Addr)
			binary.LittleEndian.PutUint64(body[i*rangeHeaderSize+8:], uint64(len(r.Data)))
			off += copy(body[off:], r.Data)
		}
	})
}

func payloadBytes(ranges []Range) uint64 {
	var n uint64
	for _, r := range ranges {
		n += uint64(len(r.Data))
	}
	return n
}

// RecordSize reports the encoded on-media size of a record holding the
// given ranges — what Append would persist. Callers without a backing file
// use it to model the delta cost.
func RecordSize(ranges []Range) int64 {
	return int64(seglog.RecHeaderSize+rangeHeaderSize*len(ranges)+seglog.RecTrailerSize) + int64(payloadBytes(ranges))
}

// decodeRecord parses a committed record's body: the range table, then the
// ranges' data back to back. Range data aliases body.
func decodeRecord(h seglog.Header, body []byte) (Record, error) {
	rec := Record{Seq: h.Seq, Epoch: h.Stamp, Ranges: make([]Range, h.N)}
	data := body[int(h.N)*rangeHeaderSize:]
	for i := range rec.Ranges {
		addr := binary.LittleEndian.Uint64(body[i*rangeHeaderSize:])
		n := binary.LittleEndian.Uint64(body[i*rangeHeaderSize+8:])
		if n > uint64(len(data)) {
			return Record{}, fmt.Errorf("epochlog: record %d ranges exceed payload", h.Seq)
		}
		rec.Ranges[i] = Range{Addr: addr, Data: data[:n:n]}
		data = data[n:]
	}
	if len(data) != 0 {
		return Record{}, fmt.Errorf("epochlog: record %d payload/range mismatch", h.Seq)
	}
	return rec, nil
}

// CompactThrough deletes segments whose records are all ≤ seq — covered by a
// checkpoint the caller has already made durable. Deletion runs oldest
// first, so a crash mid-compaction leaves at worst a sequence gap whose
// older side is provably covered (see Open's gap policy). If the active
// segment itself is fully covered it is rolled first, then deleted, so a
// quiet store compacts down to one empty segment.
func (s *Store) CompactThrough(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := s.log.Segments()
	if n := len(segs); n > 0 && segs[n-1].Records > 0 && segs[n-1].LastSeq <= seq {
		if err := s.log.Roll(); err != nil {
			return err
		}
		segs = s.log.Segments()
	}
	k := 0
	for k < len(segs)-1 && (segs[k].LastSeq <= seq || segs[k].Index < s.keepFrom) {
		k++
	}
	return s.log.RemoveOldest(k)
}

// Close releases the active segment file handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// HasSegments reports whether dir holds any segment files — deltas the
// checkpoint beside them may lack.
func HasSegments(dir string) (bool, error) {
	indices, err := seglog.List(nil, dir, format)
	return len(indices) > 0, err
}
