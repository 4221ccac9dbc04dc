// Package blackbox implements the crash black box: an append-only,
// CRC-framed telemetry journal that survives the process it describes.
//
// The serving stack's observability plane (/metrics, the TRACE flight
// recorder) is volatile — when an engine seals fail-stop or the process is
// killed, the records that explain why die with it. The black box closes
// that gap: lifecycle events (seals, failed commits, reshard transitions,
// policy decisions), periodic windowed metrics snapshots, and the flight
// recorder's failed/slow commit records are appended to a size-bounded
// journal in `<pool>.blackbox/seg-*.bb`, each record fsynced, so a
// postmortem (`paxinspect -postmortem`) can reconstruct the last moments
// from the files alone.
//
// Framing, torn-tail repair and segment rolling are internal/seglog's, with
// the journal's own magic numbers; a record's n word is the type length,
// stamp the wall-clock time and size the payload length:
//
//	body: [type bytes | payload bytes]
//
// Sequence numbers are contiguous across the surviving segments — rotation
// deletes whole oldest segments, never records — so a reader can prove it
// lost nothing inside the retained window, and Open refuses a journal with
// a gap between segments: nothing here deletes from the middle, so a gap is
// corruption.
package blackbox

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"pax/internal/seglog"
)

const (
	// DirSuffix names the journal directory next to a pool file:
	// `<pool>.blackbox/`. One journal serves the whole fleet (events carry
	// their shard), so it sits at the pool path, not per shard file.
	DirSuffix = ".blackbox"

	// DefaultSegmentBytes bounds one segment; DefaultMaxSegments bounds the
	// journal (oldest segment deleted on rotation past the cap), so the
	// black box holds the most recent ~8 MiB of telemetry by default.
	DefaultSegmentBytes int64 = 1 << 20
	DefaultMaxSegments        = 8

	// maxTypeLen/maxPayloadLen bound what Append accepts.
	maxTypeLen    = 256
	maxPayloadLen = 4 << 20
)

var format = seglog.Format{
	Name:       "blackbox",
	Ext:        ".bb",
	SegMagic:   0x5041584242423031, // "PAXBBB01"
	RecMagic:   0x42424556,         // "BBEV"
	CommitMark: 0x5041584243415054, // "PAXBCAPT"
	Unit:       1,
}

// Record is one committed journal entry.
type Record struct {
	Seq      uint64
	UnixNano int64
	Type     string
	Payload  []byte
}

// Config parameterizes Open.
type Config struct {
	// Dir is the journal directory (conventionally `<pool>` + DirSuffix).
	Dir string
	// SegmentBytes caps one segment (default DefaultSegmentBytes); the
	// journal rolls to a new segment when an append would exceed it.
	SegmentBytes int64
	// MaxSegments caps the journal (default DefaultMaxSegments, min 2): on
	// rotation the oldest segments beyond the cap are deleted.
	MaxSegments int
	// ReadOnly opens for postmortem analysis: no truncation, no appends,
	// torn tails reported rather than repaired.
	ReadOnly bool
}

// Info summarizes what Open found.
type Info struct {
	Dir      string `json:"dir"`
	Segments int    `json:"segments"`
	Records  int    `json:"records"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// TornTail reports whether the newest segment ended in an interrupted
	// append (truncated away on writable open); TornBytes is its length.
	TornTail  bool  `json:"torn_tail"`
	TornBytes int64 `json:"torn_bytes"`
}

// Journal is an open black box. Safe for concurrent use.
type Journal struct {
	dir         string
	maxSegments int

	mu  sync.Mutex
	log *seglog.Log
}

// Open scans (and, when writable, repairs) the journal at cfg.Dir. A
// writable open creates the directory and first segment as needed and
// truncates a torn tail off the newest segment; a read-only open requires
// the directory to exist and leaves the files untouched.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("blackbox: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = DefaultMaxSegments
	}
	cfg.MaxSegments = max(cfg.MaxSegments, 2)
	if cfg.ReadOnly {
		if fi, err := os.Stat(cfg.Dir); err != nil {
			return nil, fmt.Errorf("blackbox: %w", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("blackbox: %s is not a directory", cfg.Dir)
		}
	}
	log, err := seglog.Open(seglog.Config{
		Dir: cfg.Dir, Format: format, SegmentBytes: cfg.SegmentBytes, ReadOnly: cfg.ReadOnly,
	})
	if err != nil {
		return nil, err
	}
	segs := log.Segments()
	for i := 1; i < len(segs); i++ {
		if want := segs[i-1].LastSeq + 1; segs[i].FirstSeq != want {
			log.Close()
			return nil, fmt.Errorf("blackbox: %s starts at seq %d, want %d (records missing between segments)",
				segs[i].Name, segs[i].FirstSeq, want)
		}
	}
	return &Journal{dir: cfg.Dir, maxSegments: cfg.MaxSegments, log: log}, nil
}

// Append journals one record durably: framed, CRC'd, marked, fsynced. It
// rolls to a new segment when the active one is full, then prunes the
// oldest past MaxSegments. Safe for concurrent use.
func (j *Journal) Append(typ string, payload []byte) error {
	if typ == "" || len(typ) > maxTypeLen {
		return fmt.Errorf("blackbox: record type %q out of range", typ)
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("blackbox: payload %d bytes exceeds %d", len(payload), maxPayloadLen)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.log.Append(uint32(len(typ)), uint64(time.Now().UnixNano()), uint64(len(payload)), func(body []byte) {
		copy(body[copy(body, typ):], payload)
	})
	if err != nil {
		return err
	}
	// The record is durable; a failed prune is still reported, and retried
	// by the next append.
	return j.log.RemoveOldest(len(j.log.Segments()) - j.maxSegments)
}

// AppendJSON marshals v and journals it under typ.
func (j *Journal) AppendJSON(typ string, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("blackbox: encoding %s record: %w", typ, err)
	}
	return j.Append(typ, blob)
}

// Replay streams every committed record, oldest first. On a read-only
// journal the newest segment's torn tail (if any) is skipped, exactly as a
// writable open would have truncated it. fn must not call back into the
// Journal.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Replay(0, func(h seglog.Header, body []byte) error {
		return fn(Record{
			Seq:      h.Seq,
			UnixNano: int64(h.Stamp),
			Type:     string(body[:h.N]),
			Payload:  append([]byte(nil), body[h.N:]...),
		})
	})
}

// Info reports the journal's shape as of the last append (or, read-only, as
// of Open).
func (j *Journal) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	segs := j.log.Segments()
	info := Info{
		Dir:       j.dir,
		Segments:  len(segs),
		TornTail:  j.log.TornBytes > 0,
		TornBytes: j.log.TornBytes,
	}
	for _, seg := range segs {
		info.Records += seg.Records
	}
	if info.Records > 0 {
		info.FirstSeq, info.LastSeq = segs[0].FirstSeq, j.log.NextSeq()-1
	}
	return info
}

// Close releases the active segment. Appended records are already durable —
// every Append fsyncs — so Close adds nothing a crash would miss.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
