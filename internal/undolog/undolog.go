// Package undolog implements the PAX device's persistent undo log (§3.2-3.4
// of the paper): a ring of fixed-size, checksummed, epoch-tagged entries in a
// PM region. Each entry records the pre-modification value of one cache line.
//
// The log's durable frontier advances monotonically (virtual byte offsets
// never wrap, only their physical placement does), which is the property the
// device's write-back coordinator relies on: a buffered dirty line may be
// written back to PM data space exactly when the virtual offset of its undo
// entry is at or below the durable frontier.
//
// On-media layout:
//
//	[ header (64 B) | entry slots ... ]
//
// The header persists the tail (oldest live entry) as a virtual offset; the
// head is recovered by scanning forward from the tail until checksum or
// sequence validation fails — exactly the state a post-crash observer can
// reconstruct.
package undolog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"pax/internal/coherence"
	"pax/internal/pmem"
	"pax/internal/sim"
)

const (
	// headerSize is the on-media log header size.
	headerSize = 64
	// EntrySize is the fixed on-media entry size: epoch(8) + seq(8) +
	// addr(8) + old line(64) + crc(4) + pad(4) = 96 bytes.
	EntrySize = 96
	// MinRegionSize is the smallest log region that holds at least one
	// entry; smaller regions cannot log a single modified line.
	MinRegionSize = headerSize + EntrySize

	logMagic   = 0x5041584c4f473031 // "PAXLOG01"
	logVersion = 1
)

// Entry is one undo record: the pre-image of cache line Addr as of the first
// time the host modified it during Epoch.
type Entry struct {
	Epoch uint64
	Seq   uint64 // dense entry index == virtual offset / EntrySize
	Addr  uint64 // line-aligned vPM address
	Old   [coherence.LineSize]byte
}

// ErrFull is returned when appending would overwrite live (untruncated)
// entries. The device reacts by forcing log truncation via persist or by
// stalling (§3.3 discusses why this replaces working-set limits).
var ErrFull = errors.New("undolog: log full (live entries fill capacity)")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is the undo log manager. Appending, truncating and reading entries
// (EntryAt, Entries) are not safe for concurrent use; the PAX device
// serializes the first two (a hardware log writer is a single pipeline), and
// recovery reads before the device runs. The occupancy and the counters are
// atomics that only that writer stores — a load and a store, no
// read-modify-write — so Head, Tail, Live, PeakLive, Appends and Truncations
// are safe to read at any time, from any goroutine.
type Log struct {
	dev  *pmem.Device
	base uint64

	capacity uint64        // usable entry bytes (multiple of EntrySize)
	head     atomic.Uint64 // virtual offset of next append
	tail     atomic.Uint64 // virtual offset of oldest live entry

	appends     atomic.Uint64
	truncations atomic.Uint64
	peakLive    atomic.Uint64

	// entry is the buffer Append encodes into and EntryAt reads into. The
	// checksum's table-driven update is reached through a func value, so a
	// buffer local to either would be a heap allocation per entry.
	entry [EntrySize]byte
}

func usableCapacity(size uint64) uint64 {
	if size < headerSize+EntrySize {
		panic(fmt.Sprintf("undolog: region of %d bytes too small", size))
	}
	return (size - headerSize) / EntrySize * EntrySize
}

// Create formats a fresh, empty log in [base, base+size) of dev.
func Create(dev *pmem.Device, base, size uint64) *Log {
	l := &Log{dev: dev, base: base, capacity: usableCapacity(size)}
	l.writeHeader(0)
	return l
}

// Open recovers a log from media: it validates the header, then scans forward
// from the persisted tail to find the head. This is the recovery-time view —
// entries whose append was interrupted fail validation and mark the end.
func Open(dev *pmem.Device, base, size uint64) (*Log, error) {
	l := &Log{dev: dev, base: base, capacity: usableCapacity(size)}
	var hdr [headerSize]byte
	dev.Read(base, hdr[:], 0)
	if got := binary.LittleEndian.Uint64(hdr[0:]); got != logMagic {
		return nil, fmt.Errorf("undolog: bad magic %#x", got)
	}
	if got := binary.LittleEndian.Uint32(hdr[8:]); got != logVersion {
		return nil, fmt.Errorf("undolog: unsupported version %d", got)
	}
	if got := binary.LittleEndian.Uint64(hdr[16:]); got != l.capacity {
		return nil, fmt.Errorf("undolog: header capacity %d, geometry implies %d", got, l.capacity)
	}
	tail := binary.LittleEndian.Uint64(hdr[24:])
	if tail%EntrySize != 0 {
		return nil, fmt.Errorf("undolog: tail %d not entry-aligned", tail)
	}

	// Scan forward: the head is the first slot that fails validation.
	head := tail
	for head-tail < l.capacity {
		if _, ok := l.EntryAt(head); !ok {
			break
		}
		head += EntrySize
	}
	l.tail.Store(tail)
	l.head.Store(head)
	return l, nil
}

func (l *Log) writeHeader(tail uint64) {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], logMagic)
	binary.LittleEndian.PutUint32(hdr[8:], logVersion)
	binary.LittleEndian.PutUint64(hdr[16:], l.capacity)
	binary.LittleEndian.PutUint64(hdr[24:], tail)
	l.dev.Write(l.base, hdr[:], 0)
}

// SlotAddr maps a virtual offset to the media address of its entry slot.
func (l *Log) SlotAddr(virt uint64) uint64 {
	return l.base + headerSize + virt%l.capacity
}

func encodeEntry(buf *[EntrySize]byte, e Entry) {
	binary.LittleEndian.PutUint64(buf[0:], e.Epoch)
	binary.LittleEndian.PutUint64(buf[8:], e.Seq)
	binary.LittleEndian.PutUint64(buf[16:], e.Addr)
	copy(buf[24:88], e.Old[:])
	crc := crc32.Checksum(buf[:88], crcTable)
	binary.LittleEndian.PutUint32(buf[88:], crc)
}

// EntryAt reads and validates the entry at virtual offset virt — the check
// Open's head scan stops at. Validation requires an intact checksum and the
// dense sequence number implied by the offset, which rejects both torn
// appends and stale entries from a previous lap of the ring.
func (l *Log) EntryAt(virt uint64) (Entry, bool) {
	buf := &l.entry
	l.dev.Read(l.SlotAddr(virt), buf[:], 0)
	crc := crc32.Checksum(buf[:88], crcTable)
	if crc != binary.LittleEndian.Uint32(buf[88:]) {
		return Entry{}, false
	}
	e := Entry{
		Epoch: binary.LittleEndian.Uint64(buf[0:]),
		Seq:   binary.LittleEndian.Uint64(buf[8:]),
		Addr:  binary.LittleEndian.Uint64(buf[16:]),
	}
	copy(e.Old[:], buf[24:88])
	if e.Seq != virt/EntrySize {
		return Entry{}, false
	}
	return e, true
}

// Append writes one entry at the head. It returns the entry's virtual offset
// and the simulated time at which the entry is durable on PM, for a write
// issued at `at`. The caller provides Epoch, Addr, and Old; Seq is assigned.
func (l *Log) Append(epoch uint64, addr uint64, old [coherence.LineSize]byte, at sim.Time) (uint64, sim.Time, error) {
	off, tail := l.head.Load(), l.tail.Load()
	if off-tail+EntrySize > l.capacity {
		return 0, 0, ErrFull
	}
	e := Entry{Epoch: epoch, Seq: off / EntrySize, Addr: addr, Old: old}
	encodeEntry(&l.entry, e)
	done := l.dev.Write(l.SlotAddr(off), l.entry[:], at)
	l.head.Store(off + EntrySize)
	l.appends.Store(l.appends.Load() + 1)
	if live := (off + EntrySize - tail) / EntrySize; live > l.peakLive.Load() {
		l.peakLive.Store(live)
	}
	return off, done, nil
}

// Truncate discards all entries below virtual offset upTo by bumping the
// persistent tail. The tail update is a single 8-byte atomic store, so a
// crash leaves either the old or the new tail — both yield a valid log.
//
// The truncated slots are dead from here on, so Truncate tells the media
// device to leave their bytes out of its next commit record (pmem.Discard);
// the tail store itself is recorded. A slot the record never carries keeps
// whatever an older commit left there, which cannot validate at or beyond
// the recovered tail: EntryAt wants the sequence number of that very
// offset, and no entry at or past the tail was ever discarded.
func (l *Log) Truncate(upTo uint64, at sim.Time) sim.Time {
	tail, head := l.tail.Load(), l.head.Load()
	if upTo < tail || upTo > head || upTo%EntrySize != 0 {
		panic(fmt.Sprintf("undolog: truncate to %d outside [%d,%d]", upTo, tail, head))
	}
	if upTo == tail {
		return at
	}
	l.discardSlots(tail, upTo)
	l.tail.Store(upTo)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], upTo)
	done := l.dev.WriteAtomic(l.base+24, b[:], at)
	l.truncations.Store(l.truncations.Load() + 1)
	return done
}

// discardSlots discards the media slots of virtual offsets [from, to): one
// span, or two when it wraps the ring.
func (l *Log) discardSlots(from, to uint64) {
	start := from % l.capacity
	n := to - from
	if first := l.capacity - start; n > first {
		l.dev.Discard(l.SlotAddr(0), int(n-first))
		n = first
	}
	l.dev.Discard(l.SlotAddr(start), int(n))
}

// Head reports the virtual offset of the next append.
func (l *Log) Head() uint64 { return l.head.Load() }

// Tail reports the virtual offset of the oldest live entry.
func (l *Log) Tail() uint64 { return l.tail.Load() }

// Live reports the number of live (untruncated) entries. It loads the tail
// first: both offsets only grow and the tail never passes the head, so a
// reader racing the writer never computes a negative count.
func (l *Log) Live() int {
	tail := l.tail.Load()
	return int((l.head.Load() - tail) / EntrySize)
}

// PeakLive reports the maximum number of live entries ever outstanding: the
// pool's real log footprint.
func (l *Log) PeakLive() int { return int(l.peakLive.Load()) }

// Appends counts the entries ever appended.
func (l *Log) Appends() uint64 { return l.appends.Load() }

// Truncations counts the tail bumps.
func (l *Log) Truncations() uint64 { return l.truncations.Load() }

// CapacityEntries reports how many entries the ring can hold.
func (l *Log) CapacityEntries() int { return int(l.capacity / EntrySize) }

// Entries returns all live entries in append order. Recovery and tests use
// it; the device itself tracks entries it has in flight.
func (l *Log) Entries() []Entry {
	out := make([]Entry, 0, l.Live())
	for off, head := l.Tail(), l.Head(); off < head; off += EntrySize {
		e, ok := l.EntryAt(off)
		if !ok {
			// The scan in Open defines the head as the first invalid entry,
			// so an invalid entry below the head means media corruption
			// after open; surface it by stopping early.
			break
		}
		out = append(out, e)
	}
	return out
}

// EntriesAfterEpoch returns live entries with Epoch > epoch, in append order —
// exactly the set recovery must undo (§3.4).
func (l *Log) EntriesAfterEpoch(epoch uint64) []Entry {
	var out []Entry
	for _, e := range l.Entries() {
		if e.Epoch > epoch {
			out = append(out, e)
		}
	}
	return out
}
