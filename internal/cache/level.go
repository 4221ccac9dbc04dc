// Package cache implements the simulated host cache hierarchy: per-core
// private L1/L2 caches and a shared, inclusive last-level cache (LLC) with a
// directory, kept coherent with MESI and connected to per-range homes (memory
// controllers or the PAX device).
//
// Every level is one flat sets × ways array of line records, beside a dense
// array of the ways' tags: a line address with the valid bit folded into its
// low bit, so a probe reads one or two host cache lines of tags instead of
// the set's records. An LLC record carries the directory and the home state,
// and its data lives in a slab of fixed-size chunks filled in order, a slot
// per way claimed at the way's first fill. That slot is the line's one copy
// of data on the host: a private record carries its line's state and where
// the line lives (its LLC way and, in L1, its L2 way), and loads and stores
// read and write the slab in place. A private level keeps its LRU stamps
// dense as well, for the victim scan. The LLC's records are allocated with
// the hierarchy; a core's private levels are allocated at their first fill,
// so a hierarchy pays line data only for the LLC ways it has filled and
// private records only for the cores that have run (a served pool drives
// core 0 alone).
//
// Cores implement memory.Memory, word accessors included: a word within one
// line is one access to that line, decoded in place.
//
// The hierarchy is the functional memory path, not just a timing model: lines
// hold real data, stores land in caches and reach the home only on eviction,
// flush, or snoop. This matters because the PAX protocol's correctness
// depends on exactly that behaviour — the device learns new values only via
// write-backs and persist()-time snoops.
package cache

import (
	"fmt"

	"pax/internal/coherence"
	"pax/internal/sim"
	"pax/internal/stats"
)

// LineSize is the cache line size in bytes.
const LineSize = coherence.LineSize

// line is one private-cache line record: 12 bytes (a core's L1 + L2 is
// 16 896 of them). Its tag and LRU stamp are in the level's tags and uses,
// and its data in the LLC slab. way is the LLC way holding the line, and l2,
// in an L1 record, the L2 way holding it. Neither can change while the
// record is valid: an LLC eviction back-invalidates every private copy, and
// an L2 eviction the L1 copy. dirty means this level wrote the line since
// the core last handed it back; the bytes are in the slab either way.
type line struct {
	way   int32
	l2    int32
	state coherence.State
	dirty bool
}

// validTag marks a way's tag word as holding a line. Line addresses are
// line-aligned, so the bit is free, and an invalid way's tag word is 0.
const validTag = 1

// tagWay returns the index of the way whose tag word is want among tags, or -1.
func tagWay(tags []uint64, want uint64) int {
	for i, t := range tags {
		if t == want {
			return i
		}
	}
	return -1
}

// level is one set-associative private cache level (L1 or L2). Its ways are
// three parallel sets × ways arrays (tag words, LRU stamps, line records),
// allocated at the level's first fill: a core that never runs costs no line
// storage, and until then every probe misses.
type level struct {
	tags    []uint64 // line address | validTag, or 0; nil until the first victim call
	uses    []uint64 // LRU stamps
	lines   []line
	ways    int
	setMask uint64
	latency sim.Time
	useCtr  uint64

	// Ratio counts demand accesses that hit/missed at this level.
	Ratio stats.Ratio
}

func newLevel(name string, geom sim.CacheGeometry) *level {
	lines := geom.SizeBytes / LineSize
	if lines == 0 || geom.Ways <= 0 || lines%geom.Ways != 0 {
		panic(fmt.Sprintf("cache: %s geometry %+v does not divide into sets", name, geom))
	}
	numSets := lines / geom.Ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: %s set count %d is not a power of two", name, numSets))
	}
	return &level{
		ways:    geom.Ways,
		setMask: uint64(numSets - 1),
		latency: geom.Latency,
	}
}

// setBase returns the index of the first way addr maps to.
func (l *level) setBase(addr uint64) int { return int((addr/LineSize)&l.setMask) * l.ways }

// find returns the way holding addr, or -1 (always, while unallocated).
func (l *level) find(addr uint64) int {
	if l.tags == nil {
		return -1
	}
	base := l.setBase(addr)
	if i := tagWay(l.tags[base:base+l.ways], addr|validTag); i >= 0 {
		return base + i
	}
	return -1
}

// tag returns the line address held by way i, which must be valid.
func (l *level) tag(i int) uint64 { return l.tags[i] &^ validTag }

// touch refreshes the LRU position of way i.
func (l *level) touch(i int) {
	l.useCtr++
	l.uses[i] = l.useCtr
}

// victim returns the way a new line for addr should occupy: an invalid way
// if one exists, else the LRU way. The caller must evict the way's line if
// its tag word is non-zero.
func (l *level) victim(addr uint64) int {
	if l.tags == nil {
		n := int(l.setMask+1) * l.ways
		l.tags = make([]uint64, n)
		l.uses = make([]uint64, n)
		l.lines = make([]line, n)
	}
	base := l.setBase(addr)
	if i := tagWay(l.tags[base:base+l.ways], 0); i >= 0 {
		return base + i
	}
	uses := l.uses[base : base+l.ways]
	lru := 0
	for i := 1; i < len(uses); i++ {
		if uses[i] < uses[lru] {
			lru = i
		}
	}
	return base + lru
}

// insert places a clean line, held by LLC way way and (for L1) L2 way l2,
// into way i; the way must already be free (the caller evicted any victim).
func (l *level) insert(i int, addr uint64, state coherence.State, way, l2 int) *line {
	l.tags[i] = addr | validTag
	l.lines[i] = line{way: int32(way), l2: int32(l2), state: state}
	l.touch(i)
	return &l.lines[i]
}

// snoop invalidates (inval=true) or downgrades to clean Shared the line in
// way i, and reports whether it was dirty.
func (l *level) snoop(i int, inval bool) (dirty bool) {
	ln := &l.lines[i]
	dirty = ln.dirty
	if inval {
		l.tags[i] = 0
	} else {
		ln.state = coherence.Shared
		ln.dirty = false
	}
	return dirty
}
