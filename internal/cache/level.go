// Package cache implements the simulated host cache hierarchy: per-core
// private L1/L2 caches and a shared, inclusive last-level cache (LLC) with a
// directory, kept coherent with MESI and connected to per-range homes (memory
// controllers or the PAX device).
//
// Every level is one flat sets × ways array of line records. A private
// record carries its line's data; an LLC record carries only the tag, the
// directory and the home state, and its data lives in a slab of fixed-size
// chunks filled in order, a slot per way claimed at the way's first fill. The
// LLC's records are allocated with the hierarchy; a core's private levels are
// allocated at their first fill, so a hierarchy pays line data only for the
// LLC ways it has filled and the cores that have run (a served pool drives
// core 0 alone).
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

// line is one private-cache line. The record packs into 88 bytes (a core's
// L1 + L2 is 16 896 of them), with everything a probe reads before the data.
type line struct {
	tag     uint64 // line-aligned base address
	lastUse uint64
	valid   bool
	state   coherence.State
	dirty   bool
	data    [LineSize]byte
}

// level is one set-associative private cache level (L1 or L2). Its lines are
// one sets × ways array, allocated at the level's first fill: a core that
// never runs costs no line storage, and until then every probe misses.
type level struct {
	lines   []line // nil until the first victim call
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

// set returns the ways addr maps to, or nil while the level is unallocated.
func (l *level) set(addr uint64) []line {
	if l.lines == nil {
		return nil
	}
	i := int((addr/LineSize)&l.setMask) * l.ways
	return l.lines[i : i+l.ways]
}

// lookup returns the line holding addr, or nil.
func (l *level) lookup(addr uint64) *line {
	set := l.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			return &set[i]
		}
	}
	return nil
}

// touch refreshes LRU position for ln.
func (l *level) touch(ln *line) {
	l.useCtr++
	ln.lastUse = l.useCtr
}

// victim returns the slot a new line for addr should occupy: an invalid way
// if one exists, else the LRU way. The caller must handle eviction of the
// returned line if it is valid.
func (l *level) victim(addr uint64) *line {
	if l.lines == nil {
		l.lines = make([]line, int(l.setMask+1)*l.ways)
	}
	set := l.set(addr)
	var lru *line
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if lru == nil || set[i].lastUse < lru.lastUse {
			lru = &set[i]
		}
	}
	return lru
}

// insert places a line into the level; the slot must already be free (the
// caller evicted any victim).
func (l *level) insert(slot *line, addr uint64, state coherence.State, dirty bool, data *[LineSize]byte) {
	slot.valid = true
	slot.tag = addr
	slot.state = state
	slot.dirty = dirty
	slot.data = *data
	l.touch(slot)
}

// invalidate removes addr from the level, returning its data and dirtiness
// if it was present and dirty.
func (l *level) invalidate(addr uint64) (data [LineSize]byte, dirty, present bool) {
	if ln := l.lookup(addr); ln != nil {
		ln.valid = false
		return ln.data, ln.dirty, true
	}
	return data, false, false
}

// forEachValid calls fn for every valid line in the level.
func (l *level) forEachValid(fn func(*line)) {
	for i := range l.lines {
		if l.lines[i].valid {
			fn(&l.lines[i])
		}
	}
}

// count reports the number of valid lines.
func (l *level) count() int {
	n := 0
	l.forEachValid(func(*line) { n++ })
	return n
}
