package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"pax/internal/coherence"
	"pax/internal/sim"
	"pax/internal/stats"
)

// llcLine is one line in the shared, inclusive LLC: the intra-host directory
// state (which cores cache the line, and how) and the host↔home state (does
// the host own the line exclusively; is the host's copy dirty with respect to
// the home). The host↔home state is what a CXL.cache home agent — the PAX
// device for vPM ranges — observes.
//
// The record packs into 24 bytes (the default 22 MiB LLC is 360 448 of
// them, beside as many 8-byte tag words in llcTags) and holds no data: the
// line's bytes live in the hierarchy's slab at slot, which the way claims at
// its first fill and keeps. owner fits an int8 because NewHierarchy caps the
// core count at 64, and slot an int32 because the slab never grows past the
// LLC's line count.
type llcLine struct {
	sharers  uint64 // bitmask of cores holding Shared copies
	lastUse  uint64
	slot     int32 // 1-based slab slot of the line's data, 0 if never filled
	owner    int8  // core holding an E/M copy, -1 if none
	dirty    bool  // host copy newer than home's
	hostExcl bool  // host holds exclusive ownership w.r.t. the home
}

// maxSlabShift sizes a slab chunk: 1<<12 lines (256 KiB), or the LLC's line
// count rounded down to a power of two when that is smaller.
const maxSlabShift = 12

type homeRange struct {
	base, size uint64
	home       coherence.Home
}

// Hierarchy is the full host cache system: N cores with private L1/L2, one
// shared inclusive LLC with a directory, and per-address-range homes.
//
// All operations take the hierarchy lock; simulated cores are typically
// driven one at a time, and the lock also makes functional (non-timed) use
// from concurrent goroutines safe.
type Hierarchy struct {
	mu    sync.Mutex
	prof  sim.HostProfile
	cores []*Core

	llc     []llcLine // sets × llcWays, set-major
	llcTags []uint64  // each way's line address | validTag, or 0
	llcWays int
	llcMask uint64
	llcUse  uint64

	// slab holds LLC line data in chunks of 1<<slabShift lines, appended
	// only when the next slot needs one; slots counts the slots handed out.
	// It grows with the ways ever filled, never past len(llc).
	slab      [][][LineSize]byte
	slabShift uint
	slots     int32

	homes []homeRange

	// LLCRatio counts L2-miss demand accesses that hit/missed in the LLC.
	LLCRatio stats.Ratio
	// Upgrades counts host→home exclusive-ownership notifications — the
	// events a PAX device logs on.
	Upgrades stats.Counter
	// WriteBacks counts dirty LLC evictions written back to homes.
	WriteBacks stats.Counter
}

// NewHierarchy builds a hierarchy from the given host profile.
func NewHierarchy(prof sim.HostProfile) *Hierarchy {
	if prof.Cores < 1 || prof.Cores > 64 {
		panic(fmt.Sprintf("cache: core count %d outside [1,64]", prof.Cores))
	}
	lines := prof.LLC.SizeBytes / LineSize
	if lines == 0 || lines%prof.LLC.Ways != 0 {
		panic(fmt.Sprintf("cache: LLC geometry %+v does not divide into sets", prof.LLC))
	}
	numSets := lines / prof.LLC.Ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: LLC set count %d is not a power of two", numSets))
	}
	h := &Hierarchy{
		prof:      prof,
		llc:       make([]llcLine, lines),
		llcTags:   make([]uint64, lines),
		llcWays:   prof.LLC.Ways,
		llcMask:   uint64(numSets - 1),
		slabShift: uint(min(maxSlabShift, bits.Len(uint(lines))-1)),
	}
	for id := 0; id < prof.Cores; id++ {
		h.cores = append(h.cores, &Core{
			h:     h,
			id:    id,
			l1:    newLevel("L1", prof.L1),
			l2:    newLevel("L2", prof.L2),
			clock: sim.NewClock(0),
		})
	}
	return h
}

// AddRange registers home as the owner of [base, base+size). Ranges must be
// line-aligned and must not overlap existing ranges.
func (h *Hierarchy) AddRange(base, size uint64, home coherence.Home) {
	if base%LineSize != 0 || size%LineSize != 0 || size == 0 {
		panic(fmt.Sprintf("cache: range [%#x,+%#x) not line-aligned", base, size))
	}
	for _, r := range h.homes {
		if base < r.base+r.size && r.base < base+size {
			panic(fmt.Sprintf("cache: range [%#x,+%#x) overlaps [%#x,+%#x)", base, size, r.base, r.size))
		}
	}
	h.homes = append(h.homes, homeRange{base: base, size: size, home: home})
}

// Core returns core i.
func (h *Hierarchy) Core(i int) *Core { return h.cores[i] }

func (h *Hierarchy) home(addr uint64) coherence.Home {
	for _, r := range h.homes {
		if addr >= r.base && addr < r.base+r.size {
			return r.home
		}
	}
	panic(fmt.Sprintf("cache: address %#x is not mapped to any home", addr))
}

// llcSetBase returns the index of the first LLC way addr maps to.
func (h *Hierarchy) llcSetBase(addr uint64) int { return int((addr/LineSize)&h.llcMask) * h.llcWays }

// llcFind returns the LLC way holding addr, or -1.
func (h *Hierarchy) llcFind(addr uint64) int {
	base := h.llcSetBase(addr)
	if i := tagWay(h.llcTags[base:base+h.llcWays], addr|validTag); i >= 0 {
		return base + i
	}
	return -1
}

// llcLookup returns the LLC record of addr, or nil.
func (h *Hierarchy) llcLookup(addr uint64) *llcLine {
	if w := h.llcFind(addr); w >= 0 {
		return &h.llc[w]
	}
	return nil
}

func (h *Hierarchy) llcTouch(ll *llcLine) {
	h.llcUse++
	ll.lastUse = h.llcUse
}

// lineData returns the data of ll, which every read or write of an LLC
// line's bytes goes through. A way claims the slab's next slot at its first
// fill and keeps it, so the slab holds data only for ways the LLC has used.
func (h *Hierarchy) lineData(ll *llcLine) *[LineSize]byte {
	if ll.slot == 0 {
		h.claimSlot(ll)
	}
	i := uint(ll.slot - 1)
	return &h.slab[i>>h.slabShift][i&(1<<h.slabShift-1)]
}

// claimSlot gives ll the slab's next slot, appending a chunk when the
// chunks in hand are full.
func (h *Hierarchy) claimSlot(ll *llcLine) {
	if int(h.slots)>>h.slabShift == len(h.slab) {
		h.slab = append(h.slab, make([][LineSize]byte, 1<<h.slabShift))
	}
	h.slots++
	ll.slot = h.slots
}

// llcVictim returns the way a new line for addr should occupy: an invalid
// way if one exists, else the LRU way.
func (h *Hierarchy) llcVictim(addr uint64) int {
	base := h.llcSetBase(addr)
	if i := tagWay(h.llcTags[base:base+h.llcWays], 0); i >= 0 {
		return base + i
	}
	lru := base
	for w := base + 1; w < base+h.llcWays; w++ {
		if h.llc[w].lastUse < h.llc[lru].lastUse {
			lru = w
		}
	}
	return lru
}

// probeOut downgrades core c's private copies of la to Shared (inval=false)
// or drops them (inval=true), and reports whether any was dirty. The newest
// bytes are already in the LLC slab, the line's one copy.
func (h *Hierarchy) probeOut(c *Core, la uint64, inval bool) (dirty bool) {
	if i := c.l1.find(la); i >= 0 {
		dirty = c.l1.snoop(i, inval)
	}
	if i := c.l2.find(la); i >= 0 {
		dirty = c.l2.snoop(i, inval) || dirty
	}
	return dirty
}

// recallOwner takes back la from the directory owner, marking the LLC line
// ll dirty if the owner wrote it, and downgrades (inval=false) or
// invalidates (inval=true) the owner's copies.
func (h *Hierarchy) recallOwner(la uint64, ll *llcLine, inval bool, at sim.Time) sim.Time {
	if h.probeOut(h.cores[ll.owner], la, inval) {
		ll.dirty = true
	}
	if !inval {
		ll.sharers |= 1 << uint(ll.owner)
	}
	ll.owner = -1
	// One intra-host snoop round trip.
	return at + h.prof.LLC.Latency
}

// invalidateSharers drops every Shared copy of la, whose LLC line is ll,
// except the one at core `keep` (pass -1 to drop all).
func (h *Hierarchy) invalidateSharers(la uint64, ll *llcLine, keep int) {
	others := ll.sharers
	if keep >= 0 {
		others &^= 1 << uint(keep)
	}
	for o := others; o != 0; o &= o - 1 {
		h.probeOut(h.cores[bits.TrailingZeros64(o)], la, true)
	}
	ll.sharers &^= others
}

// hostUpgrade acquires host-exclusive ownership of la, whose LLC line is ll,
// from its home, if the host does not already hold it. This is the
// interposition point: for vPM ranges the home is the PAX device, which
// undo-logs the line before acknowledging.
func (h *Hierarchy) hostUpgrade(la uint64, ll *llcLine, at sim.Time) sim.Time {
	if ll.hostExcl {
		return at
	}
	h.Upgrades.Inc()
	at = h.home(la).UpgradeLine(la, at)
	ll.hostExcl = true
	return at
}

// llcEvict removes the line in LLC way w from the LLC: back-invalidates
// private copies, then writes the line back to its home if dirty. The
// returned time covers the back-invalidation; the write-back itself proceeds
// asynchronously (the home's internal queues account for its bandwidth).
func (h *Hierarchy) llcEvict(w int, at sim.Time) sim.Time {
	la, ll := h.llcTags[w]&^validTag, &h.llc[w]
	if ll.owner >= 0 {
		at = h.recallOwner(la, ll, true, at)
	}
	h.invalidateSharers(la, ll, -1)
	if ll.dirty {
		h.WriteBacks.Inc()
		h.home(la).WriteBackLine(la, h.lineData(ll)[:], at)
	}
	h.llcTags[w] = 0
	return at
}

// privateEvict handles a line, held by LLC way w, falling out of core c's
// private caches: the directory forgets the core, and a dirty line leaves
// the LLC copy dirty.
func (h *Hierarchy) privateEvict(c *Core, w int, dirty bool) {
	ll := &h.llc[w]
	if int(ll.owner) == c.id {
		ll.owner = -1
	}
	ll.sharers &^= 1 << uint(c.id)
	if dirty {
		ll.dirty = true
	}
}

// fill serves an L2 miss for core c: from the LLC if present (recalling or
// invalidating other cores' copies as needed), else from the home. It returns
// the LLC way holding the line, the MESI state granted to the core, and the
// completion time.
func (h *Hierarchy) fill(c *Core, la uint64, write bool, at sim.Time) (int, coherence.State, sim.Time) {
	at += h.prof.LLC.Latency
	if w := h.llcFind(la); w >= 0 {
		ll := &h.llc[w]
		h.LLCRatio.Hits.Inc()
		h.llcTouch(ll)
		if ll.owner >= 0 && int(ll.owner) != c.id {
			at = h.recallOwner(la, ll, write, at)
		}
		if write {
			h.invalidateSharers(la, ll, c.id)
			at = h.hostUpgrade(la, ll, at)
			ll.owner = int8(c.id)
			ll.sharers = 0
			return w, coherence.Modified, at
		}
		// Read: grant Exclusive when this core is the only holder and the
		// host already owns the line; otherwise Shared.
		if ll.hostExcl && ll.sharers == 0 && ll.owner < 0 {
			ll.owner = int8(c.id)
			return w, coherence.Exclusive, at
		}
		ll.owner = -1
		ll.sharers |= 1 << uint(c.id)
		return w, coherence.Shared, at
	}

	// LLC miss: evict a victim, fetch from the home.
	h.LLCRatio.Misses.Inc()
	w := h.llcVictim(la)
	if h.llcTags[w] != 0 {
		at = h.llcEvict(w, at)
	}
	victim := &h.llc[w]
	res := h.home(la).FetchLine(la, write, h.lineData(victim)[:], at)
	at = res.Done

	h.llcTags[w] = la | validTag
	victim.dirty = false
	victim.sharers = 0
	victim.owner = -1
	h.llcTouch(victim)

	if write {
		// An exclusive fetch (RdOwn) always grants ownership.
		victim.hostExcl = true
		victim.owner = int8(c.id)
		return w, coherence.Modified, at
	}
	switch res.State {
	case coherence.Exclusive:
		victim.hostExcl = true
		victim.owner = int8(c.id)
		return w, coherence.Exclusive, at
	case coherence.Shared:
		victim.hostExcl = false
		victim.sharers = 1 << uint(c.id)
		return w, coherence.Shared, at
	default:
		panic(fmt.Sprintf("cache: home granted invalid fill state %v", res.State))
	}
}

// SnoopLine implements coherence.Snooper: a device-to-host snoop for la. For
// SnpData the host downgrades every copy to Shared and forwards the current
// data; responsibility for dirty data transfers to the snooping device. For
// SnpInv all host copies are dropped.
func (h *Hierarchy) SnoopLine(la uint64, op coherence.SnoopOp, at sim.Time) coherence.SnoopResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	at += h.prof.LLC.Latency
	w := h.llcFind(la)
	if w < 0 {
		return coherence.SnoopResult{Present: false, Done: at}
	}
	ll := &h.llc[w]
	if ll.owner >= 0 {
		at = h.recallOwner(la, ll, op == coherence.SnpInv, at)
	}
	res := coherence.SnoopResult{Present: true, Dirty: ll.dirty, Data: *h.lineData(ll), Done: at}
	switch op {
	case coherence.SnpData:
		ll.dirty = false // the device now holds the newest value
		ll.hostExcl = false
	case coherence.SnpInv:
		h.invalidateSharers(la, ll, -1)
		h.llcTags[w] = 0
	}
	return res
}

// MissRates reports the demand miss rates (L1, L2, LLC) observed by core 0's
// private levels and the shared LLC; the AMAT experiment runs single-threaded
// on core 0.
func (h *Hierarchy) MissRates() (l1, l2, llc float64) {
	c := h.cores[0]
	return c.l1.Ratio.MissRate(), c.l2.Ratio.MissRate(), h.LLCRatio.MissRate()
}

// ResetStats clears all hit/miss and event counters; cached contents remain.
func (h *Hierarchy) ResetStats() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.cores {
		c.l1.Ratio.Reset()
		c.l2.Ratio.Reset()
	}
	h.LLCRatio.Reset()
	h.Upgrades.Reset()
	h.WriteBacks.Reset()
}

// FlushAll writes back every dirty line on the host (private caches and LLC)
// to its home and leaves all lines clean and Shared. Tests and shutdown paths
// use it; it models a full-cache CLWB sweep.
func (h *Hierarchy) FlushAll(at sim.Time) sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	for w, t := range h.llcTags {
		if t == 0 {
			continue
		}
		la, ll := t&^validTag, &h.llc[w]
		if ll.owner >= 0 {
			at = h.recallOwner(la, ll, false, at)
		}
		if ll.dirty {
			h.WriteBacks.Inc()
			at = h.home(la).WriteBackLine(la, h.lineData(ll)[:], at)
			ll.dirty = false
		}
		ll.hostExcl = false
	}
	return at
}
