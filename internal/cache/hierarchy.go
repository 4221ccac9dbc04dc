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
// The record packs into 40 bytes (the default 22 MiB LLC is 360 448 of
// them) and holds no data: the line's bytes live in the hierarchy's slab at
// slot, which the way claims at its first fill and keeps. owner and slot fit
// an int32 because NewHierarchy caps the core count at 64 and the slab never
// grows past the LLC's line count.
type llcLine struct {
	tag      uint64
	sharers  uint64 // bitmask of cores holding Shared copies
	lastUse  uint64
	owner    int32 // core holding an E/M copy, -1 if none
	slot     int32 // 1-based slab slot of the line's data, 0 if never filled
	valid    bool
	dirty    bool // host copy newer than home's
	hostExcl bool // host holds exclusive ownership w.r.t. the home
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
	// HomeFills counts line fills served by homes (true LLC misses).
	HomeFills stats.Counter
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

// NumCores reports the configured core count.
func (h *Hierarchy) NumCores() int { return len(h.cores) }

func (h *Hierarchy) home(addr uint64) coherence.Home {
	for _, r := range h.homes {
		if addr >= r.base && addr < r.base+r.size {
			return r.home
		}
	}
	panic(fmt.Sprintf("cache: address %#x is not mapped to any home", addr))
}

// llcSet returns the LLC ways addr maps to.
func (h *Hierarchy) llcSet(addr uint64) []llcLine {
	i := int((addr/LineSize)&h.llcMask) * h.llcWays
	return h.llc[i : i+h.llcWays]
}

func (h *Hierarchy) llcLookup(addr uint64) *llcLine {
	set := h.llcSet(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			return &set[i]
		}
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

func (h *Hierarchy) llcVictim(addr uint64) *llcLine {
	set := h.llcSet(addr)
	var lru *llcLine
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

// probeOut extracts the newest copy of la from core c's private caches,
// downgrading to Shared (inval=false) or Invalid (inval=true). It reports the
// newest data and whether any private copy was dirty.
func (h *Hierarchy) probeOut(c *Core, la uint64, inval bool) (data [LineSize]byte, dirty, present bool) {
	// L1 holds the authoritative copy when present (it is filled from L2 and
	// only ever gets newer).
	if ln := c.l1.lookup(la); ln != nil {
		present = true
		data = ln.data
		dirty = ln.dirty
		if inval {
			ln.valid = false
		} else {
			ln.state = coherence.Shared
			ln.dirty = false
		}
	}
	if ln := c.l2.lookup(la); ln != nil {
		if present {
			// L1 held the newest copy and was just cleaned; sync it down so
			// the L2 copy cannot later resurface stale data.
			ln.data = data
		} else {
			data = ln.data
		}
		dirty = dirty || ln.dirty
		present = true
		if inval {
			ln.valid = false
		} else {
			ln.state = coherence.Shared
			ln.dirty = false
		}
	}
	return data, dirty, present
}

// recallOwner pulls the newest copy from the directory owner, merging it into
// the LLC line, and downgrades (inval=false) or invalidates (inval=true) the
// owner's copies.
func (h *Hierarchy) recallOwner(ll *llcLine, inval bool, at sim.Time) sim.Time {
	o := h.cores[ll.owner]
	data, dirty, present := h.probeOut(o, ll.tag, inval)
	if present {
		if dirty {
			*h.lineData(ll) = data
			ll.dirty = true
		}
	}
	if !inval {
		ll.sharers |= 1 << uint(ll.owner)
	}
	ll.owner = -1
	// One intra-host snoop round trip.
	return at + h.prof.LLC.Latency
}

// invalidateSharers drops every Shared copy except the one at core `keep`
// (pass -1 to drop all).
func (h *Hierarchy) invalidateSharers(ll *llcLine, keep int) {
	for id := 0; ll.sharers != 0 && id < len(h.cores); id++ {
		bit := uint64(1) << uint(id)
		if ll.sharers&bit == 0 || id == keep {
			continue
		}
		h.probeOut(h.cores[id], ll.tag, true)
		ll.sharers &^= bit
	}
	if keep >= 0 {
		ll.sharers &= 1 << uint(keep)
	} else {
		ll.sharers = 0
	}
}

// hostUpgrade acquires host-exclusive ownership of ll from its home, if the
// host does not already hold it. This is the interposition point: for vPM
// ranges the home is the PAX device, which undo-logs the line before
// acknowledging.
func (h *Hierarchy) hostUpgrade(ll *llcLine, at sim.Time) sim.Time {
	if ll.hostExcl {
		return at
	}
	h.Upgrades.Inc()
	at = h.home(ll.tag).UpgradeLine(ll.tag, at)
	ll.hostExcl = true
	return at
}

// llcEvict removes ll from the LLC: back-invalidates private copies, then
// writes the line back to its home if dirty. The returned time covers the
// back-invalidation; the write-back itself proceeds asynchronously (the
// home's internal queues account for its bandwidth).
func (h *Hierarchy) llcEvict(ll *llcLine, at sim.Time) sim.Time {
	if ll.owner >= 0 {
		at = h.recallOwner(ll, true, at)
	}
	h.invalidateSharers(ll, -1)
	if ll.dirty {
		h.WriteBacks.Inc()
		h.home(ll.tag).WriteBackLine(ll.tag, h.lineData(ll)[:], at)
	}
	ll.valid = false
	return at
}

// privateEvict handles a line falling out of core c's private caches: the
// directory forgets the core, and dirty data merges into the LLC copy.
func (h *Hierarchy) privateEvict(c *Core, la uint64, data *[LineSize]byte, dirty bool) {
	ll := h.llcLookup(la)
	if ll == nil {
		panic(fmt.Sprintf("cache: inclusion violated: core %d evicted %#x absent from LLC", c.id, la))
	}
	if int(ll.owner) == c.id {
		ll.owner = -1
	}
	ll.sharers &^= 1 << uint(c.id)
	if dirty {
		*h.lineData(ll) = *data
		ll.dirty = true
	}
}

// fill serves an L2 miss for core c: from the LLC if present (recalling or
// invalidating other cores' copies as needed), else from the home. It returns
// the line data, the MESI state granted to the core, and the completion time.
func (h *Hierarchy) fill(c *Core, la uint64, write bool, at sim.Time) ([LineSize]byte, coherence.State, sim.Time) {
	at += h.prof.LLC.Latency
	if ll := h.llcLookup(la); ll != nil {
		h.LLCRatio.Hits.Inc()
		h.llcTouch(ll)
		if ll.owner >= 0 && int(ll.owner) != c.id {
			at = h.recallOwner(ll, write, at)
		}
		if write {
			h.invalidateSharers(ll, c.id)
			at = h.hostUpgrade(ll, at)
			ll.owner = int32(c.id)
			ll.sharers = 0
			return *h.lineData(ll), coherence.Modified, at
		}
		// Read: grant Exclusive when this core is the only holder and the
		// host already owns the line; otherwise Shared.
		if ll.hostExcl && ll.sharers == 0 && ll.owner < 0 {
			ll.owner = int32(c.id)
			return *h.lineData(ll), coherence.Exclusive, at
		}
		ll.owner = -1
		ll.sharers |= 1 << uint(c.id)
		return *h.lineData(ll), coherence.Shared, at
	}

	// LLC miss: evict a victim, fetch from the home.
	h.LLCRatio.Misses.Inc()
	h.HomeFills.Inc()
	victim := h.llcVictim(la)
	if victim.valid {
		at = h.llcEvict(victim, at)
	}
	buf := h.lineData(victim)
	res := h.home(la).FetchLine(la, write, buf[:], at)
	at = res.Done

	victim.valid = true
	victim.tag = la
	victim.dirty = false
	victim.sharers = 0
	victim.owner = -1
	h.llcTouch(victim)

	if write {
		// An exclusive fetch (RdOwn) always grants ownership.
		victim.hostExcl = true
		victim.owner = int32(c.id)
		return *buf, coherence.Modified, at
	}
	switch res.State {
	case coherence.Exclusive:
		victim.hostExcl = true
		victim.owner = int32(c.id)
		return *buf, coherence.Exclusive, at
	case coherence.Shared:
		victim.hostExcl = false
		victim.sharers = 1 << uint(c.id)
		return *buf, coherence.Shared, at
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
	ll := h.llcLookup(la)
	if ll == nil {
		return coherence.SnoopResult{Present: false, Done: at}
	}
	if ll.owner >= 0 {
		at = h.recallOwner(ll, op == coherence.SnpInv, at)
	}
	res := coherence.SnoopResult{Present: true, Dirty: ll.dirty, Data: *h.lineData(ll), Done: at}
	switch op {
	case coherence.SnpData:
		ll.dirty = false // the device now holds the newest value
		ll.hostExcl = false
	case coherence.SnpInv:
		h.invalidateSharers(ll, -1)
		ll.valid = false
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
	h.HomeFills.Reset()
	h.WriteBacks.Reset()
}

// FlushAll writes back every dirty line on the host (private caches and LLC)
// to its home and leaves all lines clean and Shared. Tests and shutdown paths
// use it; it models a full-cache CLWB sweep.
func (h *Hierarchy) FlushAll(at sim.Time) sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.llc {
		ll := &h.llc[i]
		if !ll.valid {
			continue
		}
		if ll.owner >= 0 {
			at = h.recallOwner(ll, false, at)
		}
		if ll.dirty {
			h.WriteBacks.Inc()
			at = h.home(ll.tag).WriteBackLine(ll.tag, h.lineData(ll)[:], at)
			ll.dirty = false
		}
		ll.hostExcl = false
	}
	return at
}
