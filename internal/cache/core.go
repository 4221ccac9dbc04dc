package cache

import (
	"encoding/binary"

	"pax/internal/coherence"
	"pax/internal/memory"
	"pax/internal/sim"
)

// Core is one simulated hardware thread with private L1/L2 caches and its own
// virtual clock. Core implements the memory.Memory contract (Load/Store and
// the word accessors) and the persistence primitives (FlushLines, Fence)
// used by WAL baselines.
type Core struct {
	h      *Hierarchy
	id     int
	l1, l2 *level
	clock  *sim.Clock

	// pendingDrain is the completion time of the latest outstanding CLWB
	// write-back; Fence waits for it.
	pendingDrain sim.Time
}

// Clock exposes the core's virtual clock.
func (c *Core) Clock() *sim.Clock { return c.clock }

// Now reports the core's current virtual time.
func (c *Core) Now() sim.Time { return c.clock.Now() }

// spillL1 pushes the state of the line in L1 way i, which is being
// evicted, down into the L2 way that holds it.
func (c *Core) spillL1(i int) {
	victim := &c.l1.lines[i]
	ln := &c.l2.lines[victim.l2]
	ln.dirty = ln.dirty || victim.dirty
	ln.state = victim.state
}

// insertL2 places a freshly filled line, held by LLC way w, into L2 and
// returns its L2 way, evicting a victim to the LLC if needed (and
// back-invalidating the victim's L1 copy first).
func (c *Core) insertL2(la uint64, state coherence.State, w int) int {
	i := c.l2.victim(la)
	if c.l2.tags[i] != 0 {
		victim := &c.l2.lines[i]
		dirty := victim.dirty
		// The L1 copy leaves with it; if L1 wrote the line, the line leaves
		// the core dirty.
		if j := c.l1.find(c.l2.tag(i)); j >= 0 {
			c.l1.tags[j] = 0
			dirty = dirty || c.l1.lines[j].dirty
		}
		c.h.privateEvict(c, int(victim.way), dirty)
	}
	c.l2.insert(i, la, state, w, -1)
	return i
}

// insertL1 places a line, held by LLC way w and L2 way l2, into L1,
// spilling any victim into L2.
func (c *Core) insertL1(la uint64, state coherence.State, w, l2 int) *line {
	i := c.l1.victim(la)
	if c.l1.tags[i] != 0 {
		c.spillL1(i)
	}
	return c.l1.insert(i, la, state, w, l2)
}

// upgrade takes the line at la, Shared in this core's private levels and
// held by LLC way w, to Modified through the directory (and, for the first
// host-side modification, the home).
func (c *Core) upgrade(la uint64, w int, at sim.Time) sim.Time {
	h := c.h
	ll := &h.llc[w]
	at += h.prof.LLC.Latency
	h.invalidateSharers(la, ll, c.id)
	at = h.hostUpgrade(la, ll, at)
	ll.owner = int8(c.id)
	ll.sharers = 0
	return at
}

// access is the per-line MESI access path. It returns the data of la, the
// line's one copy in the LLC slab (writable when write=true), and the access
// completion time. The hierarchy lock must be held.
func (c *Core) access(la uint64, write bool, at sim.Time) (*[LineSize]byte, sim.Time) {
	// L1 probe.
	at += c.l1.latency
	if i := c.l1.find(la); i >= 0 {
		ln := &c.l1.lines[i]
		c.l1.Ratio.Hits.Inc()
		c.l1.touch(i)
		if write {
			if !ln.state.CanWrite() {
				at = c.upgrade(la, int(ln.way), at)
				c.l2.lines[ln.l2].state = coherence.Modified
			}
			ln.state = coherence.Modified
			ln.dirty = true
		}
		return c.h.lineData(&c.h.llc[ln.way]), at
	}
	c.l1.Ratio.Misses.Inc()

	// L2 probe.
	at += c.l2.latency
	if i := c.l2.find(la); i >= 0 {
		ln := &c.l2.lines[i]
		c.l2.Ratio.Hits.Inc()
		c.l2.touch(i)
		if write && !ln.state.CanWrite() {
			at = c.upgrade(la, int(ln.way), at)
			ln.state = coherence.Modified
		}
		// Promote into L1. L2 retains the dirty responsibility until L1
		// rewrites.
		l1ln := c.insertL1(la, ln.state, int(ln.way), i)
		if write {
			l1ln.state = coherence.Modified
			l1ln.dirty = true
		}
		return c.h.lineData(&c.h.llc[ln.way]), at
	}
	c.l2.Ratio.Misses.Inc()

	// Fill from LLC or home.
	w, state, done := c.h.fill(c, la, write, at)
	l2 := c.insertL2(la, state, w)
	l1ln := c.insertL1(la, state, w, l2)
	if write {
		l1ln.state = coherence.Modified
		l1ln.dirty = true
		c.l2.lines[l2].state = coherence.Modified
	}
	return c.h.lineData(&c.h.llc[w]), done
}

// Load copies len(buf) bytes at addr into buf through the cache hierarchy,
// advancing the core clock. It returns the new core time.
func (c *Core) Load(addr uint64, buf []byte) sim.Time {
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	at := c.clock.Now()
	off := 0
	for off < len(buf) {
		la := coherence.LineAddr(addr + uint64(off))
		lo := int(addr + uint64(off) - la)
		n := LineSize - lo
		if n > len(buf)-off {
			n = len(buf) - off
		}
		data, done := c.access(la, false, at)
		copy(buf[off:off+n], data[lo:lo+n])
		at = done
		off += n
	}
	return c.clock.AdvanceTo(at)
}

// Store writes data at addr through the cache hierarchy (write-back,
// write-allocate), advancing the core clock. It returns the new core time.
func (c *Core) Store(addr uint64, data []byte) sim.Time {
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	at := c.clock.Now()
	off := 0
	for off < len(data) {
		la := coherence.LineAddr(addr + uint64(off))
		lo := int(addr + uint64(off) - la)
		n := LineSize - lo
		if n > len(data)-off {
			n = len(data) - off
		}
		dst, done := c.access(la, true, at)
		copy(dst[lo:lo+n], data[off:off+n])
		at = done
		off += n
	}
	return c.clock.AdvanceTo(at)
}

// straddles reports whether the n-byte word at addr spans two lines; the
// word accessors hand such a word to Load or Store.
func straddles(addr uint64, n int) bool { return addr%LineSize > LineSize-uint64(n) }

// wordLine makes the one access Load or Store would make for a word at addr
// that lies within one line, advancing the core clock, and returns the
// line's data and the word's offset in it. The hierarchy lock must be held.
func (c *Core) wordLine(addr uint64, write bool) (*[LineSize]byte, uint64) {
	la := coherence.LineAddr(addr)
	data, done := c.access(la, write, c.clock.Now())
	c.clock.AdvanceTo(done)
	return data, addr - la
}

// LoadU64 implements memory.Memory: one access to the word's line, decoded
// in place.
func (c *Core) LoadU64(addr uint64) uint64 {
	if straddles(addr, 8) {
		return memory.LoadU64(c, addr)
	}
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	data, lo := c.wordLine(addr, false)
	return binary.LittleEndian.Uint64(data[lo:])
}

// StoreU64 implements memory.Memory: one access to the word's line, encoded
// in place.
func (c *Core) StoreU64(addr, v uint64) {
	if straddles(addr, 8) {
		memory.StoreU64(c, addr, v)
		return
	}
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	data, lo := c.wordLine(addr, true)
	binary.LittleEndian.PutUint64(data[lo:], v)
}

// LoadU32 is LoadU64 for a 4-byte word.
func (c *Core) LoadU32(addr uint64) uint32 {
	if straddles(addr, 4) {
		return memory.LoadU32(c, addr)
	}
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	data, lo := c.wordLine(addr, false)
	return binary.LittleEndian.Uint32(data[lo:])
}

// StoreU32 is StoreU64 for a 4-byte word.
func (c *Core) StoreU32(addr uint64, v uint32) {
	if straddles(addr, 4) {
		memory.StoreU32(c, addr, v)
		return
	}
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	data, lo := c.wordLine(addr, true)
	binary.LittleEndian.PutUint32(data[lo:], v)
}

// FlushLines issues CLWB for every line overlapping [addr, addr+n): the
// newest copy is written back to the home and all host copies become clean,
// but remain cached. Durability is only guaranteed after a following Fence.
func (c *Core) FlushLines(addr uint64, n int) sim.Time {
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	h := c.h
	at := c.clock.Now()
	for la := coherence.LineAddr(addr); la < addr+uint64(n); la += LineSize {
		at += sim.CLWBCost
		ll := h.llcLookup(la)
		if ll == nil {
			continue // not cached anywhere on the host
		}
		if ll.owner >= 0 {
			at = h.recallOwner(la, ll, false, at)
		}
		if ll.dirty {
			h.WriteBacks.Inc()
			done := h.home(la).WriteBackLine(la, h.lineData(ll)[:], at)
			ll.dirty = false
			c.pendingDrain = sim.MaxTime(c.pendingDrain, done)
		}
	}
	return c.clock.AdvanceTo(at)
}

// Stall charges d of software overhead (a page-fault trap, a syscall) to
// this core's clock and returns the new time.
func (c *Core) Stall(d sim.Time) sim.Time { return c.clock.Advance(d) }

// Fence models SFENCE on a platform with ADR: it stalls the core until every
// outstanding CLWB write-back has been accepted by its home (and is therefore
// durable), plus the store-buffer drain cost.
func (c *Core) Fence() sim.Time {
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	c.clock.AdvanceTo(c.pendingDrain)
	return c.clock.Advance(sim.SFenceDrain)
}
