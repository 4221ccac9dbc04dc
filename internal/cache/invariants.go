package cache

import (
	"fmt"

	"pax/internal/coherence"
)

// CheckInvariants verifies the structural and MESI invariants of the whole
// hierarchy and returns the first violation found, or nil. Tests call it
// after every interesting operation sequence; it is deliberately exhaustive
// rather than fast.
//
// Invariants:
//  1. L1 ⊆ L2 at every core, and every private line is present in the LLC
//     (inclusive hierarchy).
//  2. At most one core holds a line in E or M (single-writer).
//  3. The LLC directory matches reality: owner points at the core holding
//     the E/M copy; sharer bits cover exactly the cores holding S copies.
//  4. A line that is dirty anywhere on the host, or E/M at any core, is
//     host-exclusive with respect to its home.
//  5. Shared copies are never dirty.
//  6. Every valid LLC line has a slab slot, no two ways share one, every
//     slot handed out is held by a way, and the slab has handed out no more
//     slots than its chunks hold or the LLC has lines.
//  7. Every private line records where it lives: its way holds the line's
//     tag in the LLC, and an L1 line's l2 holds it in L2. Eviction and
//     upgrade index by these ways without probing.
func (h *Hierarchy) CheckInvariants() error {
	h.mu.Lock()
	defer h.mu.Unlock()

	type presence struct {
		state coherence.State
		dirty bool
	}
	if err := h.checkWays(); err != nil {
		return err
	}
	// Gather per-core presence, authoritative level first (L1 over L2).
	perCore := make([]map[uint64]presence, len(h.cores))
	for i, c := range h.cores {
		m := make(map[uint64]presence)
		for w, t := range c.l2.tags {
			if t != 0 {
				ln := &c.l2.lines[w]
				m[t&^validTag] = presence{state: ln.state, dirty: ln.dirty}
			}
		}
		for w, t := range c.l1.tags {
			if t == 0 {
				continue
			}
			tag, ln := t&^validTag, &c.l1.lines[w]
			p, ok := m[tag]
			switch {
			case !ok:
				return fmt.Errorf("core %d: line %#x in L1 but not L2", i, tag)
			case ln.state == coherence.Shared && ln.dirty:
				return fmt.Errorf("core %d: line %#x Shared but dirty in L1", i, tag)
			}
			// L1 is authoritative for state; dirtiness accumulates.
			m[tag] = presence{state: ln.state, dirty: ln.dirty || p.dirty}
		}
		for tag, p := range m {
			if p.state == coherence.Invalid {
				return fmt.Errorf("core %d: line %#x cached in Invalid state", i, tag)
			}
		}
		perCore[i] = m
	}

	if int(h.slots) > len(h.llc) || int(h.slots) > len(h.slab)<<h.slabShift {
		return fmt.Errorf("slab: %d slots handed out for %d LLC lines in %d chunks", h.slots, len(h.llc), len(h.slab))
	}
	slotWay := make(map[int32]int)
	for w := range h.llc {
		s := h.llc[w].slot
		if s == 0 {
			continue
		}
		if s < 0 || s > h.slots {
			return fmt.Errorf("LLC way %d: slot %d outside the %d handed out", w, s, h.slots)
		}
		if prev, ok := slotWay[s]; ok {
			return fmt.Errorf("LLC ways %d and %d share slot %d", prev, w, s)
		}
		slotWay[s] = w
	}
	if len(slotWay) != int(h.slots) {
		return fmt.Errorf("slab: %d slots handed out, %d held by LLC ways", h.slots, len(slotWay))
	}

	// Walk the LLC and check the directory against gathered presence.
	llcTags := make(map[uint64]*llcLine)
	for w, t := range h.llcTags {
		if t == 0 {
			continue
		}
		if (t&^validTag)%LineSize != 0 {
			return fmt.Errorf("LLC way %d: tag word %#x is not a line address", w, t)
		}
		tag, ll := t&^validTag, &h.llc[w]
		if h.llcSetBase(tag) != w/h.llcWays*h.llcWays {
			return fmt.Errorf("LLC way %d: line %#x outside its set", w, tag)
		}
		if h.llcFind(tag) != w {
			return fmt.Errorf("line %#x: held by LLC way %d and an earlier way of its set", tag, w)
		}
		if ll.slot == 0 {
			return fmt.Errorf("line %#x: valid in the LLC without a slab slot", tag)
		}
		llcTags[tag] = ll

		var exclHolders, shareHolders []int
		anyDirty := ll.dirty
		for i := range h.cores {
			p, ok := perCore[i][tag]
			if !ok {
				continue
			}
			anyDirty = anyDirty || p.dirty
			switch p.state {
			case coherence.Exclusive, coherence.Modified:
				exclHolders = append(exclHolders, i)
			case coherence.Shared:
				shareHolders = append(shareHolders, i)
			}
		}
		if len(exclHolders) > 1 {
			return fmt.Errorf("line %#x: multiple exclusive holders %v", tag, exclHolders)
		}
		if len(exclHolders) == 1 {
			if len(shareHolders) > 0 {
				return fmt.Errorf("line %#x: exclusive at core %d with sharers %v", tag, exclHolders[0], shareHolders)
			}
			if int(ll.owner) != exclHolders[0] {
				return fmt.Errorf("line %#x: directory owner %d but core %d holds E/M", tag, ll.owner, exclHolders[0])
			}
		} else if ll.owner >= 0 {
			if _, ok := perCore[ll.owner][tag]; !ok {
				return fmt.Errorf("line %#x: directory owner %d holds nothing", tag, ll.owner)
			}
		}
		for _, i := range shareHolders {
			if ll.sharers&(1<<uint(i)) == 0 && int(ll.owner) != i {
				return fmt.Errorf("line %#x: core %d holds S copy unknown to directory", tag, i)
			}
		}
		if anyDirty && !ll.hostExcl {
			return fmt.Errorf("line %#x: dirty on host but not host-exclusive", tag)
		}
		if len(exclHolders) == 1 && !ll.hostExcl {
			st := perCore[exclHolders[0]][tag].state
			if st == coherence.Modified {
				return fmt.Errorf("line %#x: Modified at core %d but not host-exclusive", tag, exclHolders[0])
			}
		}
	}

	// Inclusion: every privately cached line must be in the LLC.
	for i := range h.cores {
		for tag := range perCore[i] {
			if _, ok := llcTags[tag]; !ok {
				return fmt.Errorf("core %d: line %#x cached privately but absent from LLC", i, tag)
			}
		}
	}
	return nil
}

// checkWays checks invariant 7 alone: cheap enough to run after every step
// of a test. The hierarchy lock must be held, or the hierarchy idle.
func (h *Hierarchy) checkWays() error {
	for _, c := range h.cores {
		for i, t := range c.l2.tags {
			if w := c.l2.lines[i].way; t != 0 && !holds(h.llcTags, w, t) {
				return fmt.Errorf("core %d: L2 line %#x records LLC way %d, which does not hold it", c.id, t&^validTag, w)
			}
		}
		for i, t := range c.l1.tags {
			ln := &c.l1.lines[i]
			if t != 0 && !(holds(h.llcTags, ln.way, t) && holds(c.l2.tags, ln.l2, t)) {
				return fmt.Errorf("core %d: L1 line %#x records LLC way %d and L2 way %d, which do not both hold it", c.id, t&^validTag, ln.way, ln.l2)
			}
		}
	}
	return nil
}

// holds reports whether way i of tags holds the tag word t.
func holds(tags []uint64, i int32, t uint64) bool {
	return i >= 0 && int(i) < len(tags) && tags[i] == t
}
