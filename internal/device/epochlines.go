package device

// epochLines is the device's table of the lines undo-logged in the current
// epoch: an open-addressed hash table from host line address to the line's
// index in the epoch's log order (Device.modified before Persist sorts it,
// and Device.logDone). A slot is live only if it carries the table's
// generation, so starting the next epoch is one increment, and at that reset
// the table shrinks to fit the epoch that just ended: a served commit logs
// hundreds of lines and probes a table of a few KB, not one sized for a
// set-up epoch of tens of thousands.
type epochLines struct {
	slots []epochSlot // power-of-two length; nil until the first put
	gen   uint32      // generation of live slots, never 0
	n     int         // live slots
}

type epochSlot struct {
	addr uint64
	gen  uint32
	idx  uint32
}

// minEpochSlots is the smallest table: 64 slots, 1 KiB.
const minEpochSlots = 64

// slotsFor returns the table length that holds n lines at most half full.
func slotsFor(n int) int {
	s := minEpochSlots
	for s < 2*n {
		s *= 2
	}
	return s
}

// home returns the first slot addr probes.
func (t *epochLines) home(addr uint64) int {
	// Fibonacci hashing of the line number; the top bits index the table.
	return int((addr / LineSize * 0x9E3779B97F4A7C15) >> 32 & uint64(len(t.slots)-1))
}

// get returns the log-order index of addr, if it was logged this epoch.
func (t *epochLines) get(addr uint64) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.addr == addr {
			return s.idx, true
		}
	}
}

// put records addr, which get does not hold, at log-order index idx.
func (t *epochLines) put(addr uint64, idx uint32) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(slotsFor(t.n + 1))
	}
	t.place(addr, idx)
	t.n++
}

// place writes addr into the first slot of its probe sequence that is not
// live.
func (t *epochLines) place(addr uint64, idx uint32) {
	mask := len(t.slots) - 1
	i := t.home(addr)
	for t.slots[i].gen == t.gen {
		i = (i + 1) & mask
	}
	t.slots[i] = epochSlot{addr: addr, gen: t.gen, idx: idx}
}

// resize moves the live slots into a fresh table of n slots.
func (t *epochLines) resize(n int) {
	old, oldGen := t.slots, t.gen
	t.slots, t.gen = make([]epochSlot, n), 1
	for _, s := range old {
		if s.gen == oldGen {
			t.place(s.addr, s.idx)
		}
	}
}

// reset empties the table for the next epoch, shrinking it to fit the epoch
// that just ended when it has grown past four times that.
func (t *epochLines) reset() {
	if fit := slotsFor(t.n); len(t.slots) > 4*fit {
		t.slots, t.gen = make([]epochSlot, fit), 1
	} else if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
	t.n = 0
}
