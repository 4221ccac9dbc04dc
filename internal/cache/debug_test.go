package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"pax/internal/coherence"
)

// TestRandomOpsShrunk replays the failing seed with verbose per-line
// diagnosis to localize coherence bugs. It is the same as
// TestRandomOpsMatchModel but checks every cached copy of the failing line.
func TestRandomOpsShrunk(t *testing.T) {
	h, home := newTestHierarchy(t, true)
	const space = 1 << 14
	model := make([]byte, space)
	rng := rand.New(rand.NewSource(12345))

	for i := 0; i < 2000; i++ {
		c := h.Core(rng.Intn(2))
		addr := uint64(rng.Intn(space - 16))
		switch rng.Intn(5) {
		case 0, 1:
			n := 1 + rng.Intn(16)
			data := make([]byte, n)
			rng.Read(data)
			c.Store(addr, data)
			copy(model[addr:], data)
		case 2, 3:
			n := 1 + rng.Intn(16)
			buf := make([]byte, n)
			c.Load(addr, buf)
			if !bytes.Equal(buf, model[addr:int(addr)+n]) {
				la := coherence.LineAddr(addr)
				t.Logf("op %d: load core=%d addr=%d la=%#x", i, c.id, addr, la)
				t.Logf("  got  %v", buf)
				t.Logf("  want %v", model[addr:int(addr)+n])
				ll := h.llcLookup(la)
				if ll != nil {
					t.Logf("  llc: dirty=%v hostExcl=%v sharers=%b owner=%d data=%v", ll.dirty, ll.hostExcl, ll.sharers, ll.owner, h.lineData(ll)[:16])
				} else {
					t.Logf("  llc: ABSENT")
				}
				hm := home.mem[la]
				t.Logf("  home: %v", hm[:16])
				t.Logf("  model line: %v", model[la:la+16])
				for ci := 0; ci < 2; ci++ {
					cc := h.Core(ci)
					if i := cc.l1.find(la); i >= 0 {
						ln := &cc.l1.lines[i]
						t.Logf("  core%d l1: st=%v dirty=%v way=%d l2=%d", ci, ln.state, ln.dirty, ln.way, ln.l2)
					}
					if i := cc.l2.find(la); i >= 0 {
						ln := &cc.l2.lines[i]
						t.Logf("  core%d l2: st=%v dirty=%v way=%d", ci, ln.state, ln.dirty, ln.way)
					}
				}
				t.FailNow()
			}
		case 4:
			la := coherence.LineAddr(addr)
			op := coherence.SnpData
			if rng.Intn(2) == 0 {
				op = coherence.SnpInv
			}
			res := h.SnoopLine(la, op, 0)
			if res.Present && res.Dirty {
				home.WriteBackLine(la, res.Data[:], 0)
			}
		}
	}
}
