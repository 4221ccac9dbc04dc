package device

import (
	"math"
	"math/rand"
	"testing"
)

// TestEpochLinesMatchesMap runs random epochs through the device's epoch
// table beside a Go map: every lookup of a logged line, and of every line
// logged in an earlier epoch but not this one, must agree. The epochs
// include a set-up-sized one of 23 000 lines followed by served-sized ones of
// 300 (the table must shrink to fit them), and a run across a generation
// wrap, where stale slots must not come back to life.
func TestEpochLinesMatchesMap(t *testing.T) {
	var tab epochLines
	rng := rand.New(rand.NewSource(1))
	earlier := make(map[uint64]bool) // lines logged in earlier epochs
	epoch := func(name string, lines int) {
		t.Helper()
		want := make(map[uint64]uint32, lines)
		var order []uint64
		for len(order) < lines {
			// Line addresses from a 64 MiB range, so epochs overlap.
			a := uint64(rng.Intn(1<<20)) * LineSize
			if _, ok := want[a]; ok {
				if i, ok := tab.get(a); !ok || i != want[a] {
					t.Fatalf("%s: get(%#x) = %d, %v; want %d, true", name, a, i, ok, want[a])
				}
				continue
			}
			if i, ok := tab.get(a); ok {
				t.Fatalf("%s: get(%#x) = %d before it was logged this epoch", name, a, i)
			}
			want[a] = uint32(len(order))
			tab.put(a, want[a])
			order = append(order, a)
		}
		if tab.n != lines {
			t.Fatalf("%s: table holds %d lines, want %d", name, tab.n, lines)
		}
		for a, w := range want {
			if i, ok := tab.get(a); !ok || i != w {
				t.Fatalf("%s: get(%#x) = %d, %v; want %d, true", name, a, i, ok, w)
			}
		}
		for a := range earlier {
			if _, logged := want[a]; !logged {
				if i, ok := tab.get(a); ok {
					t.Fatalf("%s: line %#x from an earlier epoch reads %d", name, a, i)
				}
			}
		}
		if 2*tab.n > len(tab.slots) {
			t.Fatalf("%s: %d lines in %d slots, over half full", name, tab.n, len(tab.slots))
		}
		tab.reset()
		for _, a := range order {
			earlier[a] = true
		}
	}

	for i := 0; i < 20; i++ {
		epoch("random", rng.Intn(2000))
	}
	epoch("set-up", 23000)
	big := len(tab.slots)
	for i := 0; i < 5; i++ {
		epoch("served", 300)
	}
	if n := len(tab.slots); n != slotsFor(300) || n >= big {
		t.Fatalf("after 300-line epochs the table has %d slots (%d after set-up); want %d", n, big, slotsFor(300))
	}

	// Served-sized epochs across the wrap, so that no shrink renews the
	// slots: the wrap itself must retire the stale ones.
	tab.gen = math.MaxUint32 - 2
	for i := 0; i < 6; i++ {
		epoch("wrap", 250+rng.Intn(100))
	}
	if tab.gen != 4 || len(tab.slots) != slotsFor(300) {
		t.Fatalf("after the wrap: generation %d, %d slots; want 4 and %d", tab.gen, len(tab.slots), slotsFor(300))
	}
}
