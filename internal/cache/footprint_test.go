package cache

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"pax/internal/coherence"
	"pax/internal/sim"
)

// liveHeap reports the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestHierarchyFootprint holds the default host model to the lines a pool
// has used: building it costs the LLC's 32 bytes a way (a 24-byte record and
// its tag word), a core's private levels (28 bytes a way: a 12-byte record
// that holds no data, its tag word and LRU stamp) are paid for only once
// that core runs, and LLC line data, the one copy of each line, only for the
// ways ever filled. Eagerly built private levels for all 32 cores would add
// ≈ 15 MB here, data inline in every LLC way ≈ 23 MB, and a copy of the data
// in every private record (66-byte records) another 0.9 MB per core that
// runs.
func TestHierarchyFootprint(t *testing.T) {
	if got := unsafe.Sizeof(llcLine{}); got != 24 {
		t.Errorf("llcLine is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(line{}); got != 12 {
		t.Errorf("line is %d bytes, want 12", got)
	}
	prof := sim.DefaultHost()
	const tagWord, lruStamp = 8, 8
	llcBytes := int64(prof.LLC.SizeBytes/LineSize) * int64(unsafe.Sizeof(llcLine{})+tagWord)
	coreBytes := int64((prof.L1.SizeBytes+prof.L2.SizeBytes)/LineSize) * int64(unsafe.Sizeof(line{})+tagWord+lruStamp)
	const (
		stores    = 10000
		chunk     = 1 << maxSlabShift * LineSize
		dataBytes = stores * LineSize
		slack     = 1 << 20
	)

	before := liveHeap()
	h := NewHierarchy(prof)
	h.AddRange(0, 1<<20, newFakeHome(true))
	built := liveHeap()
	t.Logf("NewHierarchy grew the heap by %d bytes", built-before)
	if grew := built - before; grew > llcBytes+slack {
		t.Errorf("NewHierarchy grew the heap by %d bytes; the LLC's line records are %d", grew, llcBytes)
	}

	c := h.Core(0)
	for i := 0; i < stores; i++ {
		c.Store(uint64(i)*LineSize, []byte{byte(i)})
	}
	grew := liveHeap() - built
	t.Logf("%d stores on core 0 grew the heap by %d bytes", stores, grew)
	if grew > coreBytes+dataBytes+chunk+slack {
		t.Errorf("%d stores on core 0 grew the heap by %d bytes; one core's L1 + L2 is %d, their data %d, a slab chunk %d",
			stores, grew, coreBytes, dataBytes, chunk)
	}
	runtime.KeepAlive(h)
}

// TestLLCDataFollowsOccupancy streams four times the LLC's capacity of
// distinct lines through core 0, dropping every third line from the host
// with a SnpInv and refilling it, and holds the slab to the ways ever
// filled: after every step the slab has handed out exactly one slot per way
// that has held a line, and every reload returns the bytes last stored,
// including through ways that held another tag before.
func TestLLCDataFollowsOccupancy(t *testing.T) {
	h, home := newTestHierarchy(t, true)
	c := h.Core(0)
	lines := len(h.llc)
	want := make(map[uint64][]byte)
	store := func(la uint64, round int) {
		b := make([]byte, LineSize)
		for k := range b {
			b[k] = byte(int(la/LineSize)*7 + round*13 + k)
		}
		c.Store(la, b)
		want[la] = b
	}
	everFilled := make(map[int]bool)
	tagsSeen := make(map[int]map[uint64]bool)
	observe := func(step string) {
		t.Helper()
		for w, tag := range h.llcTags {
			if tag != 0 {
				everFilled[w] = true
				if tagsSeen[w] == nil {
					tagsSeen[w] = make(map[uint64]bool)
				}
				tagsSeen[w][tag] = true
			}
		}
		if int(h.slots) != len(everFilled) {
			t.Fatalf("%s: slab has %d slots for %d ways ever filled", step, h.slots, len(everFilled))
		}
	}

	for i := 0; i < 4*lines; i++ {
		la := uint64(i) * LineSize
		store(la, 0)
		observe("store")
		if i%3 != 0 {
			continue
		}
		res := h.SnoopLine(la, coherence.SnpInv, 0)
		if !res.Present || !res.Dirty {
			t.Fatalf("line %#x: SnpInv found present=%v dirty=%v, want a dirty line", la, res.Present, res.Dirty)
		}
		home.WriteBackLine(la, res.Data[:], 0)
		observe("snoop")
		store(la, 1)
		observe("refill")
	}
	mustInvariants(t, h)
	if len(everFilled) != lines || int(h.slots) != lines {
		t.Fatalf("after %d distinct lines: %d ways filled, %d slots; want all %d", 4*lines, len(everFilled), h.slots, lines)
	}
	reused := 0
	for _, tags := range tagsSeen {
		if len(tags) > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no LLC way held more than one tag")
	}

	buf := make([]byte, LineSize)
	for la, b := range want {
		c.Load(la, buf)
		if !bytes.Equal(buf, b) {
			t.Fatalf("line %#x reloaded %v, want %v", la, buf[:8], b[:8])
		}
	}
	observe("reload")
	mustInvariants(t, h)
}
