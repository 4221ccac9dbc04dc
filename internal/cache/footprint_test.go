package cache

import (
	"runtime"
	"testing"
	"unsafe"

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
// can use: building it costs the LLC array, and a core's private levels are
// paid for only once that core runs. Eagerly built private levels for all 32
// cores would add ≈ 48 MB here.
func TestHierarchyFootprint(t *testing.T) {
	if got := unsafe.Sizeof(llcLine{}); got != 96 {
		t.Errorf("llcLine is %d bytes, want 96", got)
	}
	if got := unsafe.Sizeof(line{}); got != 88 {
		t.Errorf("line is %d bytes, want 88", got)
	}
	prof := sim.DefaultHost()
	llcBytes := int64(prof.LLC.SizeBytes/LineSize) * int64(unsafe.Sizeof(llcLine{}))
	coreBytes := int64((prof.L1.SizeBytes+prof.L2.SizeBytes)/LineSize) * int64(unsafe.Sizeof(line{}))
	const slack = 1 << 20

	before := liveHeap()
	h := NewHierarchy(prof)
	h.AddRange(0, 1<<20, newFakeHome(true))
	built := liveHeap()
	if grew := built - before; grew > llcBytes+slack {
		t.Errorf("NewHierarchy grew the heap by %d bytes; the LLC is %d", grew, llcBytes)
	}

	c := h.Core(0)
	for i := 0; i < 10000; i++ {
		c.Store(uint64(i)*LineSize, []byte{byte(i)})
	}
	if grew := liveHeap() - built; grew > coreBytes+slack {
		t.Errorf("10000 stores on core 0 grew the heap by %d bytes; one core's L1 + L2 is %d", grew, coreBytes)
	}
	runtime.KeepAlive(h)
}
