package hybrid

import (
	"testing"

	"pax/internal/core"
	"pax/internal/device"
	"pax/internal/hbm"
	"pax/internal/memory"
	"pax/internal/pmem"
	"pax/internal/sim"
)

const directBase = uint64(1) << 40

func testOptions() core.Options {
	return core.Options{
		DataSize: 1 << 20,
		LogSize:  1 << 20,
		Device:   device.Config{Link: sim.CXLLink, HBMSize: 64 << 10, HBMWays: 4, Policy: hbm.PreferDurable},
		Host:     sim.SmallHost(),
	}
}

// fixture builds a pool plus a direct (controller) alias of its data region
// and a hybrid mapping over both.
func fixture(t *testing.T) (*pmem.Device, *core.Pool, *Memory) {
	t.Helper()
	opts := testOptions()
	pm := pmem.New(pmem.DefaultConfig(int(core.HeaderSize + opts.LogSize + opts.DataSize)))
	pool, err := core.Create(pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	hier := pool.Hierarchy()
	hier.AddRange(directBase, opts.DataSize,
		memory.NewControllerHome(pm, directBase, pool.DataBase(), opts.DataSize))
	c := hier.Core(0)
	h := New(c, c, hier, directBase, pool.DataBase(), opts.DataSize)
	return pm, pool, h
}

func TestHybridRoutingAndRoundTrip(t *testing.T) {
	_, _, h := fixture(t)
	// Reads of a clean page go direct.
	buf := make([]byte, 8)
	h.Load(64<<10, buf)
	if h.DirectLoads.Load() != 1 || h.VPMLoads.Load() != 0 {
		t.Fatalf("clean read routed wrong: direct=%d vpm=%d", h.DirectLoads.Load(), h.VPMLoads.Load())
	}
	// First store faults the page over; later reads go through vPM.
	h.Store(64<<10, []byte("hybridA!"))
	if h.Faults.Load() != 1 || len(h.written) != 1 {
		t.Fatalf("faults=%d pages=%d", h.Faults.Load(), len(h.written))
	}
	h.Load(64<<10, buf)
	if string(buf) != "hybridA!" {
		t.Fatalf("read back %q", buf)
	}
	if h.VPMLoads.Load() != 1 {
		t.Fatal("post-write read did not use vPM")
	}
	// Second store to the same page: no new fault.
	h.Store(64<<10+512, []byte{1})
	if h.Faults.Load() != 1 {
		t.Fatal("refault on warm page")
	}
}

func TestHybridShootdownPreventsStaleReads(t *testing.T) {
	_, _, h := fixture(t)
	off := uint64(128 << 10)
	buf := make([]byte, 8)

	// Cache the line via the DIRECT mapping first.
	h.Load(off, buf)
	// Now write through hybrid (faults the page, shoots down direct copies).
	h.Store(off, []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22})
	// Read back: must see the new value, not the stale direct-cached copy.
	h.Load(off, buf)
	if buf[0] != 0xAA || buf[7] != 0x22 {
		t.Fatalf("stale read after remap: %x", buf)
	}
}

func TestHybridTrapCost(t *testing.T) {
	_, pool, h := fixture(t)
	c := pool.Hierarchy().Core(0)
	before := c.Now()
	h.Store(256<<10, []byte{1})
	if c.Now()-before < sim.PageFaultTrap {
		t.Fatal("page transition did not charge the trap")
	}
	before = c.Now()
	h.Store(256<<10+64, []byte{1})
	if c.Now()-before >= sim.PageFaultTrap {
		t.Fatal("warm-page store paid the trap")
	}
}

func TestHybridWritesAreCrashConsistent(t *testing.T) {
	pm, pool, h := fixture(t)
	h.Store(64<<10, []byte("persist me"))
	pool.Persist()
	h.Store(64<<10, []byte("roll me bk"))
	// Crash without persist.
	p2, err := core.Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	p2.Mem(0).Load(p2.DataBase()+64<<10, buf)
	if string(buf) != "persist me" {
		t.Fatalf("recovered %q", buf)
	}
}

func TestHybridPageSpanningAccess(t *testing.T) {
	_, _, h := fixture(t)
	off := uint64(PageSize - 4)
	h.Store(off, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // spans two pages
	if h.Faults.Load() != 2 {
		t.Fatalf("spanning store faulted %d pages, want 2", h.Faults.Load())
	}
	buf := make([]byte, 8)
	h.Load(off, buf)
	if buf[0] != 1 || buf[7] != 8 {
		t.Fatalf("spanning read %v", buf)
	}
}

func TestHybridDirectReadFraction(t *testing.T) {
	_, _, h := fixture(t)
	if h.DirectReadFraction() != 0 {
		t.Fatal("empty fraction not 0")
	}
	// Write one page, then read it and three clean pages.
	h.Store(0, []byte{1})
	buf := make([]byte, 1)
	h.Load(0, buf)
	for i := 1; i <= 3; i++ {
		h.Load(uint64(i)*PageSize, buf)
	}
	if got := h.DirectReadFraction(); got != 0.75 {
		t.Fatalf("direct fraction = %g, want 0.75", got)
	}
}

func TestHybridBounds(t *testing.T) {
	_, _, h := fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Load(1<<20-4, make([]byte, 8))
}
