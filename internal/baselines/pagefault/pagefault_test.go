package pagefault

import (
	"testing"

	"pax/internal/baselines/wal"
	"pax/internal/cache"
	"pax/internal/memory"
	"pax/internal/pmem"
	"pax/internal/sim"
)

const (
	logBase = 0
	logSize = 4 << 20
	dataPos = 8 << 20
	pmSize  = 16 << 20
)

func fixture(t *testing.T) (*pmem.Device, *cache.Core) {
	t.Helper()
	pm := pmem.New(pmem.DefaultConfig(pmSize))
	return pm, attach(pm)
}

func attach(pm *pmem.Device) *cache.Core {
	h := cache.NewHierarchy(sim.SmallHost())
	h.AddRange(0, pmSize, memory.NewControllerHome(pm, 0, 0, pmSize))
	return h.Core(0)
}

func TestTrapOncePerPagePerEpoch(t *testing.T) {
	_, core := fixture(t)
	tr := New(core, logBase, logSize)
	tr.Store(dataPos, []byte{1})
	tr.Store(dataPos+8, []byte{2})    // same page: no trap
	tr.Store(dataPos+4000, []byte{3}) // same page
	if tr.Traps.Load() != 1 {
		t.Fatalf("traps = %d, want 1", tr.Traps.Load())
	}
	tr.Store(dataPos+PageSize, []byte{4}) // next page
	if tr.Traps.Load() != 2 {
		t.Fatalf("traps = %d, want 2", tr.Traps.Load())
	}
	if len(tr.writable) != 2 {
		t.Fatalf("dirty pages = %d", len(tr.writable))
	}

	tr.Persist()
	if len(tr.writable) != 0 {
		t.Fatal("persist did not reset epoch state")
	}
	// Pages re-protected: first store traps again.
	tr.Store(dataPos, []byte{5})
	if tr.Traps.Load() != 3 {
		t.Fatalf("traps = %d, want 3 after new epoch", tr.Traps.Load())
	}
}

func TestTrapChargesTime(t *testing.T) {
	_, core := fixture(t)
	tr := New(core, logBase, logSize)
	before := core.Now()
	tr.Store(dataPos, []byte{1})
	if core.Now()-before < sim.PageFaultTrap {
		t.Fatalf("first-touch store took %v, want ≥ trap cost %v", core.Now()-before, sim.PageFaultTrap)
	}
	before = core.Now()
	tr.Store(dataPos+8, []byte{1})
	if core.Now()-before >= sim.PageFaultTrap {
		t.Fatal("warm store paid the trap cost")
	}
}

func TestWriteAmplification(t *testing.T) {
	_, core := fixture(t)
	tr := New(core, logBase, logSize)
	// One 8-byte store per page across 16 pages: amplification = 4096/8.
	stored := 0
	for i := 0; i < 16; i++ {
		data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		tr.Store(dataPos+uint64(i)*PageSize, data)
		stored += len(data)
	}
	logged := tr.Log().AppendedBytes.Load()
	if got, want := float64(logged)/float64(stored), float64(PageSize)/8; got != want {
		t.Fatalf("write amplification = %g, want %g", got, want)
	}
	if tr.Traps.Load() != 16 || logged != 16*PageSize {
		t.Fatalf("traps=%d logged bytes=%d", tr.Traps.Load(), logged)
	}
}

func TestStoreSpanningPages(t *testing.T) {
	_, core := fixture(t)
	tr := New(core, logBase, logSize)
	// A store crossing a page boundary traps both pages.
	tr.Store(dataPos+PageSize-4, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if tr.Traps.Load() != 2 {
		t.Fatalf("traps = %d, want 2", tr.Traps.Load())
	}
}

func TestEpochRollbackOnCrash(t *testing.T) {
	pm, core := fixture(t)
	tr := New(core, logBase, logSize)

	tr.Store(dataPos, []byte("epoch-one-value!"))
	tr.Persist() // durable snapshot

	tr.Store(dataPos, []byte("epoch-two-UNDONE"))
	core.FlushLines(dataPos, 16) // damage reaches media
	core.Fence()
	// Crash without Persist.

	core2 := attach(pm)
	log2, err := wal.Open(core2, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if n := log2.Recover(); n != 1 {
		t.Fatalf("recovered %d page records", n)
	}
	buf := make([]byte, 16)
	core2.Load(dataPos, buf)
	if string(buf) != "epoch-one-value!" {
		t.Fatalf("recovered %q", buf)
	}
}

func TestLoadsNeverTrap(t *testing.T) {
	_, core := fixture(t)
	tr := New(core, logBase, logSize)
	buf := make([]byte, 64)
	tr.Load(dataPos, buf)
	tr.Load(dataPos+PageSize, buf)
	if tr.Traps.Load() != 0 {
		t.Fatal("loads trapped")
	}
}
