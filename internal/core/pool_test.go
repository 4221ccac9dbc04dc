package core

import (
	"encoding/binary"
	"testing"

	"pax/internal/device"
	"pax/internal/hbm"
	"pax/internal/memory"
	"pax/internal/pmem"
	"pax/internal/sim"
)

// testOptions returns a small, fast pool configuration.
func testOptions() Options {
	return Options{
		DataSize: 1 << 20,
		LogSize:  1 << 20,
		Device:   device.Config{Link: sim.CXLLink, HBMSize: 64 << 10, HBMWays: 4, Policy: hbm.PreferDurable},
		Host:     sim.SmallHost(),
	}
}

func newTestPool(t *testing.T) (*pmem.Device, *Pool) {
	t.Helper()
	opts := testOptions()
	pm := pmem.New(pmem.DefaultConfig(int(HeaderSize + opts.LogSize + opts.DataSize)))
	p, err := Create(pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pm, p
}

func storeU64(m memory.Memory, addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Store(addr, b[:])
}

func loadU64(m memory.Memory, addr uint64) uint64 {
	var b [8]byte
	m.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func TestCreateProducesDurableEmptyPool(t *testing.T) {
	pm, p := newTestPool(t)
	if p.DurableEpoch() != 1 {
		t.Fatalf("durable epoch after create = %d, want 1", p.DurableEpoch())
	}
	if p.Epoch() != 2 {
		t.Fatalf("current epoch = %d, want 2", p.Epoch())
	}
	// Immediate crash + reopen must find a valid empty pool.
	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < RootSlots; i++ {
		if p2.Root(i) != 0 {
			t.Fatalf("root %d = %#x, want 0", i, p2.Root(i))
		}
	}
}

func TestPersistThenRecoverKeepsData(t *testing.T) {
	pm, p := newTestPool(t)
	addr, err := p.Allocator().Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Mem(0)
	for i := uint64(0); i < 32; i++ {
		storeU64(m, addr+i*8, 1000+i)
	}
	p.SetRoot(0, addr)
	p.Persist()

	// Crash: all volatile state (caches, device buffers) is dropped.
	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	root := p2.Root(0)
	if root != addr {
		t.Fatalf("root = %#x, want %#x", root, addr)
	}
	m2 := p2.Mem(0)
	for i := uint64(0); i < 32; i++ {
		if got := loadU64(m2, root+i*8); got != 1000+i {
			t.Fatalf("word %d = %d, want %d", i, got, 1000+i)
		}
	}
}

func TestUnpersistedEpochRollsBack(t *testing.T) {
	pm, p := newTestPool(t)
	addr, _ := p.Allocator().Alloc(64)
	m := p.Mem(0)
	storeU64(m, addr, 111)
	p.SetRoot(0, addr)
	p.Persist() // snapshot: value 111

	storeU64(m, addr, 222) // modified but never persisted
	// Force the dirty line through to media to prove rollback works even
	// when unpersisted data reached PM: flush host caches so the device
	// receives the write-back, then persist nothing.
	p.Hierarchy().FlushAll(0)

	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := loadU64(p2.Mem(0), addr); got != 111 {
		t.Fatalf("recovered value %d, want 111 (rollback)", got)
	}
	if p2.Recovery().LinesRolledBack == 0 {
		t.Fatal("recovery reported no rolled-back lines")
	}
}

func TestSnapshotIsAtomicAcrossLines(t *testing.T) {
	pm, p := newTestPool(t)
	addr, _ := p.Allocator().Alloc(4096) // spans many lines
	m := p.Mem(0)
	for i := uint64(0); i < 512; i++ {
		storeU64(m, addr+i*8, 1)
	}
	p.SetRoot(0, addr)
	p.Persist() // snapshot A: all ones

	for i := uint64(0); i < 512; i++ {
		storeU64(m, addr+i*8, 2)
	}
	// Crash mid-epoch (some lines may be written back by eviction pressure).
	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m2 := p2.Mem(0)
	for i := uint64(0); i < 512; i++ {
		if got := loadU64(m2, addr+i*8); got != 1 {
			t.Fatalf("word %d = %d, want 1: snapshot not atomic", i, got)
		}
	}
}

func TestSuccessiveEpochs(t *testing.T) {
	pm, p := newTestPool(t)
	addr, _ := p.Allocator().Alloc(64)
	p.SetRoot(0, addr)
	m := p.Mem(0)
	for v := uint64(1); v <= 5; v++ {
		storeU64(m, addr, v)
		rep, err := p.Persist()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Epoch != v+1 { // epoch 1 was the create snapshot
			t.Fatalf("persist %d ran in epoch %d", v, rep.Epoch)
		}
	}
	if p.DurableEpoch() != 6 {
		t.Fatalf("durable epoch = %d", p.DurableEpoch())
	}
	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := loadU64(p2.Mem(0), addr); got != 5 {
		t.Fatalf("recovered %d, want 5", got)
	}
	if p2.Epoch() != 7 {
		t.Fatalf("resumed epoch = %d, want 7", p2.Epoch())
	}
}

func TestAllocatorStateRollsBackWithSnapshot(t *testing.T) {
	pm, p := newTestPool(t)
	a1, _ := p.Allocator().Alloc(64)
	p.SetRoot(0, a1)
	p.Persist()
	brkAt1 := p.Arena().Brk()

	// Unpersisted allocations must vanish on recovery.
	p.Allocator().Alloc(64)
	p.Allocator().Alloc(64)
	if p.Arena().Brk() == brkAt1 {
		t.Fatal("allocations did not move brk")
	}
	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Arena().Brk(); got != brkAt1 {
		t.Fatalf("recovered brk %#x, want %#x (allocator rollback)", got, brkAt1)
	}
	// The next allocation reuses the rolled-back space.
	a2, _ := p2.Allocator().Alloc(64)
	if a2 >= p.Arena().Brk() && a2 != 0 {
		t.Fatalf("post-recovery allocation %#x beyond rolled-back brk", a2)
	}
}

func TestRootsRollBack(t *testing.T) {
	pm, p := newTestPool(t)
	a1, _ := p.Allocator().Alloc(64)
	p.SetRoot(3, a1)
	p.Persist()
	a2, _ := p.Allocator().Alloc(64)
	p.SetRoot(3, a2) // unpersisted root update
	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Root(3); got != a1 {
		t.Fatalf("root = %#x, want rolled-back %#x", got, a1)
	}
}

func TestRootSlotValidation(t *testing.T) {
	_, p := newTestPool(t)
	for _, f := range []func(){
		func() { p.SetRoot(-1, 0) },
		func() { p.SetRoot(RootSlots, 0) },
		func() { p.Root(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	pm := pmem.New(pmem.DefaultConfig(1 << 20))
	if _, err := Open(pm, testOptions()); err == nil {
		t.Fatal("opened an unformatted device")
	}
	// Corrupt header CRC on a real pool.
	pm2, p := newTestPool(t)
	_ = p
	pm2.Write(offTotalSize, []byte{1, 2, 3}, 0)
	if _, err := Open(pm2, testOptions()); err == nil {
		t.Fatal("opened pool with corrupt header")
	}
}

func TestCreateValidation(t *testing.T) {
	pm := pmem.New(pmem.DefaultConfig(1 << 20))
	opts := testOptions()
	opts.DataSize = 0
	if _, err := Create(pm, opts); err == nil {
		t.Fatal("zero data size accepted")
	}
	opts = testOptions()
	opts.DataSize = 1 << 30 // larger than device
	if _, err := Create(pm, opts); err == nil {
		t.Fatal("oversized pool accepted")
	}
}

func TestPersistReportCounts(t *testing.T) {
	_, p := newTestPool(t)
	addr, _ := p.Allocator().Alloc(1024)
	m := p.Mem(0)
	for i := uint64(0); i < 16; i++ { // touch 2 lines per iteration boundary
		storeU64(m, addr+i*64, i)
	}
	dirty0 := p.Device().Stats.SnoopsDirty.Load()
	rep, err := p.Persist()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinesSnooped < 16 {
		t.Fatalf("snooped %d lines, want ≥16", rep.LinesSnooped)
	}
	if rep.LinesWritten == 0 && p.Device().Stats.SnoopsDirty.Load() == dirty0 {
		t.Fatal("persist wrote nothing")
	}
	if rep.Done <= 0 {
		t.Fatal("no completion time")
	}
}

func TestWorkingSetLargerThanHBM(t *testing.T) {
	// The §3.3 claim: per-epoch working sets are not limited by device
	// buffer capacity. HBM here is 64 KiB; modify 512 KiB in one epoch.
	pm, p := newTestPool(t)
	addr, _ := p.Allocator().Alloc(512 << 10)
	p.SetRoot(0, addr)
	m := p.Mem(0)
	lines := (512 << 10) / 64
	for i := 0; i < lines; i++ {
		storeU64(m, addr+uint64(i*64), uint64(i)+7)
	}
	p.Persist()

	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m2 := p2.Mem(0)
	for i := 0; i < lines; i += 97 { // spot check
		if got := loadU64(m2, addr+uint64(i*64)); got != uint64(i)+7 {
			t.Fatalf("line %d = %d, want %d", i, got, uint64(i)+7)
		}
	}
}

func TestMultiThreadViews(t *testing.T) {
	_, p := newTestPool(t)
	addr, _ := p.Allocator().Alloc(64)
	m0, m1 := p.Mem(0), p.Mem(1)
	storeU64(m0, addr, 42)
	if got := loadU64(m1, addr); got != 42 {
		t.Fatalf("core 1 sees %d, want 42 (coherence)", got)
	}
}
