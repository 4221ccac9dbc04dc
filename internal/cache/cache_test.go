package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"pax/internal/coherence"
	"pax/internal/sim"
)

// fakeHome is a flat line-granular backing store. With grantShared=true it
// behaves like the PAX device (reads granted Shared so every first store is
// observed); otherwise like a memory controller (reads granted Exclusive).
type fakeHome struct {
	mem         map[uint64][LineSize]byte
	grantShared bool
	fetches     int
	upgrades    int
	writebacks  int
	latency     sim.Time
}

func newFakeHome(grantShared bool) *fakeHome {
	return &fakeHome{mem: make(map[uint64][LineSize]byte), grantShared: grantShared, latency: sim.NS(100)}
}

func (f *fakeHome) FetchLine(addr uint64, excl bool, buf []byte, at sim.Time) coherence.FillResult {
	f.fetches++
	line := f.mem[addr]
	copy(buf, line[:])
	st := coherence.Exclusive
	if !excl && f.grantShared {
		st = coherence.Shared
	}
	return coherence.FillResult{State: st, Done: at + f.latency}
}

func (f *fakeHome) UpgradeLine(addr uint64, at sim.Time) sim.Time {
	f.upgrades++
	return at + f.latency
}

func (f *fakeHome) WriteBackLine(addr uint64, data []byte, at sim.Time) sim.Time {
	f.writebacks++
	var line [LineSize]byte
	copy(line[:], data)
	f.mem[addr] = line
	return at + f.latency
}

func newTestHierarchy(t *testing.T, grantShared bool) (*Hierarchy, *fakeHome) {
	t.Helper()
	h := NewHierarchy(sim.SmallHost())
	home := newFakeHome(grantShared)
	h.AddRange(0, 1<<20, home)
	return h, home
}

func mustInvariants(t *testing.T, h *Hierarchy) {
	t.Helper()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	c := h.Core(0)
	data := []byte("hello through the cache hierarchy, crossing lines")
	c.Store(100, data)
	buf := make([]byte, len(data))
	c.Load(100, buf)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
	mustInvariants(t, h)
}

func TestWriteBackOnlyOnEviction(t *testing.T) {
	h, home := newTestHierarchy(t, false)
	c := h.Core(0)
	c.Store(0, []byte{42})
	// The store is cached; the home must not have the new value yet.
	if line, ok := home.mem[0]; ok && line[0] == 42 {
		t.Fatal("store reached home before eviction/flush")
	}
	// Flush pushes it home.
	c.FlushLines(0, 1)
	c.Fence()
	if home.mem[0][0] != 42 {
		t.Fatal("flush did not reach home")
	}
	mustInvariants(t, h)
}

func TestCapacityEvictionWritesBack(t *testing.T) {
	h, home := newTestHierarchy(t, false)
	c := h.Core(0)
	// Write far more lines than the tiny LLC holds.
	llcLines := sim.SmallHost().LLC.SizeBytes / LineSize
	for i := 0; i < llcLines*4; i++ {
		addr := uint64(i * LineSize)
		c.Store(addr, []byte{byte(i)})
	}
	if home.writebacks == 0 {
		t.Fatal("no write-backs despite capacity pressure")
	}
	mustInvariants(t, h)
	// Every line must still read back correctly (some from home, some cached).
	for i := 0; i < llcLines*4; i++ {
		addr := uint64(i * LineSize)
		var b [1]byte
		c.Load(addr, b[:])
		if b[0] != byte(i) {
			t.Fatalf("line %d read %d", i, b[0])
		}
	}
}

func TestL1HitFastPath(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	c := h.Core(0)
	var b [8]byte
	c.Load(0, b[:])
	before := c.Now()
	c.Load(0, b[:]) // guaranteed L1 hit
	elapsed := c.Now() - before
	if elapsed != sim.L1Latency {
		t.Fatalf("L1 hit took %v, want %v", elapsed, sim.L1Latency)
	}
	if c.l1.Ratio.MissRate() >= 1 {
		t.Fatal("second access did not hit")
	}
}

func TestUpgradeNotifiesHomeOncePerOwnership(t *testing.T) {
	h, home := newTestHierarchy(t, true) // device-like: reads granted Shared
	c := h.Core(0)

	var b [8]byte
	c.Load(0, b[:]) // fill Shared
	if home.upgrades != 0 {
		t.Fatalf("load caused %d upgrades", home.upgrades)
	}
	c.Store(0, []byte{1}) // S→M: host-wide upgrade, home notified
	if home.upgrades != 1 {
		t.Fatalf("first store caused %d upgrades, want 1", home.upgrades)
	}
	c.Store(0, []byte{2}) // already M: silent
	c.Store(8, []byte{3}) // same line: silent
	if home.upgrades != 1 {
		t.Fatalf("subsequent stores caused %d upgrades, want 1", home.upgrades)
	}

	// Device snoops the line back (persist()); the next store must notify again.
	res := h.SnoopLine(0, coherence.SnpData, 0)
	if !res.Present || !res.Dirty {
		t.Fatalf("snoop result %+v, want present dirty", res)
	}
	if res.Data[0] != 2 || res.Data[8] != 3 {
		t.Fatalf("snoop data = %v", res.Data[:9])
	}
	c.Store(0, []byte{4})
	if home.upgrades != 2 {
		t.Fatalf("post-snoop store caused %d total upgrades, want 2", home.upgrades)
	}
	mustInvariants(t, h)
}

func TestStoreMissIsExclusiveFetch(t *testing.T) {
	h, home := newTestHierarchy(t, true)
	c := h.Core(0)
	c.Store(0, []byte{9}) // write miss: RdOwn
	if home.fetches != 1 {
		t.Fatalf("fetches = %d", home.fetches)
	}
	// RdOwn grants ownership; no separate upgrade message.
	if home.upgrades != 0 {
		t.Fatalf("upgrades = %d, want 0 (RdOwn already grants ownership)", home.upgrades)
	}
	mustInvariants(t, h)
}

func TestCrossCoreCoherence(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	c0, c1 := h.Core(0), h.Core(1)

	c0.Store(128, []byte("written by core zero"))
	buf := make([]byte, 20)
	c1.Load(128, buf)
	if string(buf) != "written by core zero" {
		t.Fatalf("core 1 read %q", buf)
	}
	mustInvariants(t, h)

	// Now core 1 writes: core 0's copy must be invalidated, and core 0 must
	// see the new value.
	c1.Store(128, []byte("then core one rewrote"))
	buf = make([]byte, 21)
	c0.Load(128, buf)
	if string(buf) != "then core one rewrote" {
		t.Fatalf("core 0 read %q", buf)
	}
	mustInvariants(t, h)
}

func TestPingPongSharing(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	c0, c1 := h.Core(0), h.Core(1)
	for i := 0; i < 50; i++ {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(i))
		c0.Store(0, v[:])
		var r [8]byte
		c1.Load(0, r[:])
		if got := binary.LittleEndian.Uint64(r[:]); got != uint64(i) {
			t.Fatalf("iter %d: core1 read %d", i, got)
		}
		c1.Store(0, v[:])
		c0.Load(0, r[:])
	}
	mustInvariants(t, h)
}

func TestSnoopMissReportsAbsent(t *testing.T) {
	h, _ := newTestHierarchy(t, true)
	res := h.SnoopLine(4096, coherence.SnpData, 0)
	if res.Present {
		t.Fatal("uncached line reported present")
	}
}

func TestSnpInvDropsLine(t *testing.T) {
	h, home := newTestHierarchy(t, true)
	c := h.Core(0)
	c.Store(0, []byte{7})
	res := h.SnoopLine(0, coherence.SnpInv, 0)
	if !res.Present || !res.Dirty || res.Data[0] != 7 {
		t.Fatalf("SnpInv result %+v", res)
	}
	mustInvariants(t, h)
	// Next load must fetch from home again.
	fetchesBefore := home.fetches
	var b [1]byte
	c.Load(0, b[:])
	if home.fetches != fetchesBefore+1 {
		t.Fatal("load after SnpInv did not refetch")
	}
}

func TestSnpDataTransfersDirtyResponsibility(t *testing.T) {
	h, home := newTestHierarchy(t, true)
	c := h.Core(0)
	c.Store(0, []byte{5})
	h.SnoopLine(0, coherence.SnpData, 0)
	// Host copy is now clean; evicting it must not write back.
	wbBefore := home.writebacks
	h.FlushAll(0)
	if home.writebacks != wbBefore {
		t.Fatalf("clean line written back after SnpData (wb %d→%d)", wbBefore, home.writebacks)
	}
	mustInvariants(t, h)
}

func TestFlushAllPushesEverythingHome(t *testing.T) {
	h, home := newTestHierarchy(t, false)
	c := h.Core(0)
	for i := 0; i < 10; i++ {
		c.Store(uint64(i*LineSize), []byte{byte(i + 1)})
	}
	h.FlushAll(0)
	for i := 0; i < 10; i++ {
		if home.mem[uint64(i*LineSize)][0] != byte(i+1) {
			t.Fatalf("line %d not flushed", i)
		}
	}
	mustInvariants(t, h)
}

func TestFenceWaitsForDrain(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	c := h.Core(0)
	c.Store(0, []byte{1})
	c.FlushLines(0, 1)
	before := c.Now()
	c.Fence()
	if c.Now() < before+sim.SFenceDrain {
		t.Fatal("fence did not charge drain cost")
	}
}

func TestUnmappedAddressPanics(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unmapped address")
		}
	}()
	h.Core(0).Load(1<<30, make([]byte, 1))
}

func TestOverlappingRangePanics(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping range")
		}
	}()
	h.AddRange(0, LineSize, newFakeHome(false))
}

func TestMissRatesTracked(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	c := h.Core(0)
	// Touch a working set far beyond L1 so miss rates are non-trivial.
	for round := 0; round < 4; round++ {
		for i := 0; i < 256; i++ {
			var b [8]byte
			c.Load(uint64(i*LineSize), b[:])
		}
	}
	l1, l2, llc := h.MissRates()
	if l1 <= 0 || l1 > 1 {
		t.Fatalf("l1 miss rate %g", l1)
	}
	if l2 < 0 || l2 > 1 || llc < 0 || llc > 1 {
		t.Fatalf("l2=%g llc=%g", l2, llc)
	}
	h.ResetStats()
	if a, b2, c2 := h.MissRates(); a != 0 || b2 != 0 || c2 != 0 {
		t.Fatal("ResetStats did not clear miss rates")
	}
}

// opModel applies the MESI test ops — Store, Load, SnpData, SnpInv — to a
// hierarchy and keeps a flat byte array of what every address must hold.
type opModel struct {
	h     *Hierarchy
	home  *fakeHome
	model []byte
}

func newOpModel(h *Hierarchy, home *fakeHome, space int) *opModel {
	return &opModel{h: h, home: home, model: make([]byte, space)}
}

func (m *opModel) store(c *Core, addr uint64, data []byte) {
	c.Store(addr, data)
	copy(m.model[addr:], data)
}

func (m *opModel) load(c *Core, addr uint64, n int) error {
	buf := make([]byte, n)
	c.Load(addr, buf)
	if want := m.model[addr : addr+uint64(n)]; !bytes.Equal(buf, want) {
		return fmt.Errorf("core %d load at %d got %v want %v", c.id, addr, buf, want)
	}
	return nil
}

// storeWord stores the low n bytes of v at addr through StoreU32 or
// StoreU64.
func (m *opModel) storeWord(c *Core, addr uint64, n int, v uint64) {
	if n == 8 {
		c.StoreU64(addr, v)
	} else {
		c.StoreU32(addr, uint32(v))
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	copy(m.model[addr:], b[:n])
}

// loadWord checks LoadU32 or LoadU64 at addr against the model.
func (m *opModel) loadWord(c *Core, addr uint64, n int) error {
	var b [8]byte
	copy(b[:], m.model[addr:addr+uint64(n)])
	want := binary.LittleEndian.Uint64(b[:])
	var got uint64
	if n == 8 {
		got = c.LoadU64(addr)
	} else {
		got = uint64(c.LoadU32(addr))
	}
	if got != want {
		return fmt.Errorf("core %d LoadU%d at %d got %#x want %#x", c.id, 8*n, addr, got, want)
	}
	return nil
}

// snoop sends a device snoop for la. Dirty data it returns must match the
// model; the device becomes responsible for it, so it goes to the home as
// PAX would write it.
func (m *opModel) snoop(la uint64, op coherence.SnoopOp) error {
	res := m.h.SnoopLine(la, op, 0)
	if res.Present && res.Dirty {
		if !bytes.Equal(res.Data[:], m.model[la:la+LineSize]) {
			return fmt.Errorf("%v snoop data mismatch at %#x", op, la)
		}
		m.home.WriteBackLine(la, res.Data[:], 0)
	}
	return nil
}

// drain flushes the whole hierarchy and compares the home with the model.
func (m *opModel) drain() error {
	m.h.FlushAll(0)
	for la := uint64(0); la < uint64(len(m.model)); la += LineSize {
		line := m.home.mem[la] // absent lines read as zero
		if !bytes.Equal(line[:], m.model[la:la+LineSize]) {
			return fmt.Errorf("home line %#x diverged from model", la)
		}
	}
	return nil
}

// Random op soup across every core, continuously compared against a flat
// model array, with invariants checked along the way. This is the main MESI
// correctness test; FuzzHierarchyOps drives the same ops from fuzz bytes.
func TestRandomOpsMatchModel(t *testing.T) {
	h, home := newTestHierarchy(t, true)
	const space = 1 << 14
	m := newOpModel(h, home, space)
	rng := rand.New(rand.NewSource(12345))

	for i := 0; i < 6000; i++ {
		c := h.Core(rng.Intn(len(h.cores)))
		addr := uint64(rng.Intn(space - 16))
		var err error
		switch rng.Intn(5) {
		case 0, 1: // store
			data := make([]byte, 1+rng.Intn(16))
			rng.Read(data)
			m.store(c, addr, data)
		case 2, 3: // load and compare
			err = m.load(c, addr, 1+rng.Intn(16))
		case 4: // device snoop
			op := coherence.SnpData
			if rng.Intn(2) == 0 {
				op = coherence.SnpInv
			}
			err = m.snoop(coherence.LineAddr(addr), op)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%500 == 0 {
			mustInvariants(t, h)
		}
	}
	mustInvariants(t, h)
	if err := m.drain(); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotone(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	c := h.Core(0)
	prev := c.Now()
	for i := 0; i < 100; i++ {
		c.Store(uint64(i*LineSize), []byte{1})
		if c.Now() < prev {
			t.Fatal("core clock moved backwards")
		}
		prev = c.Now()
	}
}
