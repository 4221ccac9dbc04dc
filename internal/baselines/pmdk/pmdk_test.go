package pmdk

import (
	"bytes"
	"fmt"
	"testing"

	"pax/internal/baselines/wal"
	"pax/internal/cache"
	"pax/internal/memory"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/structures"
)

const (
	logBase  = 0
	logSize  = 1 << 20
	heapBase = 1 << 20
	heapSize = 8 << 20
	pmSize   = heapBase + heapSize
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

func TestTxAtomicCommit(t *testing.T) {
	pm, core := fixture(t)
	tx := New(core, logBase, logSize)
	tx.Begin()
	tx.Store(heapBase, []byte("hello"))
	tx.Store(heapBase+100, []byte("world"))
	tx.Commit()

	// Crash after commit: both stores durable.
	core2 := attach(pm)
	log2, err := wal.Open(core2, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if n := log2.Recover(); n != 0 {
		t.Fatalf("rolled back %d records from committed tx", n)
	}
	buf := make([]byte, 5)
	core2.Load(heapBase, buf)
	if string(buf) != "hello" {
		t.Fatalf("first store lost: %q", buf)
	}
	core2.Load(heapBase+100, buf)
	if string(buf) != "world" {
		t.Fatalf("second store lost: %q", buf)
	}
}

func TestTxRollbackOnCrash(t *testing.T) {
	pm, core := fixture(t)
	// Durable initial state.
	core.Store(heapBase, []byte("original"))
	core.FlushLines(heapBase, 8)
	core.Fence()

	tx := New(core, logBase, logSize)
	tx.Begin()
	tx.Store(heapBase, []byte("mutated!"))
	// Force the mutated data to media to prove rollback, then crash
	// WITHOUT commit.
	core.FlushLines(heapBase, 8)
	core.Fence()

	core2 := attach(pm)
	log2, err := wal.Open(core2, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if n := log2.Recover(); n == 0 {
		t.Fatal("nothing recovered")
	}
	buf := make([]byte, 8)
	core2.Load(heapBase, buf)
	if string(buf) != "original" {
		t.Fatalf("rollback failed: %q", buf)
	}
}

func TestChunkDedupWithinTx(t *testing.T) {
	_, core := fixture(t)
	tx := New(core, logBase, logSize)
	tx.Begin()
	tx.Store(heapBase, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	appendsAfterFirst := tx.Log().Appends.Load()
	tx.Store(heapBase, []byte{9, 9, 9, 9, 9, 9, 9, 9}) // same chunk
	tx.Store(heapBase+2, []byte{7})                    // still same chunk
	if tx.Log().Appends.Load() != appendsAfterFirst {
		t.Fatal("re-logged an already-logged chunk")
	}
	tx.Store(heapBase+8, []byte{1}) // new chunk
	if tx.Log().Appends.Load() != appendsAfterFirst+1 {
		t.Fatal("new chunk not logged")
	}
	tx.Commit()

	// Dedup state resets across transactions.
	tx.Begin()
	tx.Store(heapBase, []byte{1})
	if tx.Log().Appends.Load() != appendsAfterFirst+2 {
		t.Fatal("chunk not re-logged in new tx")
	}
	tx.Commit()
}

func TestUnalignedStoreLogsSpannedRange(t *testing.T) {
	_, core := fixture(t)
	tx := New(core, logBase, logSize)
	tx.Begin()
	// Spans chunks at +0 and +8: logged as ONE coalesced 16-byte range
	// record (the pmemobj_tx_add_range shape).
	tx.Store(heapBase+6, []byte{1, 2, 3, 4})
	if got := tx.Log().Appends.Load(); got != 1 {
		t.Fatalf("spanning store logged %d records, want 1 range", got)
	}
	if got := tx.Log().AppendedBytes.Load(); got != 16 {
		t.Fatalf("range record covered %d bytes, want 16", got)
	}
	// A later store to either chunk is already covered: no new record.
	tx.Store(heapBase, []byte{9})
	tx.Store(heapBase+8, []byte{9})
	if got := tx.Log().Appends.Load(); got != 1 {
		t.Fatalf("covered chunks re-logged (%d records)", got)
	}
	tx.Commit()
}

func TestStoreOutsideTxPanics(t *testing.T) {
	_, core := fixture(t)
	tx := New(core, logBase, logSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tx.Store(heapBase, []byte{1})
}

func TestFenceCostsAccrue(t *testing.T) {
	_, core := fixture(t)
	tx := New(core, logBase, logSize)
	before := core.Now()
	tx.Begin()
	tx.Store(heapBase, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	tx.Store(heapBase+64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	tx.Commit()
	elapsed := core.Now() - before
	// Two log fences + commit fences: at least 3 SFENCE drains plus PM
	// write latency for the log entries.
	if elapsed < 3*sim.SFenceDrain {
		t.Fatalf("tx took %v, expected ≥ 3 fences of stall", elapsed)
	}
}

func TestMapOverTxMemory(t *testing.T) {
	pm, core := fixture(t)
	tx := New(core, logBase, logSize)

	// Build the generic hash map over the transactional memory: this is the
	// PMDK-style hand-built map.
	tx.Begin() // construction is itself a transaction
	arena := memory.NewBump(tx, heapBase, heapSize)
	hm, err := structures.NewHashMap(arena, 16)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	m := NewMap(tx, hm)
	for i := 0; i < 200; i++ {
		if err := m.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 200 {
		t.Fatalf("len = %d", m.Len())
	}
	got, ok := m.Get([]byte("k007"))
	if !ok || !bytes.Equal(got, []byte("v007")) {
		t.Fatalf("Get = %q %v", got, ok)
	}
	tx.Begin() // a removal is one failure-atomic transaction too
	present, err := hm.Delete([]byte("k007"))
	tx.Commit()
	if err != nil || !present {
		t.Fatal("delete failed")
	}

	// Crash + recover: all committed operations survive. (Data may be in
	// caches; PMDK relies on flush-at-commit, which Map does.)
	core2 := attach(pm)
	log2, err := wal.Open(core2, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	log2.Recover()
	arena2 := memory.NewBump(core2, heapBase, heapSize)
	hm2 := structures.OpenHashMap(arena2, hm.Addr())
	if hm2.Len() != 199 {
		t.Fatalf("recovered len = %d, want 199", hm2.Len())
	}
	got, ok = hm2.Get([]byte("k008"))
	if !ok || !bytes.Equal(got, []byte("v008")) {
		t.Fatalf("recovered Get = %q %v", got, ok)
	}
	if _, ok := hm2.Get([]byte("k007")); ok {
		t.Fatal("deleted key resurrected")
	}
}
