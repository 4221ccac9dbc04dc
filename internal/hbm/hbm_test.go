package hbm

import (
	"testing"
	"testing/quick"
)

func mkLine(addr uint64, dirty bool, bound uint64) Line {
	var l Line
	l.Addr = addr
	l.Dirty = dirty
	l.LogBound = bound
	l.Data[0] = byte(addr / LineSize)
	return l
}

func TestLookupInsert(t *testing.T) {
	c := New(1024, 4, PreferDurable) // 16 lines, 4 sets
	if got := c.Lookup(0); got != nil {
		t.Fatal("empty cache hit")
	}
	c.Insert(mkLine(0, false, 0), 0)
	ln := c.Lookup(0)
	if ln == nil || ln.Data[0] != 0 {
		t.Fatal("inserted line not found")
	}
	if c.Ratio.Hits.Load() != 1 || c.Ratio.Misses.Load() != 1 {
		t.Fatalf("ratio %d/%d", c.Ratio.Hits.Load(), c.Ratio.Misses.Load())
	}
}

func TestInsertReplacesInPlace(t *testing.T) {
	c := New(1024, 4, PreferDurable)
	c.Insert(mkLine(64, false, 0), 0)
	updated := mkLine(64, true, 96)
	updated.Data[1] = 0xEE
	if _, evicted := c.Insert(updated, 0); evicted {
		t.Fatal("in-place replace evicted")
	}
	ln := c.Peek(64)
	if !ln.Dirty || ln.Data[1] != 0xEE || ln.LogBound != 96 {
		t.Fatalf("replace lost data: %+v", ln)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

// fillSet inserts `ways` lines all mapping to the same set (set stride =
// numSets*LineSize).
func fillSet(c *Cache, numSets, ways int, dirty bool, bound uint64) {
	for i := 0; i < ways; i++ {
		addr := uint64(i*numSets) * LineSize
		c.Insert(mkLine(addr, dirty, bound), 0)
	}
}

func TestPreferDurableEvictsCleanFirst(t *testing.T) {
	c := New(1024, 4, PreferDurable) // 4 sets x 4 ways
	const numSets = 4
	// Fill one set: 3 dirty lines (undurable), 1 clean line (the LRU is the
	// first inserted, which is dirty — policy must still pick the clean one).
	c.Insert(mkLine(0*numSets*LineSize, true, 1000), 0)
	c.Insert(mkLine(1*numSets*LineSize, true, 1000), 0)
	c.Insert(mkLine(2*numSets*LineSize, false, 0), 0)
	c.Insert(mkLine(3*numSets*LineSize, true, 1000), 0)

	victim, evicted := c.Insert(mkLine(4*numSets*LineSize, true, 1000), 0)
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if victim.Dirty {
		t.Fatalf("evicted dirty line %+v with a clean candidate available", victim)
	}
	if c.DirtyEvictionsStalled.Load() != 0 {
		t.Fatal("clean eviction counted as stalled")
	}
}

func TestPreferDurableEvictsDurableDirtyNext(t *testing.T) {
	c := New(1024, 4, PreferDurable)
	const numSets = 4
	// All dirty: one has a durable log entry (bound 96 ≤ frontier 200).
	c.Insert(mkLine(0*numSets*LineSize, true, 1000), 0)
	c.Insert(mkLine(1*numSets*LineSize, true, 96), 0)
	c.Insert(mkLine(2*numSets*LineSize, true, 1000), 0)
	c.Insert(mkLine(3*numSets*LineSize, true, 1000), 0)

	victim, evicted := c.Insert(mkLine(4*numSets*LineSize, true, 1000), 200)
	if !evicted || victim.Addr != 1*numSets*LineSize {
		t.Fatalf("victim %+v, want the durable-dirty line", victim)
	}
	if c.DirtyEvictionsStalled.Load() != 0 {
		t.Fatal("durable eviction counted as stalled")
	}

	// Now nothing is durable: eviction must stall-count.
	victim, evicted = c.Insert(mkLine(5*numSets*LineSize, true, 1000), 0)
	if !evicted || !victim.Dirty {
		t.Fatalf("victim %+v", victim)
	}
	if c.DirtyEvictionsStalled.Load() != 1 {
		t.Fatalf("stalled = %d", c.DirtyEvictionsStalled.Load())
	}
}

func TestPlainLRUIgnoresDurability(t *testing.T) {
	c := New(1024, 4, PlainLRU)
	const numSets = 4
	// LRU is a dirty, undurable line; a clean line exists but was used later.
	c.Insert(mkLine(0*numSets*LineSize, true, 1000), 0) // LRU
	c.Insert(mkLine(1*numSets*LineSize, false, 0), 0)
	c.Insert(mkLine(2*numSets*LineSize, false, 0), 0)
	c.Insert(mkLine(3*numSets*LineSize, false, 0), 0)

	victim, evicted := c.Insert(mkLine(4*numSets*LineSize, false, 0), 0)
	if !evicted || victim.Addr != 0 || !victim.Dirty {
		t.Fatalf("PlainLRU victim %+v, want addr 0 dirty", victim)
	}
	if c.DirtyEvictionsStalled.Load() != 1 {
		t.Fatal("undurable dirty eviction not counted")
	}
}

func TestLRUOrderWithinClass(t *testing.T) {
	c := New(1024, 4, PreferDurable)
	const numSets = 4
	fillSet(c, numSets, 4, false, 0)
	// Touch line 0 so line 1 becomes LRU.
	c.Lookup(0)
	victim, evicted := c.Insert(mkLine(4*numSets*LineSize, false, 0), 0)
	if !evicted || victim.Addr != 1*numSets*LineSize {
		t.Fatalf("victim %+v, want LRU line 1", victim)
	}
}

func TestMarkClean(t *testing.T) {
	c := New(1024, 4, PreferDurable)
	c.Insert(mkLine(0, true, 96), 0)
	if !c.Peek(0).Dirty {
		t.Fatal("dirty insert not dirty")
	}
	c.MarkClean(0)
	if ln := c.Peek(0); ln.Dirty || ln.LogBound != 0 {
		t.Fatal("MarkClean incomplete")
	}
	c.MarkClean(4096) // absent: no-op
	if c.Len() != 1 {
		t.Fatal("MarkClean changed the cache's contents")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(100, 4, PlainLRU) },  // not line multiple
		func() { New(1024, 3, PlainLRU) }, // sets not power of two (16/3 invalid)
		func() { New(0, 1, PlainLRU) },
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

// Property: the cache never holds two lines with the same address and never
// exceeds capacity; a line just inserted is always findable unless evicted
// by a later insert to the same set.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(2048, 2, PreferDurable) // 32 lines
		for _, a := range addrs {
			addr := uint64(a) * LineSize
			c.Insert(mkLine(addr, a%2 == 0, uint64(a)), uint64(a/2))
			if c.Peek(addr) == nil {
				return false // just-inserted line must be present
			}
		}
		if c.Len() > 32 {
			return false
		}
		seen := map[uint64]bool{}
		dup := false
		for i := range c.slots {
			if c.slots[i].valid {
				if seen[c.slots[i].line.Addr] {
					dup = true
				}
				seen[c.slots[i].line.Addr] = true
			}
		}
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if PreferDurable.String() != "prefer-durable" || PlainLRU.String() != "plain-lru" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("fallback name wrong")
	}
}
