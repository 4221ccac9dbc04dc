package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"pax/internal/memory"
)

func testArena(t *testing.T, size int) *Arena {
	t.Helper()
	mem := memory.NewFlat(size)
	return Create(mem, 0, uint64(size))
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		size uint64
		want int
	}{{1, 0}, {16, 0}, {17, 1}, {32, 1}, {64, 2}, {4096, 8}, {4097, -1}}
	for _, c := range cases {
		if got := classFor(c.size); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if classSize(0) != 16 || classSize(8) != 4096 {
		t.Fatal("classSize wrong")
	}
}

func TestAllocAlignmentAndDistinctness(t *testing.T) {
	a := testArena(t, 1<<20)
	seen := map[uint64]bool{}
	sizes := []uint64{1, 8, 16, 24, 100, 4096, 5000, 100000}
	for _, size := range sizes {
		addr, err := a.Alloc(size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		if addr%16 != 0 {
			t.Fatalf("Alloc(%d) = %#x not 16-aligned", size, addr)
		}
		if seen[addr] {
			t.Fatalf("address %#x returned twice", addr)
		}
		seen[addr] = true
	}
	if len(seen) != len(sizes) {
		t.Fatalf("%d distinct blocks from %d allocations", len(seen), len(sizes))
	}
}

func TestFreeRecyclesSmall(t *testing.T) {
	a := testArena(t, 1<<20)
	addr, _ := a.Alloc(64)
	brk := a.Brk()
	if err := a.Free(addr, 64); err != nil {
		t.Fatal(err)
	}
	addr2, _ := a.Alloc(64)
	if addr2 != addr {
		t.Fatalf("free block not recycled: %#x vs %#x", addr2, addr)
	}
	if a.Brk() != brk {
		t.Fatal("recycling moved brk")
	}
}

func TestFreeRecyclesLargeWithSplit(t *testing.T) {
	a := testArena(t, 1<<20)
	addr, _ := a.Alloc(32768) // 8 pages
	a.Free(addr, 32768)
	// Allocate two pages: first fit should split the 8-page block.
	p1, _ := a.Alloc(8192)
	if p1 != addr {
		t.Fatalf("first fit returned %#x, want %#x", p1, addr)
	}
	p2, _ := a.Alloc(8192)
	if p2 != addr+8192 {
		t.Fatalf("split remainder not reused: %#x", p2)
	}
	large := 0
	for cur := a.mem.LoadU64(a.base + offLarge); cur != 0; cur = a.mem.LoadU64(cur) {
		large++
	}
	if large != 1 {
		t.Fatalf("large list has %d blocks, want 1 (remainder)", large)
	}
}

func TestOutOfMemory(t *testing.T) {
	a := testArena(t, headerSize+8192)
	if _, err := a.Alloc(1 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
	// Small allocations still succeed until space runs out.
	n := 0
	for {
		if _, err := a.Alloc(4096); err != nil {
			break
		}
		n++
	}
	if n == 0 || n > 2 {
		t.Fatalf("allocated %d pages from 8 KiB heap", n)
	}
}

func TestZeroSizeAndBadFree(t *testing.T) {
	a := testArena(t, 1<<16)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
	if err := a.Free(1<<40, 64); err == nil {
		t.Fatal("out-of-arena free accepted")
	}
}

func TestOpenValidates(t *testing.T) {
	mem := memory.NewFlat(1 << 16)
	Create(mem, 0, 1<<16)
	if _, err := Open(mem, 0, 1<<16); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(mem, 0, 1<<15); err == nil {
		t.Fatal("size mismatch accepted")
	}
	mem.Store(0, []byte{0xFF})
	if _, err := Open(mem, 0, 1<<16); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

func TestOpenPreservesState(t *testing.T) {
	mem := memory.NewFlat(1 << 18)
	a := Create(mem, 0, 1<<18)
	addr1, _ := a.Alloc(64)
	a.Free(addr1, 64)
	brk := a.Brk()

	// Reattach: free lists and brk must survive because they live in the
	// managed memory itself.
	a2, err := Open(mem, 0, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Brk() != brk {
		t.Fatal("brk lost on reopen")
	}
	got, _ := a2.Alloc(64)
	if got != addr1 {
		t.Fatal("free list lost on reopen")
	}
}

func TestBaseOffsetArena(t *testing.T) {
	mem := memory.NewFlat(1 << 18)
	a := Create(mem, 4096, 1<<17)
	addr, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if addr < 4096+headerSize || addr >= 4096+(1<<17) {
		t.Fatalf("allocation %#x outside offset arena", addr)
	}
}

// Property: alloc/free sequences never hand out overlapping live blocks and
// never exceed the arena.
func TestNoOverlapProperty(t *testing.T) {
	type block struct{ addr, size uint64 }
	f := func(ops []uint16) bool {
		a := testArena(t, 1<<20)
		var live []block
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				b := live[0]
				live = live[1:]
				if a.Free(b.addr, b.size) != nil {
					return false
				}
				continue
			}
			size := uint64(op%5000) + 1
			addr, err := a.Alloc(size)
			if err != nil {
				continue // exhaustion is fine
			}
			if addr+size > 1<<20 {
				return false
			}
			for _, b := range live {
				if addr < b.addr+b.size && b.addr < addr+size {
					return false // overlap with a live block
				}
			}
			live = append(live, block{addr, size})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
