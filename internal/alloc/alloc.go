// Package alloc implements the pool allocator that libpax wraps around a
// mapped vPM region (§3.1 "PAX Allocator Setup").
//
// Every byte of allocator state — the bump frontier and the free lists —
// lives inside the managed region and is accessed exclusively through the
// region's Memory. That is the load-bearing design point: because the
// allocator's metadata is just more data in vPM, PAX's snapshotting makes
// allocation state crash-consistent for free, and recovery needs no separate
// allocator repair step (§3.4 "it recovers the pool's allocator state" falls
// out of rolling the region back to the last snapshot). The same code also
// runs over plain DRAM for the volatile baselines.
package alloc

import (
	"errors"
	"fmt"

	"pax/internal/memory"
)

const (
	arenaMagic   = 0x5041584152454e41 // "PAXARENA"
	arenaVersion = 1

	// numClasses size classes: 16, 32, 64, ..., 4096.
	numClasses = 9
	minClass   = 16
	maxClass   = 4096
	pageRound  = 4096

	// Header layout (absolute offsets from arena base).
	offMagic   = 0
	offVersion = 8
	offSize    = 16
	offBrk     = 24
	offLarge   = 32 // head of the large-block free list
	offClasses = 40 // numClasses * 8 bytes of list heads
	headerSize = offClasses + numClasses*8

	// heapAlign is the minimum block alignment.
	heapAlign = 16
)

// ErrOutOfMemory is returned when the arena cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("alloc: arena exhausted")

// Arena is a crash-consistent allocator over a Memory window. It is not safe
// for concurrent use; callers serialize (matching §3.5's contract that
// structure code provides its own thread safety).
type Arena struct {
	mem  memory.Memory
	base uint64
	size uint64
}

// classFor returns the class index for a small size, or -1 for large sizes.
func classFor(size uint64) int {
	if size > maxClass {
		return -1
	}
	c := 0
	for s := uint64(minClass); s < size; s <<= 1 {
		c++
	}
	return c
}

// classSize returns the block size of class c.
func classSize(c int) uint64 { return minClass << uint(c) }

func roundUp(v, to uint64) uint64 { return (v + to - 1) / to * to }

// Create formats a fresh arena in [base, base+size) of mem. The usable heap
// begins after the header.
func Create(mem memory.Memory, base, size uint64) *Arena {
	if size < headerSize+maxClass {
		panic(fmt.Sprintf("alloc: arena of %d bytes too small", size))
	}
	a := &Arena{mem: mem, base: base, size: size}
	a.mem.StoreU64(base+offMagic, arenaMagic)
	a.mem.StoreU64(base+offVersion, arenaVersion)
	a.mem.StoreU64(base+offSize, size)
	a.mem.StoreU64(base+offBrk, roundUp(base+headerSize, heapAlign))
	a.mem.StoreU64(base+offLarge, 0)
	for c := 0; c < numClasses; c++ {
		a.mem.StoreU64(base+offClasses+uint64(c)*8, 0)
	}
	return a
}

// Open attaches to an existing arena, validating its header. Open performs
// no repair: after a crash the region's contents were already rolled back to
// the last consistent snapshot by the pool's recovery.
func Open(mem memory.Memory, base, size uint64) (*Arena, error) {
	a := &Arena{mem: mem, base: base, size: size}
	if got := a.mem.LoadU64(base + offMagic); got != arenaMagic {
		return nil, fmt.Errorf("alloc: bad arena magic %#x", got)
	}
	if got := a.mem.LoadU64(base + offVersion); got != arenaVersion {
		return nil, fmt.Errorf("alloc: unsupported arena version %d", got)
	}
	if got := a.mem.LoadU64(base + offSize); got != size {
		return nil, fmt.Errorf("alloc: arena size %d, expected %d", got, size)
	}
	brk := a.mem.LoadU64(base + offBrk)
	if brk < base+headerSize || brk > base+size {
		return nil, fmt.Errorf("alloc: brk %#x outside arena", brk)
	}
	return a, nil
}

// Mem implements memory.Allocator.
func (a *Arena) Mem() memory.Memory { return a.mem }

// HeapStart reports the first usable heap address (after the header); pools
// place their root table here via a fixed-size initial allocation.
func (a *Arena) HeapStart() uint64 { return roundUp(a.base+headerSize, heapAlign) }

// carve advances brk by n bytes, returning the old frontier.
func (a *Arena) carve(n uint64) (uint64, error) {
	brk := a.mem.LoadU64(a.base + offBrk)
	if brk+n > a.base+a.size || brk+n < brk {
		return 0, fmt.Errorf("%w: need %d bytes, %d remain", ErrOutOfMemory, n, a.base+a.size-brk)
	}
	a.mem.StoreU64(a.base+offBrk, brk+n)
	return brk, nil
}

// Alloc returns a block of at least size bytes, 16-byte aligned. Small sizes
// come from per-class free lists, large sizes from a first-fit list of
// page-rounded blocks; both fall back to carving fresh space.
func (a *Arena) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, errors.New("alloc: zero-size allocation")
	}
	if c := classFor(size); c >= 0 {
		headAddr := a.base + offClasses + uint64(c)*8
		if head := a.mem.LoadU64(headAddr); head != 0 {
			next := a.mem.LoadU64(head) // free block stores next pointer inline
			a.mem.StoreU64(headAddr, next)
			return head, nil
		}
		return a.carve(classSize(c))
	}

	// Large allocation: first fit over the large list.
	need := roundUp(size, pageRound)
	prevAddr := a.base + offLarge
	cur := a.mem.LoadU64(prevAddr)
	for cur != 0 {
		curNext := a.mem.LoadU64(cur)
		curSize := a.mem.LoadU64(cur + 8)
		if curSize >= need {
			if rem := curSize - need; rem >= pageRound {
				// Split: the remainder stays on the list in place.
				remAddr := cur + need
				a.mem.StoreU64(remAddr, curNext)
				a.mem.StoreU64(remAddr+8, rem)
				a.mem.StoreU64(prevAddr, remAddr)
			} else {
				a.mem.StoreU64(prevAddr, curNext)
			}
			return cur, nil
		}
		prevAddr = cur
		cur = curNext
	}
	return a.carve(need)
}

// Free returns a block obtained from Alloc with the same size. Small blocks
// push onto their class list; large blocks onto the large list. Free never
// touches user data beyond the block's first 16 bytes.
func (a *Arena) Free(addr, size uint64) error {
	if addr < a.base+headerSize || addr >= a.base+a.size {
		return fmt.Errorf("alloc: free of %#x outside arena heap", addr)
	}
	if c := classFor(size); c >= 0 {
		headAddr := a.base + offClasses + uint64(c)*8
		a.mem.StoreU64(addr, a.mem.LoadU64(headAddr))
		a.mem.StoreU64(headAddr, addr)
		return nil
	}
	need := roundUp(size, pageRound)
	headAddr := a.base + offLarge
	a.mem.StoreU64(addr, a.mem.LoadU64(headAddr))
	a.mem.StoreU64(addr+8, need)
	a.mem.StoreU64(headAddr, addr)
	return nil
}

// Brk reports the current bump frontier (diagnostics and capacity tests).
func (a *Arena) Brk() uint64 { return a.mem.LoadU64(a.base + offBrk) }
