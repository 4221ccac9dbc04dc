// Package vpm provides the process-side view of a PAX device's exposed
// memory: a bounds-checked window over the host address space whose accesses
// flow through the simulated cache hierarchy to the device (§3.1 of the
// paper: "a process maps a physical address range exposed by a cache-coherent
// persistence accelerator into its address space").
package vpm

import (
	"fmt"

	"pax/internal/memory"
	"pax/internal/sim"
)

// Region is one mapped vPM window. It implements memory.Memory. A Region is
// bound to one hardware thread's view (a cache.Core); use Pool.Region per
// simulated thread.
type Region struct {
	mem        memory.Memory
	base, size uint64
}

// New maps [base, base+size) of mem as a vPM region.
func New(mem memory.Memory, base, size uint64) *Region {
	if size == 0 {
		panic("vpm: empty region")
	}
	return &Region{mem: mem, base: base, size: size}
}

func (r *Region) check(addr uint64, n int) {
	if addr < r.base || addr+uint64(n) > r.base+r.size || addr+uint64(n) < addr {
		panic(fmt.Sprintf("vpm: access [%#x,+%d) outside region [%#x,+%d)", addr, n, r.base, r.size))
	}
}

// Load implements memory.Memory with bounds checking.
func (r *Region) Load(addr uint64, buf []byte) sim.Time {
	r.check(addr, len(buf))
	return r.mem.Load(addr, buf)
}

// Store implements memory.Memory with bounds checking.
func (r *Region) Store(addr uint64, data []byte) sim.Time {
	r.check(addr, len(data))
	return r.mem.Store(addr, data)
}

// LoadU64 implements memory.Memory with bounds checking.
func (r *Region) LoadU64(addr uint64) uint64 {
	r.check(addr, 8)
	return r.mem.LoadU64(addr)
}

// StoreU64 implements memory.Memory with bounds checking.
func (r *Region) StoreU64(addr, v uint64) {
	r.check(addr, 8)
	r.mem.StoreU64(addr, v)
}

// LoadU32 implements memory.Memory with bounds checking.
func (r *Region) LoadU32(addr uint64) uint32 {
	r.check(addr, 4)
	return r.mem.LoadU32(addr)
}

// StoreU32 implements memory.Memory with bounds checking.
func (r *Region) StoreU32(addr uint64, v uint32) {
	r.check(addr, 4)
	r.mem.StoreU32(addr, v)
}
