// Package memory defines the load/store contract every data structure in
// this repository is written against, plus the plain (non-accelerated)
// backing implementations: a flat model memory and a memory-controller home
// that places a pmem.Device (DRAM- or Optane-configured) behind the host
// cache hierarchy.
//
// The Memory interface is the Go equivalent of the paper's interposition
// boundary: in the authors' Pin prototype, dynamic binary translation
// rewrites loads and stores targeting the vPM region into calls that drive a
// simulated cache and CXL link. Here the rewrite happens at the source level —
// structures perform every access through Memory, so the same unmodified
// structure code runs over DRAM, direct PM, PAX vPM, or any logging wrapper.
//
// The seam is word-granular, as Pin's is: besides byte-range Load and Store,
// Memory has 4- and 8-byte word accessors, which a structure's field reads
// and writes use. A word access is the same event, at the same cost, as a
// Load or Store of the word's little-endian bytes; the simulated cache core
// serves it on the line in place, without a buffer that would escape through
// the interface. Memories that have no cheaper word path (Flat, the
// baselines) forward to their own Load and Store through LoadU64 and its
// siblings here.
package memory

import (
	"encoding/binary"
	"fmt"

	"pax/internal/coherence"
	"pax/internal/pmem"
	"pax/internal/sim"
)

// Memory is a byte-addressable address space. Implementations advance their
// own notion of simulated time and return the access completion time;
// functional-only callers ignore it.
type Memory interface {
	Load(addr uint64, buf []byte) sim.Time
	Store(addr uint64, data []byte) sim.Time

	// LoadU64, StoreU64, LoadU32 and StoreU32 access one little-endian
	// word at addr, which need not be aligned: the same simulated events
	// and costs as Load or Store of its bytes. They report no time; a
	// caller that needs it reads the memory's clock.
	LoadU64(addr uint64) uint64
	StoreU64(addr, v uint64)
	LoadU32(addr uint64) uint32
	StoreU32(addr uint64, v uint32)
}

// LoadU64 is the word accessor of a memory with no word path of its own:
// a Load of the word's eight bytes.
func LoadU64(m Memory, addr uint64) uint64 {
	var b [8]byte
	m.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// StoreU64 stores v at addr as a Store of its eight little-endian bytes.
func StoreU64(m Memory, addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Store(addr, b[:])
}

// LoadU32 is LoadU64 for a 4-byte word.
func LoadU32(m Memory, addr uint64) uint32 {
	var b [4]byte
	m.Load(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// StoreU32 is StoreU64 for a 4-byte word.
func StoreU32(m Memory, addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Store(addr, b[:])
}

// Persister is implemented by memories that support explicit persistence
// primitives (CLWB/SFENCE); the WAL baselines require it.
type Persister interface {
	FlushLines(addr uint64, n int) sim.Time
	Fence() sim.Time
}

// Allocator hands out addresses within a Memory. Structures receive one at
// construction, which is the "custom allocator" hook the paper leans on for
// black-box reuse (§3.1).
type Allocator interface {
	Alloc(size uint64) (uint64, error)
	Free(addr, size uint64) error
	Mem() Memory
}

// Flat is a plain in-process byte array with zero access latency. It is the
// reference model for differential tests and the fastest functional backend.
type Flat struct {
	buf []byte
}

// NewFlat returns a zeroed flat memory of the given size.
func NewFlat(size int) *Flat { return &Flat{buf: make([]byte, size)} }

func (f *Flat) check(addr uint64, n int) {
	if addr > uint64(len(f.buf)) || uint64(n) > uint64(len(f.buf))-addr {
		panic(fmt.Sprintf("memory: flat access [%d,+%d) outside %d bytes", addr, n, len(f.buf)))
	}
}

// Load copies bytes out of the flat array.
func (f *Flat) Load(addr uint64, buf []byte) sim.Time {
	f.check(addr, len(buf))
	copy(buf, f.buf[addr:])
	return 0
}

// Store copies bytes into the flat array.
func (f *Flat) Store(addr uint64, data []byte) sim.Time {
	f.check(addr, len(data))
	copy(f.buf[addr:], data)
	return 0
}

// LoadU64 implements Memory.
func (f *Flat) LoadU64(addr uint64) uint64 { return LoadU64(f, addr) }

// StoreU64 implements Memory.
func (f *Flat) StoreU64(addr, v uint64) { StoreU64(f, addr, v) }

// LoadU32 implements Memory.
func (f *Flat) LoadU32(addr uint64) uint32 { return LoadU32(f, addr) }

// StoreU32 implements Memory.
func (f *Flat) StoreU32(addr uint64, v uint32) { StoreU32(f, addr, v) }

// Size reports the array length.
func (f *Flat) Size() int { return len(f.buf) }

// Bytes exposes the underlying array for test comparisons.
func (f *Flat) Bytes() []byte { return f.buf }

// ControllerHome is the coherence.Home for a CPU-attached memory range
// (DRAM or PM DIMMs behind the host memory controller). Unlike the PAX
// device it has no interposition role: reads are granted Exclusive (the LLC
// directory arbitrates intra-host sharing), upgrades are free, write-backs
// land directly on the media.
type ControllerHome struct {
	dev      *pmem.Device
	hostBase uint64
	devBase  uint64
	size     uint64
}

// NewControllerHome maps [hostBase, hostBase+size) of the host address space
// onto [devBase, devBase+size) of dev.
func NewControllerHome(dev *pmem.Device, hostBase, devBase, size uint64) *ControllerHome {
	if hostBase%coherence.LineSize != 0 || devBase%coherence.LineSize != 0 || size%coherence.LineSize != 0 {
		panic("memory: controller range must be line-aligned")
	}
	return &ControllerHome{dev: dev, hostBase: hostBase, devBase: devBase, size: size}
}

func (c *ControllerHome) translate(hostAddr uint64) uint64 {
	if hostAddr < c.hostBase || hostAddr >= c.hostBase+c.size {
		panic(fmt.Sprintf("memory: address %#x outside controller range [%#x,+%#x)", hostAddr, c.hostBase, c.size))
	}
	return hostAddr - c.hostBase + c.devBase
}

// FetchLine implements coherence.Home.
func (c *ControllerHome) FetchLine(addr uint64, excl bool, buf []byte, at sim.Time) coherence.FillResult {
	done := c.dev.Read(c.translate(addr), buf, at)
	return coherence.FillResult{State: coherence.Exclusive, Done: done}
}

// UpgradeLine implements coherence.Home; ownership upgrades are resolved by
// the on-chip directory at no extra cost.
func (c *ControllerHome) UpgradeLine(addr uint64, at sim.Time) sim.Time { return at }

// WriteBackLine implements coherence.Home.
func (c *ControllerHome) WriteBackLine(addr uint64, data []byte, at sim.Time) sim.Time {
	return c.dev.Write(c.translate(addr), data, at)
}

// Bump is the simplest Allocator: a monotone pointer over a Memory window.
// It backs volatile experiments and tests; the recoverable pool allocator
// lives in package alloc.
type Bump struct {
	mem       Memory
	next, end uint64
}

// NewBump allocates from [base, base+size) of mem.
func NewBump(mem Memory, base, size uint64) *Bump {
	return &Bump{mem: mem, next: base, end: base + size}
}

// Alloc returns a 16-byte-aligned block of the given size.
func (b *Bump) Alloc(size uint64) (uint64, error) {
	const align = 16
	start := (b.next + align - 1) &^ uint64(align-1)
	if size > b.end || start > b.end-size {
		return 0, fmt.Errorf("memory: bump allocator exhausted (%d of %d bytes used)", b.next, b.end)
	}
	b.next = start + size
	return start, nil
}

// Free is a no-op; bump allocators never reclaim.
func (b *Bump) Free(addr, size uint64) error { return nil }

// Mem returns the backing memory.
func (b *Bump) Mem() Memory { return b.mem }

// Used reports bytes consumed so far.
func (b *Bump) Used() uint64 { return b.next }
