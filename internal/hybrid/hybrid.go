// Package hybrid implements the §5.1 "Combining with Paging" design the
// paper sketches: PM pages are mapped read-only through a *direct* (memory-
// controller) mapping, so reads of clean pages never pay the accelerator
// interposition; the first store to a page takes a write-protection fault,
// the page's lines are shot down from the direct mapping, and the page is
// remapped through vPM addresses where the PAX device tracks changes at
// cache-line granularity.
//
// The result combines paging's cheap reads (spatial locality, no device on
// the read path) with PAX's 64-byte logging granularity on the write path —
// the combination §5.1 predicts "may work best" for some workloads. Pages
// transition direct→vPM on first write; ResetProtections re-protects all
// pages at each persist() boundary, completing the per-epoch tracking model.
package hybrid

import (
	"fmt"

	"pax/internal/cache"
	"pax/internal/coherence"
	"pax/internal/memory"
	"pax/internal/sim"
	"pax/internal/stats"
)

// PageSize is the remapping granularity.
const PageSize = sim.PageSize

// staller is implemented by cache.Core: it charges software overhead (the
// write fault, the remap syscall) to the accessing context.
type staller interface {
	Stall(d sim.Time) sim.Time
}

// Memory routes accesses between a direct (controller-homed) mapping and a
// vPM (device-homed) mapping of the same media region. It implements
// memory.Memory; addresses are region-relative offsets [0, size).
type Memory struct {
	direct     memory.Memory
	vpm        memory.Memory
	hier       *cache.Hierarchy
	directBase uint64
	vpmBase    uint64
	size       uint64

	// written marks pages that have transitioned to the vPM mapping.
	written map[uint64]struct{}

	// Faults counts direct→vPM page transitions; DirectLoads and VPMLoads
	// classify read traffic (the experiment's key ratio).
	Faults      stats.Counter
	DirectLoads stats.Counter
	VPMLoads    stats.Counter
}

// New builds a hybrid mapping. direct and vpm must be views of the SAME
// media region through the given hierarchy, based at directBase and vpmBase
// respectively; size is the region length.
func New(direct, vpm memory.Memory, hier *cache.Hierarchy, directBase, vpmBase, size uint64) *Memory {
	if size == 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("hybrid: size %d not page-aligned", size))
	}
	return &Memory{
		direct:     direct,
		vpm:        vpm,
		hier:       hier,
		directBase: directBase,
		vpmBase:    vpmBase,
		size:       size,
		written:    make(map[uint64]struct{}),
	}
}

func (m *Memory) check(off uint64, n int) {
	if off+uint64(n) > m.size || off+uint64(n) < off {
		panic(fmt.Sprintf("hybrid: access [%d,+%d) outside region of %d", off, n, m.size))
	}
}

func (m *Memory) pageOf(off uint64) uint64 { return off &^ uint64(PageSize-1) }

func (m *Memory) isWritten(page uint64) bool {
	_, ok := m.written[page]
	return ok
}

// fault transitions a page to the vPM mapping: charge the trap and remap
// syscall, and invalidate every cached line of the page's DIRECT addresses
// (the TLB-shootdown + cache-invalidation a real remap performs; without it
// a reader could hit a stale direct-mapped copy after vPM writes).
func (m *Memory) fault(page uint64) {
	if s, ok := m.direct.(staller); ok {
		s.Stall(sim.PageFaultTrap + sim.SyscallCost)
	}
	for la := page; la < page+PageSize; la += coherence.LineSize {
		m.hier.SnoopLine(m.directBase+la, coherence.SnpInv, 0)
	}
	m.written[page] = struct{}{}
	m.Faults.Inc()
}

// Load implements memory.Memory: clean pages are read through the direct
// mapping (no device interposition); written pages through vPM.
func (m *Memory) Load(off uint64, buf []byte) sim.Time {
	m.check(off, len(buf))
	// Split at page boundaries so each page uses its own mapping.
	var done sim.Time
	for len(buf) > 0 {
		page := m.pageOf(off)
		n := int(page + PageSize - off)
		if n > len(buf) {
			n = len(buf)
		}
		if m.isWritten(page) {
			m.VPMLoads.Inc()
			done = m.vpm.Load(m.vpmBase+off, buf[:n])
		} else {
			m.DirectLoads.Inc()
			done = m.direct.Load(m.directBase+off, buf[:n])
		}
		off += uint64(n)
		buf = buf[n:]
	}
	return done
}

// Store implements memory.Memory: the first store to each page faults it
// over to the vPM mapping; all stores go through vPM.
func (m *Memory) Store(off uint64, data []byte) sim.Time {
	m.check(off, len(data))
	var done sim.Time
	for len(data) > 0 {
		page := m.pageOf(off)
		n := int(page + PageSize - off)
		if n > len(data) {
			n = len(data)
		}
		if !m.isWritten(page) {
			m.fault(page)
		}
		done = m.vpm.Store(m.vpmBase+off, data[:n])
		off += uint64(n)
		data = data[n:]
	}
	return done
}

// LoadU64, StoreU64, LoadU32 and StoreU32 implement memory.Memory as Load
// and Store of the word's bytes.
func (m *Memory) LoadU64(addr uint64) uint64 { return memory.LoadU64(m, addr) }

func (m *Memory) StoreU64(addr, v uint64) { memory.StoreU64(m, addr, v) }

func (m *Memory) LoadU32(addr uint64) uint32 { return memory.LoadU32(m, addr) }

func (m *Memory) StoreU32(addr uint64, v uint32) { memory.StoreU32(m, addr, v) }

// ResetProtections reverts every page to the direct (read-only) mapping —
// the per-epoch re-protection step of the paging model. It must only be
// called at a persist() boundary: after persist, all host copies are clean
// and media is current, so reads through direct addresses are coherent. The
// one ranged mprotect is charged to the provided staller if non-nil.
func (m *Memory) ResetProtections() {
	if s, ok := m.direct.(staller); ok {
		s.Stall(sim.SyscallCost)
	}
	// Drop vPM-cached copies so post-reset reads do not keep hitting the
	// vPM addresses from host caches while the routing says "direct" (the
	// remap invalidates those TLB entries and cached lines).
	for page := range m.written {
		for la := page; la < page+PageSize; la += coherence.LineSize {
			m.hier.SnoopLine(m.vpmBase+la, coherence.SnpInv, 0)
		}
	}
	m.written = make(map[uint64]struct{})
}

// DirectReadFraction reports the share of loads served by the direct
// mapping — the benefit §5.1 predicts for read-heavy workloads.
func (m *Memory) DirectReadFraction() float64 {
	total := m.DirectLoads.Load() + m.VPMLoads.Load()
	if total == 0 {
		return 0
	}
	return float64(m.DirectLoads.Load()) / float64(total)
}
