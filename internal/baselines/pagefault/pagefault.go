// Package pagefault implements the page-protection change-tracking baseline
// (NVthreads, libpm, Kelly's "conventional hardware" approach): persistent
// pages are mapped read-only at the start of each epoch; the first store to
// a page takes a write-protection trap (>1 µs on modern x86, §1), undo-logs
// the entire 4 KiB page, and remaps it writable. Subsequent stores to the
// page are free until the next epoch.
//
// The paper's two criticisms are both measurable here: the trap cost per
// first touch (`traps` experiment) and the 4 KiB-granularity write
// amplification against PAX's 64 B cache-line logging (`wamp` experiment).
package pagefault

import (
	"pax/internal/baselines/wal"
	"pax/internal/memory"
	"pax/internal/sim"
	"pax/internal/stats"
)

// PageSize is the protection granularity.
const PageSize = sim.PageSize

// staller lets the tracker charge trap time to the accessing context's
// clock; cache.Core implements it.
type staller interface {
	Stall(d sim.Time) sim.Time
}

// Tracker wraps a persistent Memory with page-granular dirty tracking and
// epoch snapshots. It implements memory.Memory.
type Tracker struct {
	mem memory.Memory
	per memory.Persister
	log *wal.Log

	// writable holds pages already faulted (and logged) this epoch.
	writable map[uint64]struct{}

	// Traps counts write-protection faults taken, one per page logged; the
	// log's own counters hold the logged records and bytes.
	Traps stats.Counter
}

// New builds a tracker over mem (which must implement memory.Persister)
// with its page undo log in [logBase, logBase+logSize). The log must hold
// the epoch's page working set: size it at PageSize+64 bytes per dirty page.
func New(mem memory.Memory, logBase, logSize uint64) *Tracker {
	per, ok := mem.(memory.Persister)
	if !ok {
		panic("pagefault: memory must implement Persister")
	}
	return &Tracker{
		mem:      mem,
		per:      per,
		log:      wal.Create(mem, logBase, logSize),
		writable: make(map[uint64]struct{}),
	}
}

// Log exposes the undo log.
func (t *Tracker) Log() *wal.Log { return t.log }

// Load implements memory.Memory; loads never fault (pages are readable).
func (t *Tracker) Load(addr uint64, buf []byte) sim.Time {
	return t.mem.Load(addr, buf)
}

// Store implements memory.Memory. The first store to each page per epoch
// traps: the kernel round trip, an mprotect to remap the page writable, and
// an undo log append of the full page.
func (t *Tracker) Store(addr uint64, data []byte) sim.Time {
	first := addr &^ uint64(PageSize-1)
	last := (addr + uint64(len(data)) - 1) &^ uint64(PageSize-1)
	for page := first; page <= last; page += PageSize {
		if _, ok := t.writable[page]; ok {
			continue
		}
		// Write-protection trap: kernel entry, page undo logging, mprotect.
		if s, ok := t.mem.(staller); ok {
			s.Stall(sim.PageFaultTrap + sim.SyscallCost)
		}
		t.Traps.Inc()
		old := make([]byte, PageSize)
		t.mem.Load(page, old)
		t.log.Append(page, old)
		t.writable[page] = struct{}{}
	}
	return t.mem.Store(addr, data)
}

// LoadU64, StoreU64, LoadU32 and StoreU32 implement memory.Memory as Load
// and Store of the word's bytes.
func (t *Tracker) LoadU64(addr uint64) uint64 { return memory.LoadU64(t, addr) }

func (t *Tracker) StoreU64(addr, v uint64) { memory.StoreU64(t, addr, v) }

func (t *Tracker) LoadU32(addr uint64) uint32 { return memory.LoadU32(t, addr) }

func (t *Tracker) StoreU32(addr uint64, v uint32) { memory.StoreU32(t, addr, v) }

// Persist ends the epoch: flush every dirty page's data, fence, durably
// drop the undo log, and re-protect all pages for the next epoch. It returns
// the completion time and the number of pages that were dirty.
func (t *Tracker) Persist() (sim.Time, int) {
	for page := range t.writable {
		t.per.FlushLines(page, PageSize)
	}
	t.per.Fence()
	done := t.log.Commit()
	n := len(t.writable)
	// mprotect back to read-only (one ranged call, charged once).
	if s, ok := t.mem.(staller); ok {
		s.Stall(sim.SyscallCost)
	}
	t.writable = make(map[uint64]struct{})
	return done, n
}
