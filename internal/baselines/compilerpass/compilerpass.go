// Package compilerpass implements the compiler-instrumented WAL baseline
// (Atlas, iDO): a Memory wrapper that behaves like a compiler pass which
// injects undo logging around *every* store to persistent memory. Unlike the
// hand-crafted PMDK baseline it cannot deduplicate pre-images within an
// operation or batch fences — the pass has no structural knowledge — so each
// store pays a log append plus fence.
//
// The `stalls` experiment compares its per-op fence count against PMDK's and
// against PAX (which stalls only at persist()).
package compilerpass

import (
	"fmt"

	"pax/internal/baselines/wal"
	"pax/internal/memory"
	"pax/internal/sim"
)

// Instrumented wraps a persistent Memory the way a crash-consistency
// compiler pass transforms code: every Store is preceded by a durable undo
// record of the bytes it overwrites.
type Instrumented struct {
	mem memory.Memory
	per memory.Persister
	log *wal.Log

	inOp bool
}

// New builds an instrumented memory over mem (which must implement
// memory.Persister) with its undo log in [logBase, logBase+logSize).
func New(mem memory.Memory, logBase, logSize uint64) *Instrumented {
	per, ok := mem.(memory.Persister)
	if !ok {
		panic("compilerpass: memory must implement Persister")
	}
	return &Instrumented{mem: mem, per: per, log: wal.Create(mem, logBase, logSize)}
}

// Log exposes the undo log.
func (in *Instrumented) Log() *wal.Log { return in.log }

// BeginOp marks a failure-atomic region boundary (the pass instruments
// outermost function entry; Atlas uses lock acquisition).
func (in *Instrumented) BeginOp() {
	if in.inOp {
		panic("compilerpass: nested op")
	}
	in.log.Begin()
	in.inOp = true
}

// EndOp closes the region: flush pending data (the pass conservatively
// fences) and durably drop the undo records.
func (in *Instrumented) EndOp() sim.Time {
	if !in.inOp {
		panic("compilerpass: EndOp outside op")
	}
	in.per.Fence()
	done := in.log.Commit()
	in.inOp = false
	return done
}

// Load implements memory.Memory; loads are not instrumented.
func (in *Instrumented) Load(addr uint64, buf []byte) sim.Time {
	return in.mem.Load(addr, buf)
}

// Store implements memory.Memory: log the exact overwritten bytes, fence,
// then store, then flush the store (the conservative ordering an automatic
// pass emits: it cannot prove batching safe).
func (in *Instrumented) Store(addr uint64, data []byte) sim.Time {
	if !in.inOp {
		panic(fmt.Sprintf("compilerpass: store to %#x outside op", addr))
	}
	old := make([]byte, len(data))
	in.mem.Load(addr, old)
	in.log.Append(addr, old) // flush + fence inside
	done := in.mem.Store(addr, data)
	in.per.FlushLines(addr, len(data))
	return done
}

// LoadU64, StoreU64, LoadU32 and StoreU32 implement memory.Memory as Load
// and Store of the word's bytes.
func (in *Instrumented) LoadU64(addr uint64) uint64 { return memory.LoadU64(in, addr) }

func (in *Instrumented) StoreU64(addr, v uint64) { memory.StoreU64(in, addr, v) }

func (in *Instrumented) LoadU32(addr uint64) uint32 { return memory.LoadU32(in, addr) }

func (in *Instrumented) StoreU32(addr uint64, v uint32) { memory.StoreU32(in, addr, v) }
