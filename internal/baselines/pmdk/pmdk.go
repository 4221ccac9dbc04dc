// Package pmdk implements the hand-crafted WAL baseline: a transactional
// memory in the style of Intel PMDK's libpmemobj, where each structure
// operation runs as an undo-logged transaction. Pre-images are logged once
// per 8-byte-aligned chunk per transaction (the hand-tuned granularity an
// expert would declare with pmemobj_tx_add_range), each first-touch log
// append is fenced before the guarded store proceeds, and commit flushes the
// data stores and durably closes the transaction.
//
// This reproduces the cost structure Figure 2b's "PMDK" series measures:
// synchronous log writes and multiple SFENCE stalls per operation.
package pmdk

import (
	"fmt"

	"pax/internal/baselines/wal"
	"pax/internal/memory"
	"pax/internal/sim"
)

const chunk = 8 // logging granularity: 8-byte aligned chunks

// TxMemory wraps a persistent Memory with per-transaction undo logging. It
// implements memory.Memory so unmodified structures run over it; every Store
// inside a transaction is interposed on, exactly like PMDK macros expand to.
type TxMemory struct {
	mem  memory.Memory
	per  memory.Persister
	log  *wal.Log
	inTx bool
	// logged tracks 8-byte chunks already logged this transaction.
	logged map[uint64]struct{}
	// pending are the chunks stored this transaction, flushed at commit.
	pending []pendingSpan
}

type pendingSpan struct {
	addr uint64
	n    int
}

// New builds a transactional memory over mem (which must implement
// memory.Persister) with an undo log in [logBase, logBase+logSize).
func New(mem memory.Memory, logBase, logSize uint64) *TxMemory {
	per, ok := mem.(memory.Persister)
	if !ok {
		panic("pmdk: memory must implement Persister")
	}
	return &TxMemory{
		mem:    mem,
		per:    per,
		log:    wal.Create(mem, logBase, logSize),
		logged: make(map[uint64]struct{}),
	}
}

// Log exposes the undo log (stats, recovery tests).
func (t *TxMemory) Log() *wal.Log { return t.log }

// Begin opens a transaction.
func (t *TxMemory) Begin() {
	if t.inTx {
		panic("pmdk: nested transaction")
	}
	t.log.Begin()
	t.inTx = true
}

// Commit flushes the transaction's data stores, fences, and durably closes
// the undo log. After Commit the mutations are failure-atomic.
func (t *TxMemory) Commit() sim.Time {
	if !t.inTx {
		panic("pmdk: commit outside transaction")
	}
	for _, s := range t.pending {
		t.per.FlushLines(s.addr, s.n)
	}
	t.per.Fence()
	done := t.log.Commit()
	t.inTx = false
	t.pending = t.pending[:0]
	// Replace rather than clear(): one huge transaction (e.g. snapshotting a
	// multi-megabyte range) would otherwise leave the map's bucket array
	// permanently large, making every later clear() an O(capacity) sweep.
	t.logged = make(map[uint64]struct{})
	return done
}

// Load implements memory.Memory.
func (t *TxMemory) Load(addr uint64, buf []byte) sim.Time {
	return t.mem.Load(addr, buf)
}

// Store implements memory.Memory: inside a transaction, the pre-image of
// every not-yet-logged 8-byte chunk is durably logged before the store.
func (t *TxMemory) Store(addr uint64, data []byte) sim.Time {
	if !t.inTx {
		panic(fmt.Sprintf("pmdk: store to %#x outside transaction", addr))
	}
	start := addr &^ uint64(chunk-1)
	end := (addr + uint64(len(data)) + chunk - 1) &^ uint64(chunk-1)
	var toLog []uint64
	for c := start; c < end; c += chunk {
		if _, ok := t.logged[c]; !ok {
			toLog = append(toLog, c)
			t.logged[c] = struct{}{}
		}
	}
	// Log pre-images for all new chunks, coalescing consecutive chunks into
	// one range record — exactly what pmemobj_tx_add_range does for a
	// contiguous snapshot. wal.Append fences each record, giving the
	// log→store ordering §2 describes.
	for i := 0; i < len(toLog); {
		j := i + 1
		for j < len(toLog) && toLog[j] == toLog[j-1]+chunk {
			j++
		}
		runStart, runLen := toLog[i], uint64(j-i)*chunk
		old := make([]byte, runLen)
		t.mem.Load(runStart, old)
		t.log.Append(runStart, old)
		i = j
	}
	done := t.mem.Store(addr, data)
	t.pending = append(t.pending, pendingSpan{addr: addr, n: len(data)})
	return done
}

// LoadU64, StoreU64, LoadU32 and StoreU32 implement memory.Memory as Load
// and Store of the word's bytes.
func (t *TxMemory) LoadU64(addr uint64) uint64 { return memory.LoadU64(t, addr) }

func (t *TxMemory) StoreU64(addr, v uint64) { memory.StoreU64(t, addr, v) }

func (t *TxMemory) LoadU32(addr uint64) uint32 { return memory.LoadU32(t, addr) }

func (t *TxMemory) StoreU32(addr uint64, v uint32) { memory.StoreU32(t, addr, v) }

// Map is the PMDK-style persistent hash map: the repository's generic
// HashMap run over TxMemory, one transaction per operation — the shape of
// PMDK's hand-built structures.
type Map struct {
	tx *TxMemory
	hm hashMap
}

// hashMap is the minimal interface Map needs from structures.HashMap; it is
// satisfied by *structures.HashMap and keeps this package free of an import
// cycle with test helpers.
type hashMap interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, bool)
	Len() uint64
}

// NewMap wraps hm (built over tx) as a transaction-per-op persistent map.
func NewMap(tx *TxMemory, hm hashMap) *Map { return &Map{tx: tx, hm: hm} }

// Put runs an insert/update as one failure-atomic transaction.
func (m *Map) Put(key, value []byte) error {
	m.tx.Begin()
	err := m.hm.Put(key, value)
	m.tx.Commit()
	return err
}

// Get reads without transactional overhead (loads are never interposed on).
func (m *Map) Get(key []byte) ([]byte, bool) { return m.hm.Get(key) }

// Len reports the entry count.
func (m *Map) Len() uint64 { return m.hm.Len() }
