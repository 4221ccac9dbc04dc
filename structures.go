package pax

import (
	"fmt"

	"pax/internal/core"
	"pax/internal/structures"
)

// This file provides the "Persistent<T>" facade from the paper's Listing 1:
// constructors that bind an unmodified volatile structure to a pool root
// slot. Constructing a new structure and recovering an existing one is the
// same call (§3.4) — if the root slot is set, the structure is reattached;
// otherwise it is created and the slot recorded.

func bindRoot(p *Pool, slot int) (addr uint64, create bool, err error) {
	if slot < 0 || slot >= core.RootSlots {
		return 0, false, fmt.Errorf("pax: root slot %d outside [0,%d)", slot, core.RootSlots)
	}
	addr = p.Root(slot)
	return addr, addr == 0, nil
}

// Map is a persistent hash map (the paper's running example: an unmodified
// volatile hash table made persistent by the accelerator).
type Map struct {
	hm *structures.HashMap
}

// NewMap constructs or recovers the map rooted at slot.
func NewMap(p *Pool, slot int) (*Map, error) {
	addr, create, err := bindRoot(p, slot)
	if err != nil {
		return nil, err
	}
	if create {
		hm, err := structures.NewHashMap(p.inner.Arena(), 64)
		if err != nil {
			return nil, err
		}
		p.SetRoot(slot, hm.Addr())
		return &Map{hm: hm}, nil
	}
	return &Map{hm: structures.OpenHashMap(p.inner.Arena(), addr)}, nil
}

// Put inserts or replaces a key.
func (m *Map) Put(key, value []byte) error { return m.hm.Put(key, value) }

// Get returns the value for key. A Map is driven by one goroutine at a
// time, reads included: Get reuses a buffer the Map owns for key compares.
func (m *Map) Get(key []byte) ([]byte, bool) { return m.hm.Get(key) }

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(key []byte) (bool, error) { return m.hm.Delete(key) }

// Len reports the number of entries.
func (m *Map) Len() uint64 { return m.hm.Len() }

// ForEach visits every entry until fn returns false. key is valid only
// until fn returns (copy it to keep it); value is fn's to keep.
func (m *Map) ForEach(fn func(key, value []byte) bool) { m.hm.ForEach(fn) }

// Queue is a persistent FIFO of byte records.
type Queue struct {
	q *structures.Queue
}

// NewQueue constructs or recovers the queue rooted at slot.
func NewQueue(p *Pool, slot int) (*Queue, error) {
	addr, create, err := bindRoot(p, slot)
	if err != nil {
		return nil, err
	}
	if create {
		q, err := structures.NewQueue(p.inner.Arena())
		if err != nil {
			return nil, err
		}
		p.SetRoot(slot, q.Addr())
		return &Queue{q: q}, nil
	}
	return &Queue{q: structures.OpenQueue(p.inner.Arena(), addr)}, nil
}

// Push appends a record.
func (q *Queue) Push(payload []byte) error { return q.q.Push(payload) }

// Pop removes and returns the oldest record.
func (q *Queue) Pop() ([]byte, bool, error) { return q.q.Pop() }

// Peek returns the oldest record without removing it.
func (q *Queue) Peek() ([]byte, bool) { return q.q.Peek() }

// Len reports the number of records.
func (q *Queue) Len() uint64 { return q.q.Len() }

// Index is a persistent B+tree over uint64 keys and values — the
// fixed-width ordered index shape PM systems commonly build.
type Index struct {
	bt *structures.BTree
}

// NewIndex constructs or recovers the index rooted at slot.
func NewIndex(p *Pool, slot int) (*Index, error) {
	addr, create, err := bindRoot(p, slot)
	if err != nil {
		return nil, err
	}
	if create {
		bt, err := structures.NewBTree(p.inner.Arena())
		if err != nil {
			return nil, err
		}
		p.SetRoot(slot, bt.Addr())
		return &Index{bt: bt}, nil
	}
	return &Index{bt: structures.OpenBTree(p.inner.Arena(), addr)}, nil
}

// Put inserts or replaces a key.
func (ix *Index) Put(key, value uint64) error { return ix.bt.Put(key, value) }

// Get returns the value for key.
func (ix *Index) Get(key uint64) (uint64, bool) { return ix.bt.Get(key) }

// Delete removes key, reporting whether it was present.
func (ix *Index) Delete(key uint64) bool { return ix.bt.Delete(key) }

// Len reports the number of entries.
func (ix *Index) Len() uint64 { return ix.bt.Len() }

// Min returns the smallest key and its value.
func (ix *Index) Min() (key, value uint64, ok bool) { return ix.bt.Min() }

// Scan visits entries with key ≥ from in ascending order until fn returns
// false.
func (ix *Index) Scan(from uint64, fn func(key, value uint64) bool) { ix.bt.Scan(from, fn) }

// Vector is a persistent growable array of fixed-width elements.
type Vector struct {
	v *structures.Vector
}

// NewVector constructs or recovers the vector rooted at slot. elemSize is
// only used on construction; reopening reads it from the pool.
func NewVector(p *Pool, slot int, elemSize uint64) (*Vector, error) {
	addr, create, err := bindRoot(p, slot)
	if err != nil {
		return nil, err
	}
	if create {
		v, err := structures.NewVector(p.inner.Arena(), elemSize, 8)
		if err != nil {
			return nil, err
		}
		p.SetRoot(slot, v.Addr())
		return &Vector{v: v}, nil
	}
	return &Vector{v: structures.OpenVector(p.inner.Arena(), addr)}, nil
}

// Push appends an element.
func (v *Vector) Push(elem []byte) error { return v.v.Push(elem) }

// Pop removes the last element into buf.
func (v *Vector) Pop(buf []byte) bool { return v.v.Pop(buf) }

// Get copies element i into buf.
func (v *Vector) Get(i uint64, buf []byte) { v.v.Get(i, buf) }

// Set overwrites element i.
func (v *Vector) Set(i uint64, elem []byte) { v.v.Set(i, elem) }

// Len reports the element count.
func (v *Vector) Len() uint64 { return v.v.Len() }

// ElemSize reports the element width.
func (v *Vector) ElemSize() uint64 { return v.v.ElemSize() }
