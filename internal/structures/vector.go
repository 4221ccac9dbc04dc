package structures

import (
	"fmt"

	"pax/internal/memory"
)

// Vector is a growable array of fixed-width elements (std::vector).
//
// Layout:
//
//	header (32 B): data u64 | len u64 | cap u64 | elemSize u64
//
// Growth doubles capacity, copying through Memory.
type Vector struct {
	io    memIO
	alloc memory.Allocator
	head  uint64
}

const vecHeaderSize = 32

// NewVector allocates an empty vector of elemSize-byte elements.
func NewVector(alloc memory.Allocator, elemSize uint64, initialCap uint64) (*Vector, error) {
	if elemSize == 0 {
		return nil, fmt.Errorf("structures: vector element size must be positive")
	}
	if initialCap == 0 {
		initialCap = 8
	}
	head, err := alloc.Alloc(vecHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("structures: vector header: %w", err)
	}
	data, err := alloc.Alloc(initialCap * elemSize)
	if err != nil {
		return nil, fmt.Errorf("structures: vector data: %w", err)
	}
	v := &Vector{io: memIO{alloc.Mem()}, alloc: alloc, head: head}
	v.io.StoreU64(head+0, data)
	v.io.StoreU64(head+8, 0)
	v.io.StoreU64(head+16, initialCap)
	v.io.StoreU64(head+24, elemSize)
	return v, nil
}

// OpenVector attaches to an existing vector at addr.
func OpenVector(alloc memory.Allocator, addr uint64) *Vector {
	return &Vector{io: memIO{alloc.Mem()}, alloc: alloc, head: addr}
}

// Addr reports the header address for root storage.
func (v *Vector) Addr() uint64 { return v.head }

// Len reports the element count.
func (v *Vector) Len() uint64 { return v.io.LoadU64(v.head + 8) }

// Cap reports the capacity in elements.
func (v *Vector) Cap() uint64 { return v.io.LoadU64(v.head + 16) }

// ElemSize reports the element width in bytes.
func (v *Vector) ElemSize() uint64 { return v.io.LoadU64(v.head + 24) }

func (v *Vector) elemAddr(i uint64) uint64 {
	if i >= v.Len() {
		panic(fmt.Sprintf("structures: vector index %d out of range %d", i, v.Len()))
	}
	return v.io.LoadU64(v.head) + i*v.ElemSize()
}

// Get copies element i into buf (which must be ElemSize bytes).
func (v *Vector) Get(i uint64, buf []byte) {
	if uint64(len(buf)) != v.ElemSize() {
		panic("structures: vector Get buffer size mismatch")
	}
	v.io.Load(v.elemAddr(i), buf)
}

// Set overwrites element i.
func (v *Vector) Set(i uint64, elem []byte) {
	if uint64(len(elem)) != v.ElemSize() {
		panic("structures: vector Set element size mismatch")
	}
	v.io.storeBytes(v.elemAddr(i), elem)
}

// Push appends an element, growing if needed.
func (v *Vector) Push(elem []byte) error {
	es := v.ElemSize()
	if uint64(len(elem)) != es {
		panic("structures: vector Push element size mismatch")
	}
	length, capacity := v.Len(), v.Cap()
	if length == capacity {
		if err := v.grow(capacity * 2); err != nil {
			return err
		}
	}
	v.io.storeBytes(v.io.LoadU64(v.head)+length*es, elem)
	v.io.StoreU64(v.head+8, length+1)
	return nil
}

// Pop removes and returns the last element.
func (v *Vector) Pop(buf []byte) bool {
	length := v.Len()
	if length == 0 {
		return false
	}
	v.Get(length-1, buf)
	v.io.StoreU64(v.head+8, length-1)
	return true
}

func (v *Vector) grow(newCap uint64) error {
	es := v.ElemSize()
	oldData := v.io.LoadU64(v.head)
	oldCap := v.Cap()
	newData, err := v.alloc.Alloc(newCap * es)
	if err != nil {
		return fmt.Errorf("structures: vector grow: %w", err)
	}
	// Copy in line-friendly chunks.
	buf := make([]byte, 1024)
	total := v.Len() * es
	for off := uint64(0); off < total; off += uint64(len(buf)) {
		n := uint64(len(buf))
		if total-off < n {
			n = total - off
		}
		v.io.Load(oldData+off, buf[:n])
		v.io.Store(newData+off, buf[:n])
	}
	v.io.StoreU64(v.head+0, newData)
	v.io.StoreU64(v.head+16, newCap)
	return v.alloc.Free(oldData, oldCap*es)
}
