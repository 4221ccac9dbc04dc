// Package structures provides volatile data structures written exclusively
// against the memory.Memory / memory.Allocator contract: a chained hash map,
// a B+tree, a growable vector, and a FIFO queue.
//
// None of this code knows anything about persistence. That is the point of
// the paper (§3.1 "Black-Box Code Reuse"): handed an allocator whose memory
// is a PAX vPM region, these exact structures become crash-consistent,
// snapshot-persistent structures with no code changes; handed a DRAM-backed
// allocator they are ordinary volatile structures; handed a logging wrapper
// they become the compiler-instrumented baseline. The blackbox example and
// the equivalence tests run the same structure over every backend.
//
// Concurrency follows §3.5: structures are not internally synchronized;
// callers serialize access, and persist() must not overlap mutations.
package structures

import "pax/internal/memory"

// memIO is a structure's view of its memory: the word accessors of
// memory.Memory, which every field access uses, plus byte-range helpers for
// keys and values.
type memIO struct {
	memory.Memory
}

func (io memIO) loadBytes(addr uint64, n int) []byte {
	b := make([]byte, n)
	io.Load(addr, b)
	return b
}

func (io memIO) storeBytes(addr uint64, b []byte) {
	io.Store(addr, b)
}

// fnv1a is the hash map's hash, hand-rolled so structure layout is identical
// across runs.
func fnv1a(data []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
