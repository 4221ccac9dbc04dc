package structures

import (
	"bytes"
	"fmt"

	"pax/internal/memory"
)

// SkipList is an ordered map over byte keys — the repository's stand-in for
// std::map-style structures. Node levels are drawn deterministically from
// the key hash, so the structure's memory layout is identical across runs
// (determinism is a simulator-wide requirement).
//
// Layout:
//
//	header (16 B): headNode u64 | count u64
//	node: klen u32 | vlen u32 | level u32 | pad u32 | forward[level] u64 | key | value
//
// The head node has maxLevel forward pointers and no key.
type SkipList struct {
	io    memIO
	alloc memory.Allocator
	head  uint64 // header address
}

const (
	slMaxLevel   = 16
	slHeaderSize = 16
	slNodeFixed  = 16 // klen, vlen, level, pad
)

func slNodeSize(level int, klen, vlen int) uint64 {
	return slNodeFixed + uint64(level)*8 + uint64(klen) + uint64(vlen)
}

// levelFor draws a deterministic level from the key: count trailing ones of
// the hash (geometric with p=1/2), clamped to [1, slMaxLevel].
func levelFor(key []byte) int {
	h := fnv1a(key)
	lvl := 1
	for h&1 == 1 && lvl < slMaxLevel {
		lvl++
		h >>= 1
	}
	return lvl
}

// NewSkipList allocates an empty list.
func NewSkipList(alloc memory.Allocator) (*SkipList, error) {
	head, err := alloc.Alloc(slHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("structures: skiplist header: %w", err)
	}
	headNode, err := alloc.Alloc(slNodeSize(slMaxLevel, 0, 0))
	if err != nil {
		return nil, fmt.Errorf("structures: skiplist head node: %w", err)
	}
	s := &SkipList{io: memIO{alloc.Mem()}, alloc: alloc, head: head}
	s.io.StoreU32(headNode+0, 0)
	s.io.StoreU32(headNode+4, 0)
	s.io.StoreU32(headNode+8, slMaxLevel)
	s.io.StoreU32(headNode+12, 0)
	for i := 0; i < slMaxLevel; i++ {
		s.io.StoreU64(headNode+slNodeFixed+uint64(i)*8, 0)
	}
	s.io.StoreU64(head+0, headNode)
	s.io.StoreU64(head+8, 0)
	return s, nil
}

// OpenSkipList attaches to an existing list at addr.
func OpenSkipList(alloc memory.Allocator, addr uint64) *SkipList {
	return &SkipList{io: memIO{alloc.Mem()}, alloc: alloc, head: addr}
}

// Addr reports the header address for root storage.
func (s *SkipList) Addr() uint64 { return s.head }

// WithMem rebinds the list to another timed memory view.
func (s *SkipList) WithMem(m memory.Memory) *SkipList {
	return &SkipList{io: memIO{m}, alloc: s.alloc, head: s.head}
}

// Len reports the number of entries.
func (s *SkipList) Len() uint64 { return s.io.LoadU64(s.head + 8) }

func (s *SkipList) nodeKey(node uint64) []byte {
	klen := s.io.LoadU32(node + 0)
	level := s.io.LoadU32(node + 8)
	return s.io.loadBytes(node+slNodeFixed+uint64(level)*8, int(klen))
}

func (s *SkipList) nodeValue(node uint64) []byte {
	klen := s.io.LoadU32(node + 0)
	vlen := s.io.LoadU32(node + 4)
	level := s.io.LoadU32(node + 8)
	return s.io.loadBytes(node+slNodeFixed+uint64(level)*8+uint64(klen), int(vlen))
}

func (s *SkipList) forward(node uint64, lvl int) uint64 {
	return s.io.LoadU64(node + slNodeFixed + uint64(lvl)*8)
}

func (s *SkipList) setForward(node uint64, lvl int, to uint64) {
	s.io.StoreU64(node+slNodeFixed+uint64(lvl)*8, to)
}

// findPredecessors fills update[i] with the rightmost node at level i whose
// key is < key, and returns the candidate node at level 0 (which may equal
// key or be its successor).
func (s *SkipList) findPredecessors(key []byte, update *[slMaxLevel]uint64) uint64 {
	cur := s.io.LoadU64(s.head)
	for lvl := slMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			next := s.forward(cur, lvl)
			if next == 0 || bytes.Compare(s.nodeKey(next), key) >= 0 {
				break
			}
			cur = next
		}
		update[lvl] = cur
	}
	return s.forward(cur, 0)
}

// Get returns the value for key, or ok=false.
func (s *SkipList) Get(key []byte) ([]byte, bool) {
	var update [slMaxLevel]uint64
	node := s.findPredecessors(key, &update)
	if node != 0 && bytes.Equal(s.nodeKey(node), key) {
		return s.nodeValue(node), true
	}
	return nil, false
}

// Put inserts or replaces key's value.
func (s *SkipList) Put(key, value []byte) error {
	var update [slMaxLevel]uint64
	node := s.findPredecessors(key, &update)
	if node != 0 && bytes.Equal(s.nodeKey(node), key) {
		vlen := s.io.LoadU32(node + 4)
		if int(vlen) == len(value) {
			klen := s.io.LoadU32(node + 0)
			level := s.io.LoadU32(node + 8)
			s.io.storeBytes(node+slNodeFixed+uint64(level)*8+uint64(klen), value)
			return nil
		}
		if err := s.unlink(node, &update); err != nil {
			return err
		}
	}

	level := levelFor(key)
	addr, err := s.alloc.Alloc(slNodeSize(level, len(key), len(value)))
	if err != nil {
		return fmt.Errorf("structures: skiplist node: %w", err)
	}
	s.io.StoreU32(addr+0, uint32(len(key)))
	s.io.StoreU32(addr+4, uint32(len(value)))
	s.io.StoreU32(addr+8, uint32(level))
	s.io.StoreU32(addr+12, 0)
	s.io.storeBytes(addr+slNodeFixed+uint64(level)*8, key)
	s.io.storeBytes(addr+slNodeFixed+uint64(level)*8+uint64(len(key)), value)
	for i := 0; i < level; i++ {
		s.setForward(addr, i, s.forward(update[i], i))
		s.setForward(update[i], i, addr)
	}
	s.io.StoreU64(s.head+8, s.Len()+1)
	return nil
}

// unlink removes node given its predecessor set and frees it.
func (s *SkipList) unlink(node uint64, update *[slMaxLevel]uint64) error {
	level := int(s.io.LoadU32(node + 8))
	for i := 0; i < level; i++ {
		if s.forward(update[i], i) == node {
			s.setForward(update[i], i, s.forward(node, i))
		}
	}
	klen := s.io.LoadU32(node + 0)
	vlen := s.io.LoadU32(node + 4)
	s.io.StoreU64(s.head+8, s.Len()-1)
	return s.alloc.Free(node, slNodeSize(level, int(klen), int(vlen)))
}

// Delete removes key, reporting whether it was present.
func (s *SkipList) Delete(key []byte) (bool, error) {
	var update [slMaxLevel]uint64
	node := s.findPredecessors(key, &update)
	if node == 0 || !bytes.Equal(s.nodeKey(node), key) {
		return false, nil
	}
	return true, s.unlink(node, &update)
}

// Min returns the smallest key and its value, or ok=false when empty.
func (s *SkipList) Min() (key, value []byte, ok bool) {
	first := s.forward(s.io.LoadU64(s.head), 0)
	if first == 0 {
		return nil, nil, false
	}
	return s.nodeKey(first), s.nodeValue(first), true
}

// Scan visits entries with key ≥ from in ascending order until fn returns
// false. A nil from starts at the smallest key.
func (s *SkipList) Scan(from []byte, fn func(key, value []byte) bool) {
	var node uint64
	if from == nil {
		node = s.forward(s.io.LoadU64(s.head), 0)
	} else {
		var update [slMaxLevel]uint64
		node = s.findPredecessors(from, &update)
	}
	for node != 0 {
		if !fn(s.nodeKey(node), s.nodeValue(node)) {
			return
		}
		node = s.forward(node, 0)
	}
}
