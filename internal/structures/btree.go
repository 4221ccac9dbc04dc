package structures

import (
	"fmt"
	"sort"

	"pax/internal/memory"
)

// BTree is a B+tree over uint64 keys and values — the fixed-width ordered
// index shape most PM-structure papers build (FAST&FAIR, NV-Tree, …),
// written like every other structure here: against Memory/Allocator only,
// with no persistence knowledge.
//
// Node layout (one 256-byte allocation per node, 4 cache lines):
//
//	0:  isLeaf u32 | count u32
//	8:  next u64              (right sibling for leaf scans; 0 otherwise)
//	16: keys  [maxKeys]u64
//	16+8*maxKeys: slots [maxKeys+1]u64   (internal: children; leaf: values)
//
// Inserts use proactive splitting (full children are split on the way down,
// so parents always have room). Deletes remove from the leaf without
// rebalancing — the common PM-tree simplification: underfull leaves remain
// valid for search and scan, and space is reclaimed on reuse.
type BTree struct {
	io    memIO
	alloc memory.Allocator
	head  uint64 // header: root u64 | count u64
}

const (
	btMaxKeys    = 14
	btHeaderSize = 16
	btNodeSize   = 16 + 8*btMaxKeys + 8*(btMaxKeys+1) // 248, class 256

	btOffMeta  = 0
	btOffNext  = 8
	btOffKeys  = 16
	btOffSlots = 16 + 8*btMaxKeys
)

// NewBTree allocates an empty tree.
func NewBTree(alloc memory.Allocator) (*BTree, error) {
	head, err := alloc.Alloc(btHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("structures: btree header: %w", err)
	}
	t := &BTree{io: memIO{alloc.Mem()}, alloc: alloc, head: head}
	root, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	t.io.StoreU64(head+0, root)
	t.io.StoreU64(head+8, 0)
	return t, nil
}

// OpenBTree attaches to an existing tree at addr.
func OpenBTree(alloc memory.Allocator, addr uint64) *BTree {
	return &BTree{io: memIO{alloc.Mem()}, alloc: alloc, head: addr}
}

// Addr reports the header address for root storage.
func (t *BTree) Addr() uint64 { return t.head }

// Len reports the number of entries.
func (t *BTree) Len() uint64 { return t.io.LoadU64(t.head + 8) }

func (t *BTree) newNode(leaf bool) (uint64, error) {
	n, err := t.alloc.Alloc(btNodeSize)
	if err != nil {
		return 0, fmt.Errorf("structures: btree node: %w", err)
	}
	meta := uint32(0)
	if leaf {
		meta = 1
	}
	t.io.StoreU32(n+btOffMeta, meta)
	t.io.StoreU32(n+btOffMeta+4, 0)
	t.io.StoreU64(n+btOffNext, 0)
	return n, nil
}

func (t *BTree) isLeaf(n uint64) bool { return t.io.LoadU32(n+btOffMeta) == 1 }
func (t *BTree) count(n uint64) int   { return int(t.io.LoadU32(n + btOffMeta + 4)) }
func (t *BTree) setCount(n uint64, c int) {
	t.io.StoreU32(n+btOffMeta+4, uint32(c))
}

func (t *BTree) key(n uint64, i int) uint64  { return t.io.LoadU64(n + btOffKeys + uint64(i)*8) }
func (t *BTree) slot(n uint64, i int) uint64 { return t.io.LoadU64(n + btOffSlots + uint64(i)*8) }
func (t *BTree) setKey(n uint64, i int, v uint64) {
	t.io.StoreU64(n+btOffKeys+uint64(i)*8, v)
}
func (t *BTree) setSlot(n uint64, i int, v uint64) {
	t.io.StoreU64(n+btOffSlots+uint64(i)*8, v)
}

// search returns the index of the first key ≥ k within node n.
func (t *BTree) search(n uint64, k uint64) int {
	c := t.count(n)
	return sort.Search(c, func(i int) bool { return t.key(n, i) >= k })
}

// childIndex returns which child of internal node n covers key k.
func (t *BTree) childIndex(n uint64, k uint64) int {
	c := t.count(n)
	i := sort.Search(c, func(i int) bool { return k < t.key(n, i) })
	return i
}

// Get returns the value for key k.
func (t *BTree) Get(k uint64) (uint64, bool) {
	n := t.io.LoadU64(t.head)
	for !t.isLeaf(n) {
		n = t.slot(n, t.childIndex(n, k))
	}
	i := t.search(n, k)
	if i < t.count(n) && t.key(n, i) == k {
		return t.slot(n, i), true
	}
	return 0, false
}

// splitChild splits the full child at index ci of internal (or new-root)
// parent p. For a leaf child the split key is duplicated into the new right
// leaf (B+tree); for an internal child the middle key moves up.
func (t *BTree) splitChild(p uint64, ci int) error {
	child := t.slot(p, ci)
	leaf := t.isLeaf(child)
	right, err := t.newNode(leaf)
	if err != nil {
		return err
	}
	var promote uint64
	if leaf {
		// Keys [mid..max) move right; promote right's first key.
		mid := btMaxKeys / 2
		rc := 0
		for i := mid; i < btMaxKeys; i++ {
			t.setKey(right, rc, t.key(child, i))
			t.setSlot(right, rc, t.slot(child, i))
			rc++
		}
		t.setCount(right, rc)
		t.setCount(child, mid)
		promote = t.key(right, 0)
		// Link siblings.
		t.io.StoreU64(right+btOffNext, t.io.LoadU64(child+btOffNext))
		t.io.StoreU64(child+btOffNext, right)
	} else {
		// Middle key moves up; keys right of it (and their children) move
		// right.
		mid := btMaxKeys / 2
		promote = t.key(child, mid)
		rc := 0
		for i := mid + 1; i < btMaxKeys; i++ {
			t.setKey(right, rc, t.key(child, i))
			t.setSlot(right, rc, t.slot(child, i))
			rc++
		}
		t.setSlot(right, rc, t.slot(child, btMaxKeys))
		t.setCount(right, rc)
		t.setCount(child, mid)
	}

	// Shift parent entries right of ci and link the new child.
	pc := t.count(p)
	for i := pc; i > ci; i-- {
		t.setKey(p, i, t.key(p, i-1))
		t.setSlot(p, i+1, t.slot(p, i))
	}
	t.setKey(p, ci, promote)
	t.setSlot(p, ci+1, right)
	t.setCount(p, pc+1)
	return nil
}

// Put inserts or replaces key k.
func (t *BTree) Put(k, v uint64) error {
	root := t.io.LoadU64(t.head)
	if t.count(root) == btMaxKeys {
		newRoot, err := t.newNode(false)
		if err != nil {
			return err
		}
		t.setSlot(newRoot, 0, root)
		if err := t.splitChild(newRoot, 0); err != nil {
			return err
		}
		t.io.StoreU64(t.head, newRoot)
		root = newRoot
	}
	n := root
	for !t.isLeaf(n) {
		ci := t.childIndex(n, k)
		child := t.slot(n, ci)
		if t.count(child) == btMaxKeys {
			if err := t.splitChild(n, ci); err != nil {
				return err
			}
			ci = t.childIndex(n, k)
			child = t.slot(n, ci)
		}
		n = child
	}
	i := t.search(n, k)
	c := t.count(n)
	if i < c && t.key(n, i) == k {
		t.setSlot(n, i, v) // replace
		return nil
	}
	for j := c; j > i; j-- {
		t.setKey(n, j, t.key(n, j-1))
		t.setSlot(n, j, t.slot(n, j-1))
	}
	t.setKey(n, i, k)
	t.setSlot(n, i, v)
	t.setCount(n, c+1)
	t.io.StoreU64(t.head+8, t.Len()+1)
	return nil
}

// Delete removes key k from its leaf (no rebalancing), reporting presence.
func (t *BTree) Delete(k uint64) bool {
	n := t.io.LoadU64(t.head)
	for !t.isLeaf(n) {
		n = t.slot(n, t.childIndex(n, k))
	}
	i := t.search(n, k)
	c := t.count(n)
	if i >= c || t.key(n, i) != k {
		return false
	}
	for j := i; j < c-1; j++ {
		t.setKey(n, j, t.key(n, j+1))
		t.setSlot(n, j, t.slot(n, j+1))
	}
	t.setCount(n, c-1)
	t.io.StoreU64(t.head+8, t.Len()-1)
	return true
}

// Scan visits entries with key ≥ from in ascending order until fn returns
// false, walking the leaf chain.
func (t *BTree) Scan(from uint64, fn func(k, v uint64) bool) {
	n := t.io.LoadU64(t.head)
	for !t.isLeaf(n) {
		n = t.slot(n, t.childIndex(n, from))
	}
	for n != 0 {
		c := t.count(n)
		for i := t.search(n, from); i < c; i++ {
			if !fn(t.key(n, i), t.slot(n, i)) {
				return
			}
		}
		n = t.io.LoadU64(n + btOffNext)
		from = 0 // subsequent leaves are visited fully
	}
}

// Min returns the smallest key and its value.
func (t *BTree) Min() (k, v uint64, ok bool) {
	n := t.io.LoadU64(t.head)
	for !t.isLeaf(n) {
		n = t.slot(n, 0)
	}
	// Skip underfull-empty leaves left behind by deletes.
	for n != 0 && t.count(n) == 0 {
		n = t.io.LoadU64(n + btOffNext)
	}
	if n == 0 {
		return 0, 0, false
	}
	return t.key(n, 0), t.slot(n, 0), true
}

// CheckInvariants walks the whole tree verifying ordering and structure;
// property tests call it after mutation bursts.
func (t *BTree) CheckInvariants() error {
	root := t.io.LoadU64(t.head)
	var walk func(n uint64, lo, hi uint64, hasLo, hasHi bool) (uint64, error)
	walk = func(n uint64, lo, hi uint64, hasLo, hasHi bool) (uint64, error) {
		c := t.count(n)
		if c > btMaxKeys {
			return 0, fmt.Errorf("btree: node %#x overflow count %d", n, c)
		}
		var total uint64
		prevSet := false
		var prev uint64
		for i := 0; i < c; i++ {
			k := t.key(n, i)
			if prevSet && k <= prev {
				return 0, fmt.Errorf("btree: node %#x keys out of order at %d", n, i)
			}
			if hasLo && k < lo {
				return 0, fmt.Errorf("btree: node %#x key %d below bound %d", n, k, lo)
			}
			if hasHi && k >= hi {
				return 0, fmt.Errorf("btree: node %#x key %d above bound %d", n, k, hi)
			}
			prev, prevSet = k, true
		}
		if t.isLeaf(n) {
			return uint64(c), nil
		}
		for i := 0; i <= c; i++ {
			clo, chi := lo, hi
			cHasLo, cHasHi := hasLo, hasHi
			if i > 0 {
				clo, cHasLo = t.key(n, i-1), true
			}
			if i < c {
				chi, cHasHi = t.key(n, i), true
			}
			sub, err := walk(t.slot(n, i), clo, chi, cHasLo, cHasHi)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	}
	total, err := walk(root, 0, 0, false, false)
	if err != nil {
		return err
	}
	if total != t.Len() {
		return fmt.Errorf("btree: header count %d but tree holds %d", t.Len(), total)
	}
	return nil
}
