package structures

import (
	"bytes"
	"fmt"

	"pax/internal/memory"
)

// HashMap is a chained hash table over arbitrary byte keys and values — the
// stand-in for std::unordered_map / Rust's HashMap in the paper's examples.
//
// Layout:
//
//	header (32 B):  buckets u64 | nbuckets u64 | count u64 | reserved u64
//	bucket array:   nbuckets × u64 chain heads
//	node:           next u64 | hash u64 | klen u32 | vlen u32 | key | value
//
// The table doubles when the load factor reaches 1.0.
type HashMap struct {
	io    memIO
	alloc memory.Allocator
	head  uint64 // header address

	// keyBuf holds the stored key findNode compares, reused from probe to
	// probe: a view is driven by one goroutine at a time (§3.5).
	keyBuf []byte
}

const (
	hmHeaderSize   = 32
	hmNodeOverhead = 24
	hmMinBuckets   = 8
)

// NewHashMap allocates an empty map with the given initial bucket count
// (rounded up to a power of two, minimum 8).
func NewHashMap(alloc memory.Allocator, initialBuckets int) (*HashMap, error) {
	n := uint64(hmMinBuckets)
	for n < uint64(initialBuckets) {
		n <<= 1
	}
	head, err := alloc.Alloc(hmHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("structures: hashmap header: %w", err)
	}
	buckets, err := alloc.Alloc(n * 8)
	if err != nil {
		return nil, fmt.Errorf("structures: hashmap buckets: %w", err)
	}
	h := &HashMap{io: memIO{alloc.Mem()}, alloc: alloc, head: head}
	zero := make([]byte, n*8)
	h.io.storeBytes(buckets, zero)
	h.io.StoreU64(head+0, buckets)
	h.io.StoreU64(head+8, n)
	h.io.StoreU64(head+16, 0)
	h.io.StoreU64(head+24, 0)
	return h, nil
}

// OpenHashMap attaches to an existing map at addr (e.g. a recovered root).
func OpenHashMap(alloc memory.Allocator, addr uint64) *HashMap {
	return &HashMap{io: memIO{alloc.Mem()}, alloc: alloc, head: addr}
}

// Addr reports the header address, suitable for storing in a pool root slot.
func (h *HashMap) Addr() uint64 { return h.head }

// WithMem returns a view of the same map whose accesses go through m —
// used to drive one shared structure from several simulated hardware
// threads, each with its own timed memory view.
func (h *HashMap) WithMem(m memory.Memory) *HashMap {
	return &HashMap{io: memIO{m}, alloc: h.alloc, head: h.head}
}

// Len reports the number of entries.
func (h *HashMap) Len() uint64 { return h.io.LoadU64(h.head + 16) }

func (h *HashMap) geometry() (buckets, nbuckets uint64) {
	return h.io.LoadU64(h.head + 0), h.io.LoadU64(h.head + 8)
}

// findNode walks the chain for key, returning the node address and the
// address of the pointer that references it (for unlinking).
func (h *HashMap) findNode(key []byte) (node, parentPtr uint64) {
	hash := fnv1a(key)
	buckets, nbuckets := h.geometry()
	slot := buckets + (hash&(nbuckets-1))*8
	ptr := slot
	for {
		node := h.io.LoadU64(ptr)
		if node == 0 {
			return 0, 0
		}
		if h.io.LoadU64(node+8) == hash {
			klen := h.io.LoadU32(node + 16)
			if int(klen) == len(key) && bytes.Equal(h.storedKey(node, key), key) {
				return node, ptr
			}
		}
		ptr = node // next pointer is the node's first field
	}
}

// storedKey loads the len(key) bytes of node's key into keyBuf.
func (h *HashMap) storedKey(node uint64, key []byte) []byte {
	if cap(h.keyBuf) < len(key) {
		h.keyBuf = make([]byte, len(key))
	}
	b := h.keyBuf[:len(key)]
	h.io.Load(node+hmNodeOverhead, b)
	return b
}

// Get returns the value for key, or ok=false. Like Put and Delete, it
// writes the view's key buffer, so two goroutines must not call it on one
// view at once; give each its own view (WithMem).
func (h *HashMap) Get(key []byte) ([]byte, bool) {
	node, _ := h.findNode(key)
	if node == 0 {
		return nil, false
	}
	klen := h.io.LoadU32(node + 16)
	vlen := h.io.LoadU32(node + 20)
	return h.io.loadBytes(node+hmNodeOverhead+uint64(klen), int(vlen)), true
}

// Put inserts or replaces key's value. Same-length updates are done in
// place; others reallocate the node.
func (h *HashMap) Put(key, value []byte) error {
	if node, parentPtr := h.findNode(key); node != 0 {
		klen := h.io.LoadU32(node + 16)
		vlen := h.io.LoadU32(node + 20)
		if int(vlen) == len(value) {
			h.io.storeBytes(node+hmNodeOverhead+uint64(klen), value)
			return nil
		}
		// Replace the node: unlink, free, fall through to insert.
		h.io.StoreU64(parentPtr, h.io.LoadU64(node))
		if err := h.alloc.Free(node, hmNodeOverhead+uint64(klen)+uint64(vlen)); err != nil {
			return err
		}
		h.io.StoreU64(h.head+16, h.Len()-1)
	}

	hash := fnv1a(key)
	size := hmNodeOverhead + uint64(len(key)) + uint64(len(value))
	node, err := h.alloc.Alloc(size)
	if err != nil {
		return fmt.Errorf("structures: hashmap node: %w", err)
	}
	buckets, nbuckets := h.geometry()
	slot := buckets + (hash&(nbuckets-1))*8
	h.io.StoreU64(node+0, h.io.LoadU64(slot))
	h.io.StoreU64(node+8, hash)
	h.io.StoreU32(node+16, uint32(len(key)))
	h.io.StoreU32(node+20, uint32(len(value)))
	h.io.storeBytes(node+hmNodeOverhead, key)
	h.io.storeBytes(node+hmNodeOverhead+uint64(len(key)), value)
	h.io.StoreU64(slot, node)

	count := h.Len() + 1
	h.io.StoreU64(h.head+16, count)
	if count > nbuckets {
		return h.grow()
	}
	return nil
}

// Delete removes key, reporting whether it was present.
func (h *HashMap) Delete(key []byte) (bool, error) {
	node, parentPtr := h.findNode(key)
	if node == 0 {
		return false, nil
	}
	h.io.StoreU64(parentPtr, h.io.LoadU64(node))
	klen := h.io.LoadU32(node + 16)
	vlen := h.io.LoadU32(node + 20)
	if err := h.alloc.Free(node, hmNodeOverhead+uint64(klen)+uint64(vlen)); err != nil {
		return true, err
	}
	h.io.StoreU64(h.head+16, h.Len()-1)
	return true, nil
}

// grow doubles the bucket array and rehashes every chain.
func (h *HashMap) grow() error {
	oldBuckets, oldN := h.geometry()
	newN := oldN * 2
	newBuckets, err := h.alloc.Alloc(newN * 8)
	if err != nil {
		return fmt.Errorf("structures: hashmap grow: %w", err)
	}
	zero := make([]byte, newN*8)
	h.io.storeBytes(newBuckets, zero)
	for i := uint64(0); i < oldN; i++ {
		node := h.io.LoadU64(oldBuckets + i*8)
		for node != 0 {
			next := h.io.LoadU64(node)
			hash := h.io.LoadU64(node + 8)
			slot := newBuckets + (hash&(newN-1))*8
			h.io.StoreU64(node, h.io.LoadU64(slot))
			h.io.StoreU64(slot, node)
			node = next
		}
	}
	h.io.StoreU64(h.head+0, newBuckets)
	h.io.StoreU64(h.head+8, newN)
	return h.alloc.Free(oldBuckets, oldN*8)
}

// ForEach visits every entry in unspecified order. The callback must not
// mutate the map. key is read into a buffer the walk reuses, so it is valid
// only until fn returns; value is a fresh copy fn may keep.
func (h *HashMap) ForEach(fn func(key, value []byte) bool) {
	var keyBuf []byte
	buckets, nbuckets := h.geometry()
	for i := uint64(0); i < nbuckets; i++ {
		node := h.io.LoadU64(buckets + i*8)
		for node != 0 {
			klen := h.io.LoadU32(node + 16)
			vlen := h.io.LoadU32(node + 20)
			if cap(keyBuf) < int(klen) {
				keyBuf = make([]byte, klen)
			}
			key := keyBuf[:klen]
			h.io.Load(node+hmNodeOverhead, key)
			val := h.io.loadBytes(node+hmNodeOverhead+uint64(klen), int(vlen))
			if !fn(key, val) {
				return
			}
			node = h.io.LoadU64(node)
		}
	}
}
