package structures

import (
	"fmt"

	"pax/internal/memory"
)

// Queue is a FIFO of variable-length byte records (a persistent message
// queue in the examples).
//
// Layout:
//
//	header (24 B): headNode u64 | tailNode u64 | count u64
//	node: next u64 | size u32 | pad u32 | payload
type Queue struct {
	io    memIO
	alloc memory.Allocator
	head  uint64
}

const (
	qHeaderSize   = 24
	qNodeOverhead = 16
)

// NewQueue allocates an empty queue.
func NewQueue(alloc memory.Allocator) (*Queue, error) {
	head, err := alloc.Alloc(qHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("structures: queue header: %w", err)
	}
	q := &Queue{io: memIO{alloc.Mem()}, alloc: alloc, head: head}
	q.io.StoreU64(head+0, 0)
	q.io.StoreU64(head+8, 0)
	q.io.StoreU64(head+16, 0)
	return q, nil
}

// OpenQueue attaches to an existing queue at addr.
func OpenQueue(alloc memory.Allocator, addr uint64) *Queue {
	return &Queue{io: memIO{alloc.Mem()}, alloc: alloc, head: addr}
}

// Addr reports the header address for root storage.
func (q *Queue) Addr() uint64 { return q.head }

// Len reports the number of queued records.
func (q *Queue) Len() uint64 { return q.io.LoadU64(q.head + 16) }

// Push appends a record at the tail.
func (q *Queue) Push(payload []byte) error {
	node, err := q.alloc.Alloc(qNodeOverhead + uint64(len(payload)))
	if err != nil {
		return fmt.Errorf("structures: queue node: %w", err)
	}
	q.io.StoreU64(node+0, 0)
	q.io.StoreU32(node+8, uint32(len(payload)))
	q.io.StoreU32(node+12, 0)
	q.io.storeBytes(node+qNodeOverhead, payload)

	tail := q.io.LoadU64(q.head + 8)
	if tail == 0 {
		q.io.StoreU64(q.head+0, node)
	} else {
		q.io.StoreU64(tail, node)
	}
	q.io.StoreU64(q.head+8, node)
	q.io.StoreU64(q.head+16, q.Len()+1)
	return nil
}

// Pop removes and returns the head record, or ok=false when empty.
func (q *Queue) Pop() ([]byte, bool, error) {
	node := q.io.LoadU64(q.head)
	if node == 0 {
		return nil, false, nil
	}
	next := q.io.LoadU64(node)
	size := q.io.LoadU32(node + 8)
	payload := q.io.loadBytes(node+qNodeOverhead, int(size))

	q.io.StoreU64(q.head+0, next)
	if next == 0 {
		q.io.StoreU64(q.head+8, 0)
	}
	q.io.StoreU64(q.head+16, q.Len()-1)
	return payload, true, q.alloc.Free(node, qNodeOverhead+uint64(size))
}

// Peek returns the head record without removing it.
func (q *Queue) Peek() ([]byte, bool) {
	node := q.io.LoadU64(q.head)
	if node == 0 {
		return nil, false
	}
	size := q.io.LoadU32(node + 8)
	return q.io.loadBytes(node+qNodeOverhead, int(size)), true
}

// ForEach visits records head to tail until fn returns false.
func (q *Queue) ForEach(fn func(payload []byte) bool) {
	node := q.io.LoadU64(q.head)
	for node != 0 {
		size := q.io.LoadU32(node + 8)
		if !fn(q.io.loadBytes(node+qNodeOverhead, int(size))) {
			return
		}
		node = q.io.LoadU64(node)
	}
}
