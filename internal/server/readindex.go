package server

import "sync"

// readIndex is the volatile lookaside index in front of the persistent map:
// a striped in-memory shadow of every (key, value) the writer loop has
// committed. GETs read it directly — no queue, no simulator, no waiting
// behind a commit in flight — which is legal because the paper's §3.5
// single-mutator rule constrains who may *mutate* the pool during Persist,
// not who may observe already-committed state.
//
// Consistency contract (tested in readindex_test.go):
//
//   - Publication at commit: the writer publishes a batch's puts and deletes,
//     in apply order, once the batch's Persist has succeeded and before any
//     of its waiters is acked. A GET therefore serves the durable epoch
//     snapshot and nothing newer, and a batch that fails, seals or crashes
//     publishes nothing.
//   - Read-your-writes with respect to acked mutations: publication precedes
//     the ack, so any GET issued after a PUT/DELETE ack sees it.
//   - The index is volatile by design: it dies with the engine and is rebuilt
//     from the *recovered* pool at startup. Recovery keeps every committed
//     epoch, so it keeps every value that was ever published.
//
// The stripes bound contention: the single writer touches one stripe per
// published mutation while readers fan out across all of them, so a commit
// in flight (which holds no index locks until it publishes) never stalls a
// read.
const indexStripes = 64

// A key's stripe is its slot mod indexStripes, which is its hash mod
// indexStripes only while indexStripes divides NumSlots; this fails to
// compile otherwise.
var _ [NumSlots % indexStripes]struct{} = [0]struct{}{}

type indexStripe struct {
	mu sync.RWMutex
	m  map[string][]byte
}

type readIndex struct {
	stripes [indexStripes]indexStripe
}

func newReadIndex() *readIndex {
	ix := &readIndex{}
	for i := range ix.stripes {
		ix.stripes[i].m = make(map[string][]byte)
	}
	return ix
}

// stripe picks the key's stripe from its slot (SlotFor's FNV-1a) —
// cheap, allocation-free, and well spread for the short keys a KV workload
// carries.
func (ix *readIndex) stripe(key []byte) *indexStripe {
	return &ix.stripes[SlotFor(key)%indexStripes]
}

// get returns a copy of the indexed value, preserving Engine.Get's contract
// that callers own the returned slice (the persistent map's Get copies too).
func (ix *readIndex) get(key []byte) ([]byte, bool) {
	s := ix.stripe(key)
	s.mu.RLock()
	v, ok := s.m[string(key)] // no alloc: compiler-recognized map lookup
	if !ok {
		s.mu.RUnlock()
		return nil, false
	}
	out := append([]byte(nil), v...)
	s.mu.RUnlock()
	return out, true
}

// put publishes a committed put. The value is copied: callers (the wire
// layer, benchmark drivers) reuse their buffers, and index entries outlive
// the request that wrote them. The index owns its values (get and collect
// hand out copies), so a new value as long as the one indexed overwrites it
// in place and a rewrite leaves no garbage.
func (ix *readIndex) put(key, value []byte) {
	s := ix.stripe(key)
	s.mu.Lock()
	if v, ok := s.m[string(key)]; ok && len(v) == len(value) {
		copy(v, value)
	} else {
		s.m[string(key)] = append([]byte(nil), value...)
	}
	s.mu.Unlock()
}

// delete publishes a committed deletion.
func (ix *readIndex) delete(key []byte) {
	s := ix.stripe(key)
	s.mu.Lock()
	delete(s.m, string(key))
	s.mu.Unlock()
}

// indexEntry is one collected (key, value) pair; both slices are copies the
// caller owns.
type indexEntry struct {
	key, value []byte
}

// collect returns a copy of every entry whose key satisfies keep. Each
// stripe is read under its own RLock, so collection never blocks the writer
// for longer than one stripe — but the result is a per-stripe-consistent
// sample, not a global snapshot. Callers that need a stable view (slot
// migration, the open-time purge) quiesce the mutator first: migration
// write-locks the slot gate and drains the queue, the purge runs before
// serving starts. The caller must not mutate the index from inside a
// hypothetical callback — which is why this collects into a slice instead of
// exposing iteration: deleting collected keys afterwards cannot deadlock on
// a stripe lock.
func (ix *readIndex) collect(keep func(key []byte) bool) []indexEntry {
	var out []indexEntry
	for i := range ix.stripes {
		s := &ix.stripes[i]
		s.mu.RLock()
		for k, v := range s.m {
			if keep([]byte(k)) {
				out = append(out, indexEntry{
					key:   []byte(k),
					value: append([]byte(nil), v...),
				})
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// len reports the indexed entry count (for the rebuild counter and tests).
func (ix *readIndex) len() int {
	n := 0
	for i := range ix.stripes {
		s := &ix.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
