package server

import (
	"fmt"
	"sort"

	"pax"
	"pax/internal/blackbox"
)

// This file is live resharding: moving slots between shards while the router
// keeps serving. The unit of movement is one slot (1/NumSlots of the
// keyspace); per-slot cutover means a migration stalls only the slot in
// flight, never the other 255.
//
// # Crash-safety contract (documented in DESIGN.md)
//
// A slot cutover is committed by exactly one event: the atomic publish of
// the slot map carrying the new assignment (SlotMap.Save — temp file, fsync,
// rename, dir fsync). Everything around it is arranged so a crash on either
// side of that event loses nothing:
//
//   - Before copying, the slot's gate is write-locked. Every request holds
//     the gate's read side across route-lookup + dispatch, so after the
//     write lock is held no request can still be routing this slot to the
//     old owner; a drain fence through the source's queue then returns once
//     every already-enqueued write has committed, which is when the read
//     index the copy reads publishes it.
//   - The copy lands on the destination via the normal epoch machinery, and
//     every copy write is acked durable BEFORE the map publishes. Crash
//     before publish: the map still names the source, which has every key —
//     the destination's orphan copies are purged at next open.
//   - The map publishes, the in-memory route swaps, the gate unlocks. Only
//     then is the source's copy deleted. Crash before cleanup finishes: the
//     map names the destination, which has every key — the source's stale
//     copies are purged at next open.
//
// Open-time purge (openRoute case 1) makes both windows idempotent: every
// shard deletes keys the authoritative map assigns elsewhere, so repeated
// crashes mid-migration converge to the published assignment with every
// acked write intact.

// SplitReport describes one completed Split: where load moved and how much.
type SplitReport struct {
	// Source is the shard that gave slots away; Dest received them.
	Source int `json:"source"`
	Dest   int `json:"dest"`
	// NewShard is whether Dest was created for this split (false when an
	// existing zero-slot shard — e.g. a crash leftover — was adopted).
	NewShard bool `json:"new_shard"`
	// Shards is the fleet size after the split.
	Shards int `json:"shards"`
	// MovedSlots lists the slots that cut over; MovedKeys counts the keys
	// copied. The moved keyspace fraction is len(MovedSlots)/NumSlots.
	MovedSlots []int `json:"moved_slots"`
	MovedKeys  int   `json:"moved_keys"`
	// Seq is the slot map sequence number after the last cutover.
	Seq uint64 `json:"slotmap_seq"`
}

// Split carves the hot half of one shard's slots onto another shard, live.
// src names the shard to split, or -1 to pick the shard with the most
// per-slot traffic since open. The destination is an existing shard that
// owns zero slots if one exists (adopting, e.g., the leftover of a split
// that crashed between creating a shard file and publishing a cutover), else
// a newly created shard pool with the same geometry. The moving set is
// chosen by per-slot op counts — slots greedily balanced so roughly half the
// measured load leaves — and migrated one slot at a time: acked writes stay
// durable throughout, and only the slot in flight ever stalls. Any fleet
// splits, a one-shard fleet included.
func (s *ShardedEngine) Split(src int) (*SplitReport, error) {
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()

	m := s.route.Load()
	shards := *s.shards.Load()
	if src < 0 {
		src = s.hottestShard(m)
	}
	if src < 0 || src >= len(shards) {
		return nil, fmt.Errorf("server: split source %d out of range (%d shards)", src, len(shards))
	}
	owned := m.slotsOf(src)
	if len(owned) < 2 {
		return nil, fmt.Errorf("server: shard %d owns %d slot(s); nothing to split", src, len(owned))
	}

	rep := &SplitReport{Source: src, Dest: -1}
	// Prefer an existing shard that owns nothing: either the caller grew the
	// fleet out of band or a previous split crashed after creating the shard
	// file but before its first cutover published. Reusing it self-heals
	// that window instead of leaking a file per crash.
	for k := range shards {
		if k != src && len(m.slotsOf(k)) == 0 {
			rep.Dest = k
			break
		}
	}
	if rep.Dest < 0 {
		dst, err := s.addShard()
		if err != nil {
			return nil, err
		}
		rep.Dest, rep.NewShard = dst, true
	}

	// Divide src's slots by measured load: heaviest first, each slot to the
	// lighter side, source keeps the first (heaviest) slot so both sides end
	// non-empty.
	sort.Slice(owned, func(i, j int) bool {
		return s.slotLoad(owned[i]) > s.slotLoad(owned[j])
	})
	var stayLoad, moveLoad uint64
	var moving []int
	for i, slot := range owned {
		load := s.slotLoad(slot)
		if i == 0 || stayLoad <= moveLoad {
			stayLoad += load
		} else {
			moveLoad += load
			moving = append(moving, slot)
		}
	}
	if len(moving) == 0 {
		// All-zero load: stayLoad <= moveLoad holds on every iteration, so
		// the greedy pass moves nothing — and a zero-slot "split" would still
		// have created (and leaked) the destination shard above. Fall back to
		// a count-based even halving: the trailing ⌈N/2⌉ slots move, the
		// source keeps the rest (≥ 1, since it owned ≥ 2).
		moving = append(moving, owned[len(owned)/2:]...)
	}
	sort.Ints(moving)

	moves := make(map[int]int, len(moving))
	for _, slot := range moving {
		moves[slot] = rep.Dest
	}
	s.events.emit(blackbox.EvSplitStart, -1, splitDetail{Report: rep})
	moved, err := s.migrateSlots(moves)
	rep.MovedSlots = moving[:len(moved)]
	rep.MovedKeys = 0
	for _, n := range moved {
		rep.MovedKeys += n
	}
	rep.Seq = s.route.Load().Seq
	rep.Shards = len(*s.shards.Load())
	if err != nil {
		s.events.emit(blackbox.EvSplitDone, -1, splitDetail{Report: rep, Error: err.Error()})
		return rep, err
	}
	s.reshard.splits.Add(1)
	s.events.emit(blackbox.EvSplitDone, -1, splitDetail{Report: rep})
	return rep, nil
}

// shardLoads sums the per-slot load signal by owning shard.
func (s *ShardedEngine) shardLoads(m *SlotMap) []uint64 {
	n := len(*s.shards.Load())
	loads := make([]uint64, n)
	for slot := range m.Assign {
		if k := int(m.Assign[slot]); k < n {
			loads[k] += s.slotLoad(slot)
		}
	}
	return loads
}

// hottestShard returns the busiest shard by the per-slot load signal (ties to
// the lowest index).
func (s *ShardedEngine) hottestShard(m *SlotMap) int {
	loads := s.shardLoads(m)
	best := 0
	for k := 1; k < len(loads); k++ {
		if loads[k] > loads[best] {
			best = k
		}
	}
	return best
}

// addShard grows the fleet by one empty shard (pool + engine) with the same
// geometry as the rest, publishing the new shard slice before returning —
// the slice must be visible before any slot map references the new index.
// Caller holds migrateMu. The new pool is created Overwrite: no published
// assignment can reference it yet, so anything at its path is garbage.
func (s *ShardedEngine) addShard() (int, error) {
	shards := *s.shards.Load()
	k := len(shards)
	if k >= NumSlots {
		return 0, fmt.Errorf("server: shard count %d already saturates the %d-slot routing space", k, NumSlots)
	}
	opts := s.opts
	opts.Overwrite = true
	sp := ShardPath(s.path, k)
	pool, err := pax.CreatePool(sp, opts)
	if err != nil {
		return 0, fmt.Errorf("server: shard %d: %w", k, err)
	}
	eng, err := newEngine(pool, s.accSlot, s.cfg, k, s.events)
	if err != nil {
		pool.Close()
		return 0, fmt.Errorf("server: shard %d: %w", k, err)
	}
	next := make([]shard, k+1)
	copy(next, shards)
	next[k] = shard{pool: pool, eng: eng}
	s.shards.Store(&next)
	return k, nil
}

// migrateSlots cuts the given slots over to their destinations, one slot at
// a time (see the crash-safety contract at the top of this file). It returns
// the per-completed-slot moved-key counts in the iteration order of the
// sorted slot list; on error, slots already cut over stay cut over — the map
// on disk is always a consistent assignment.
func (s *ShardedEngine) migrateSlots(moves map[int]int) ([]int, error) {
	slots := make([]int, 0, len(moves))
	for slot := range moves {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	var counts []int
	for _, slot := range slots {
		n, err := s.migrateSlot(slot, moves[slot])
		if err != nil {
			return counts, fmt.Errorf("server: migrating slot %d: %w", slot, err)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// migrateSlot moves one slot's keys to dst and publishes the cutover.
// Caller holds migrateMu.
func (s *ShardedEngine) migrateSlot(slot, dst int) (moved int, err error) {
	m := s.route.Load()
	src := int(m.Assign[slot])
	if src == dst {
		return 0, nil
	}
	shards := *s.shards.Load()
	if dst < 0 || dst >= len(shards) {
		return 0, fmt.Errorf("destination shard %d out of range (%d shards)", dst, len(shards))
	}
	srcEng, dstEng := shards[src].eng, shards[dst].eng

	g := &s.gates[slot]
	g.Lock()
	defer g.Unlock()

	// Drain fence: requests hold the gate read side across enqueue, so
	// everything racing us is already in src's FIFO queue; a fence behind
	// them returns once their batch has committed, i.e. once they are
	// published in the index the copy below reads. It rides their commit and
	// forces none of its own.
	if err := srcEng.drainFence(); err != nil {
		return 0, fmt.Errorf("draining source shard %d: %w", src, err)
	}

	// Resurrection guard: dst may hold stale copies of this slot from a
	// migration that failed before publishing (in-process error paths; crash
	// leftovers are purged at open). If they survived they could shadow a
	// later state of the slot — delete before copying.
	stale := dstEng.idx.collect(func(key []byte) bool { return SlotFor(key) == slot })
	if err := pipeline(dstEng, opDelete, stale); err != nil {
		return 0, fmt.Errorf("clearing destination shard %d: %w", dst, err)
	}

	// Copy through the normal epoch machinery. Every copy write is acked
	// durable, so the whole slot is on dst's media before the cutover
	// publishes; an empty slot with a clean dst commits nothing.
	pairs := srcEng.idx.collect(func(key []byte) bool { return SlotFor(key) == slot })
	if err := pipeline(dstEng, opPut, pairs); err != nil {
		return 0, fmt.Errorf("copying to shard %d: %w", dst, err)
	}

	// Cutover: persist the new assignment (the commit point), then swap the
	// in-memory route. Readers load route before shards, so the new owner is
	// visible atomically with the map.
	next := m.clone()
	next.Assign[slot] = uint16(dst)
	next.Seq++
	if next.Shards < dst+1 {
		next.Shards = dst + 1
	}
	if err := next.Save(s.opts.FS, s.path); err != nil {
		return 0, fmt.Errorf("publishing slot map: %w", err)
	}
	s.route.Store(next)
	s.reshard.movedSlots.Add(1)
	s.reshard.movedKeys.Add(uint64(len(pairs)))

	// Cleanup: the source's copies are garbage now — no route reaches them.
	// If we crash before these deletes commit, the open-time purge removes
	// them (the published map never names src).
	if err := pipeline(srcEng, opDelete, pairs); err != nil {
		// The cutover already published; a cleanup failure degrades to the
		// crash case (stale copies purged at next open), so the migration
		// still reports success — but it must not be silent, or the
		// deferred purge is invisible until someone wonders where the space
		// went.
		s.reshard.cleanupFailures.Add(1)
		s.logf("server: slot %d: source shard %d cleanup failed, stale copies deferred to next open: %v", slot, src, err)
	}
	return len(pairs), nil
}

// pipeline runs one op per entry on eng the way the TCP server runs one
// connection: it begins every request in order, so they share group commits,
// and then collects every result. It returns the first error; once a begin
// fails, no later request is started.
func pipeline(eng *Engine, op opKind, entries []indexEntry) error {
	reqs := make([]*request, 0, len(entries))
	var err error
	for _, e := range entries {
		req := newRequest(op, e.key, e.value)
		if err = eng.begin(req); err != nil {
			req.release()
			break
		}
		reqs = append(reqs, req)
	}
	for _, req := range reqs {
		if res := <-req.done; res.err != nil && err == nil {
			err = res.err
		}
		req.release()
	}
	return err
}
