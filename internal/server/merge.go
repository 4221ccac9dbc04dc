package server

import (
	"fmt"

	"pax/internal/blackbox"
	"pax/internal/seglog"
)

// This file is the inverse of Split: Merge drains one shard and shrinks the
// fleet by one, live. It reuses the per-slot cutover contract from migrate.go
// wholesale — every slot leaves the retiring shard under the same
// gate/barrier/copy/publish sequence a split uses — and adds exactly one new
// commit point: the publish of a slot map whose Shards count shrank.
//
// # Why the highest-numbered shard file is the one retired
//
// DiscoverShards requires <path>.shard-0..N-1 to be contiguous, so the only
// shard file that can be removed without breaking reopen is the top one.
// Merge therefore always retires shard N-1's file. When the chosen victim is
// not N-1, its slots first drain onto the destination, then shard N-1's
// slots relocate onto the now-empty victim index — each slot still moves
// under one ordinary cutover, and the file that disappears is the top one.
//
// # Crash windows (the merge crash contract, DESIGN.md)
//
//   - Crash mid-cutover: identical to a crashed split — the per-slot publish
//     is the commit point, open-time purge erases whichever side lost.
//   - Crash after the slots drained but before the shrunk map publishes
//     (the rename of <path>.slotmap.tmp that carries Shards = N-1): the map
//     still counts N shards; reopen finds N files, the top shard owns zero
//     slots, and the next Split adopts it (the documented crashed-split
//     leftover state).
//   - Crash after the shrunk map publishes but before the top shard's file
//     is removed: reopen finds N files and a map naming N-1 — legal,
//     "fewer is fine" — and openRoute records the extra zero-slot shard as
//     adoptable. A later Merge (or Split) converges it.
//   - Crash after the file is removed: a clean N-1 layout.
//
// Every acked write is on a routed shard in all four windows. The windows
// are file states, so tests reach them by failing that rename or that
// removal through a faultfs.

// MergeReport describes one completed Merge: which shard drained where, and
// what was retired.
type MergeReport struct {
	// Victim is the shard whose load was merged away; Dest received its
	// slots.
	Victim int `json:"victim"`
	Dest   int `json:"dest"`
	// Retired is the shard index whose file was removed — always the highest
	// index, the only one removable while the on-disk set stays contiguous.
	// When Victim != Retired, the retired shard's slots relocated onto the
	// drained victim index.
	Retired int `json:"retired"`
	// Shards is the fleet size after the merge.
	Shards int `json:"shards"`
	// MovedSlots counts the slot cutovers published (victim drain plus any
	// top-shard relocation); MovedKeys counts the keys copied.
	MovedSlots int `json:"moved_slots"`
	MovedKeys  int `json:"moved_keys"`
	// Seq is the slot map sequence number after the shrink published.
	Seq uint64 `json:"slotmap_seq"`
}

// Merge drains one shard and shrinks the fleet by one, live. victim names
// the shard to drain, or -1 to pick the shard with the least per-slot load
// (windowed when the autopilot runs, cumulative otherwise). Its slots cut
// over to the coldest surviving shard one at a time under the Split crash
// contract; the shrunk assignment then publishes (the commit point for the
// fleet shrink), the live shard slice shrinks, and the top shard's engine is
// closed and its file removed. A crash anywhere in between converges at next
// open — see the crash-window taxonomy at the top of this file. A fleet
// merges down to one shard; with two shards the top is the one drained,
// whichever victim was named.
//
// Concurrent per-key traffic is safe throughout (slots stall only while
// their own cutover runs). A concurrent fleet-wide Persist/Stats that
// sampled the old shard slice may race the retiring engine's close and
// report an error for it; per-key requests never can, because no published
// route references the retired shard by then.
func (s *ShardedEngine) Merge(victim int) (rep *MergeReport, err error) {
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()

	m := s.route.Load()
	shards := *s.shards.Load()
	n := len(shards)
	if n < 2 {
		return nil, fmt.Errorf("server: %d shard(s); nothing to merge", n)
	}
	if victim < 0 {
		victim = s.coldestShard(m)
	}
	if victim >= n {
		return nil, fmt.Errorf("server: merge victim %d out of range (%d shards)", victim, n)
	}

	top := n - 1
	if n == 2 {
		// Only the top file is removable, and with two shards the only
		// possible end state is every slot on shard 0: drain the top into it
		// directly instead of moving the victim's keys there and back.
		victim = top
	}
	rep = &MergeReport{Victim: victim, Retired: top, Dest: -1, Shards: n}

	// The destination takes the victim's slots: the coldest shard that is
	// neither the victim nor the retiring top index (which must end empty).
	loads := s.shardLoads(m)
	for k := 0; k < n; k++ {
		if k == victim || (k == top && victim != top) {
			continue
		}
		if rep.Dest < 0 || loads[k] < loads[rep.Dest] {
			rep.Dest = k
		}
	}
	// Every exit after this point — success or abort — closes the timeline
	// with a done event; a journal holding merge_start with no
	// merge_done means the process died inside the merge, and the last stage
	// event names the crash window.
	s.events.emit(blackbox.EvMergeStart, -1, mergeDetail{Report: rep})
	defer func() {
		d := mergeDetail{Report: rep}
		if err != nil {
			d.Error = err.Error()
		}
		s.events.emit(blackbox.EvMergeDone, -1, d)
	}()

	drain := func(from, to int) error {
		moves := make(map[int]int)
		for _, slot := range s.route.Load().slotsOf(from) {
			moves[slot] = to
		}
		counts, err := s.migrateSlots(moves)
		rep.MovedSlots += len(counts)
		for _, c := range counts {
			rep.MovedKeys += c
		}
		return err
	}
	if err := drain(victim, rep.Dest); err != nil {
		rep.Seq = s.route.Load().Seq
		return rep, err
	}
	if victim != top {
		// Relocate the top shard's slots onto the drained victim index so the
		// top file — the only removable one — ends empty.
		if err := drain(top, victim); err != nil {
			rep.Seq = s.route.Load().Seq
			return rep, err
		}
	}
	// Stage event first: a crash before the shrink publishes must still find
	// the drained event in the journal.
	s.events.emit(blackbox.EvMergeDrained, -1, mergeDetail{Report: rep})

	// Commit point for the shrink: publish an assignment that counts one
	// shard fewer. Nothing references the top index anymore, so the map
	// validates; once this rename lands, reopen treats any surviving top
	// shard file as an adoptable zero-slot leftover.
	next := s.route.Load().clone()
	next.Seq++
	next.Shards = top
	if err := next.Save(s.opts.FS, s.path); err != nil {
		rep.Seq = s.route.Load().Seq
		return rep, fmt.Errorf("server: publishing shrunk slot map: %w", err)
	}
	s.route.Store(next)
	rep.Seq = next.Seq
	s.events.emit(blackbox.EvMergePublished, -1, mergeDetail{Report: rep})

	// Shrink the published fleet before touching the retiring engine: new
	// fan-outs (Persist/Stats/Metrics) load the short slice and never see it.
	rest := make([]shard, top)
	copy(rest, shards)
	s.shards.Store(&rest)
	rep.Shards = top

	// Retire: the engine holds no routed keys (at most stale copies whose
	// migration cleanup failed), so a close failure here cannot lose acked
	// state — log it and keep going; the file removal is what reclaims the
	// space either way.
	retired := shards[top]
	if err := retired.eng.Close(); err != nil {
		s.logf("server: merge: closing retired shard %d: %v", top, err)
	}
	if err := retired.pool.Close(); err != nil {
		s.logf("server: merge: closing retired shard %d pool: %v", top, err)
	}
	sp := ShardPath(s.path, top)
	if err := removePool(s.opts.FS, sp); err != nil {
		s.logf("server: merge: removing retired shard %d: %v", top, err)
	}
	_ = s.opts.FS.Remove(sp + seglog.TempSuffix)
	s.reshard.merges.Add(1)
	s.logf("server: merge: shard %d drained to %d, shard %d retired (%d shards, %d slots, %d keys moved)",
		victim, rep.Dest, top, rep.Shards, rep.MovedSlots, rep.MovedKeys)
	return rep, nil
}

// coldestShard returns the least-loaded shard by the per-slot load signal
// (ties to the lowest index).
func (s *ShardedEngine) coldestShard(m *SlotMap) int {
	loads := s.shardLoads(m)
	best := 0
	for k := 1; k < len(loads); k++ {
		if loads[k] < loads[best] {
			best = k
		}
	}
	return best
}
