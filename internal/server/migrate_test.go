package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pax/internal/wire"
)

// Splitting must move exactly the keys whose slots the report lists — every
// key in a moved slot reroutes to the destination, every other key keeps its
// owner — and the new route must survive a reopen.
func TestSplitMovesOnlyMovedSlotKeys(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 16})

	const keys = 400
	before := make(map[string]int)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("prop-%04d", i)
		before[key] = eng.ShardFor([]byte(key))
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := eng.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != 0 || rep.Dest != 2 || !rep.NewShard || rep.Shards != 3 {
		t.Fatalf("unexpected report %+v", rep)
	}
	movedSlot := make(map[int]bool, len(rep.MovedSlots))
	for _, s := range rep.MovedSlots {
		movedSlot[s] = true
	}
	if len(rep.MovedSlots) == 0 || len(rep.MovedSlots) >= NumSlots/2 {
		t.Fatalf("split of one of two shards moved %d slots, want within (0, %d)", len(rep.MovedSlots), NumSlots/2)
	}

	moved := 0
	for key, owner := range before {
		got := eng.ShardFor([]byte(key))
		if movedSlot[SlotFor([]byte(key))] {
			if got != rep.Dest {
				t.Fatalf("key %s in a moved slot routes to %d, want dest %d", key, got, rep.Dest)
			}
			moved++
		} else if got != owner {
			t.Fatalf("key %s in an unmoved slot rerouted %d -> %d", key, owner, got)
		}
		if v, ok, err := eng.Get([]byte(key)); err != nil || !ok || string(v) != key {
			t.Fatalf("key %s unreadable after split: %q ok=%v err=%v", key, v, ok, err)
		}
	}
	if moved != rep.MovedKeys {
		t.Fatalf("report says %d moved keys, routing says %d", rep.MovedKeys, moved)
	}
	// The moved fraction tracks the moved-slot fraction: a uniform keyspace
	// cannot move much more of the data than of the slot space.
	frac := float64(moved) / keys
	bound := 2*float64(len(rep.MovedSlots))/NumSlots + 0.05
	if frac > bound {
		t.Fatalf("moved %.2f of the keys for %d/%d slots (bound %.2f)", frac, len(rep.MovedSlots), NumSlots, bound)
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := DiscoverShards(nil, pool)
	if err != nil || n != 3 {
		t.Fatalf("discover after split: %d %v", n, err)
	}
	re := newSharded(t, pool, n, Config{})
	defer re.Close()
	for key := range before {
		want := rep.Dest
		if !movedSlot[SlotFor([]byte(key))] {
			want = before[key]
		}
		if got := re.ShardFor([]byte(key)); got != want {
			t.Fatalf("key %s routes to %d after reopen, want %d", key, got, want)
		}
		if v, ok, err := re.Get([]byte(key)); err != nil || !ok || string(v) != key {
			t.Fatalf("key %s unreadable after reopen: %q ok=%v err=%v", key, v, ok, err)
		}
	}
}

// A split must be transparent to live traffic: writers keep acking durably
// throughout, and after a crash immediately post-split every acked write is
// still there.
func TestSplitUnderConcurrentWritersNoAckedLoss(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 16})

	const writers = 8
	var (
		mu    sync.Mutex
		acked = make(map[string]string)
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-%05d", w, i)
				val := fmt.Sprintf("v%d-%05d", w, i)
				if _, err := eng.Put([]byte(key), []byte(val)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				mu.Lock()
				acked[key] = val
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let some writes land pre-split
	rep, err := eng.Split(-1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // and some post-split
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}

	n, err := DiscoverShards(nil, pool)
	if err != nil || n != 3 {
		t.Fatalf("discover after crash: %d %v", n, err)
	}
	re := newSharded(t, pool, n, Config{})
	defer re.Close()
	for key, val := range acked {
		v, ok, err := re.Get([]byte(key))
		if err != nil || !ok || string(v) != val {
			t.Fatalf("acked key %s lost across split+crash: %q ok=%v err=%v (split %+v)", key, v, ok, err, rep)
		}
	}
	t.Logf("split %d -> %d moved %d slots / %d keys with %d concurrent acked writes intact",
		rep.Source, rep.Dest, len(rep.MovedSlots), rep.MovedKeys, len(acked))
}

// Auto-pick must choose the shard that served the most slot traffic.
func TestSplitAutoPicksHottestShard(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 16})
	defer eng.Close()

	// Find a key on shard 1 and hammer it so shard 1 is unambiguously hot.
	var hot []byte
	for i := 0; ; i++ {
		key := []byte(fmt.Sprintf("hot-%d", i))
		if eng.ShardFor(key) == 1 {
			hot = key
			break
		}
	}
	for i := 0; i < 300; i++ {
		if _, err := eng.Put(hot, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := eng.Split(-1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != 1 {
		t.Fatalf("auto split chose shard %d, want the hot shard 1", rep.Source)
	}
}

// A shard left with zero slots is reusable capacity: the next split must
// target it instead of growing the fleet.
func TestSplitReusesIdleShard(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 3, Config{MaxBatch: 16})
	defer eng.Close()

	for i := 0; i < 100; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("idle-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Drain shard 2: every slot it owns goes to shard 0.
	moves := map[int]int{}
	for _, slot := range eng.route.Load().slotsOf(2) {
		moves[slot] = 0
	}
	if err := moveSlots(eng, moves); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dest != 2 || rep.NewShard || rep.Shards != 3 {
		t.Fatalf("split did not reuse the idle shard: %+v", rep)
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("idle-%04d", i))
		if v, ok, err := eng.Get(key); err != nil || !ok || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("key %s unreadable after rebalance+split: ok=%v err=%v", key, ok, err)
		}
	}
}

// Crash window simulation: a crash mid-copy leaves orphan copies on the
// destination with the slot map still pointing at the source. The orphans
// must be purged at open, not resurrected.
func TestReopenPurgesOrphanCopies(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 8})

	key := []byte("purge-victim")
	owner := eng.ShardFor(key)
	other := 1 - owner
	if _, err := eng.Put(key, []byte("authoritative")); err != nil {
		t.Fatal(err)
	}
	// Plant the orphan exactly where a crashed migration would leave it: on
	// the non-owner, durable, with the slot map unchanged.
	if _, err := (*eng.shards.Load())[other].eng.Put(key, []byte("stale-copy")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := newSharded(t, pool, 2, Config{})
	defer re.Close()
	if v, ok, err := re.Get(key); err != nil || !ok || string(v) != "authoritative" {
		t.Fatalf("owner copy wrong after reopen: %q ok=%v err=%v", v, ok, err)
	}
	if _, ok, _ := (*re.shards.Load())[other].eng.Get(key); ok {
		t.Fatal("orphan copy survived reopen")
	}
	metrics, err := re.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if metrics["paxserve_reshard_purged_keys"] < 1 {
		t.Fatalf("purge not counted: %v", metrics["paxserve_reshard_purged_keys"])
	}
}

// Router metrics must reflect a split: seq advances, counters accumulate.
func TestSplitMetrics(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 8})
	defer eng.Close()
	for i := 0; i < 64; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("m-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := eng.Split(-1)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := eng.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics["paxserve_reshard_splits"]; got != 1 {
		t.Fatalf("paxserve_reshard_splits = %v, want 1", got)
	}
	if got := metrics["paxserve_reshard_moved_slots"]; got != float64(len(rep.MovedSlots)) {
		t.Fatalf("paxserve_reshard_moved_slots = %v, want %d", got, len(rep.MovedSlots))
	}
	if got := metrics["paxserve_slotmap_seq"]; got != float64(rep.Seq) {
		t.Fatalf("paxserve_slotmap_seq = %v, want %d", got, rep.Seq)
	}
}

// SPLIT over the wire: the fleet runs the migration and replies with the
// report JSON.
func TestSplitOverTCP(t *testing.T) {
	_, addr := serveTCP(t, newSharded(t, tempPool(t), 2, Config{MaxBatch: 8}))
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("tcp-%03d", i))
		if _, err := cl.Put(key, key); err != nil {
			t.Fatal(err)
		}
	}
	body, err := cl.Split(-1)
	if err != nil {
		t.Fatal(err)
	}
	var rep SplitReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decoding split report %q: %v", body, err)
	}
	if rep.Shards != 3 || len(rep.MovedSlots) == 0 {
		t.Fatalf("unexpected wire split report %+v", rep)
	}
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("tcp-%03d", i))
		if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, key) {
			t.Fatalf("key %s unreadable after wire split: ok=%v err=%v", key, ok, err)
		}
	}
	// Splitting an explicit out-of-range shard is an error reply, not a hang.
	if _, err := cl.Split(9); err == nil {
		t.Fatal("split of shard 9 of 3 succeeded")
	}
}

// The smallest server paxserve runs, one shard, splits and merges over the
// wire like any other fleet; a MERGE of its last shard is a clean error.
func TestSplitOneShardOverTCP(t *testing.T) {
	_, addr := serveTCP(t, newSharded(t, tempPool(t), 1, Config{MaxBatch: 8}))
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("one-%03d", i))
		if _, err := cl.Put(key, key); err != nil {
			t.Fatal(err)
		}
	}
	body, err := cl.Split(-1)
	if err != nil {
		t.Fatalf("SPLIT on a one-shard server: %v", err)
	}
	var rep SplitReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decoding split report %q: %v", body, err)
	}
	if rep.Shards != 2 || !rep.NewShard {
		t.Fatalf("split report %+v, want a new second shard", rep)
	}
	if body, err = cl.Merge(-1); err != nil {
		t.Fatalf("MERGE back to one shard: %v", err)
	}
	var mrep MergeReport
	if err := json.Unmarshal(body, &mrep); err != nil || mrep.Shards != 1 {
		t.Fatalf("merge report %q (%v), want one shard left", body, err)
	}
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("one-%03d", i))
		if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, key) {
			t.Fatalf("key %s after split and merge: ok=%v err=%v", key, ok, err)
		}
	}
	if _, err := cl.Merge(-1); err == nil {
		t.Fatal("MERGE of the last shard succeeded")
	}
}

// The drain fence a migration sends through the source's queue returns only
// once the writes ahead of it have committed, because only then are they in
// the read index the slot copy reads. Here a PUT to slot S waits in shard 0's
// open batch behind a held commit while S migrates to shard 1: once the
// commit is released, the PUT must be served from the destination and
// survive a crash. A fence answered at apply time would let the copy miss
// the PUT, which would then be acked on a shard no route reaches.
func TestDrainFenceWaitsForCommit(t *testing.T) {
	path := tempPool(t)
	fleet, src, ffs := faultyFleet(t, path, 2, Config{})
	var key, hold []byte
	for i := 0; hold == nil; i++ {
		k := []byte(fmt.Sprintf("fence-%d", i))
		switch {
		case fleet.ShardFor(k) != 0:
		case key == nil:
			key = k
		case SlotFor(k) != SlotFor(key):
			hold = k
		}
	}
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)
	holdErr := make(chan error, 1)
	go func() {
		_, err := fleet.Put(hold, []byte("x"))
		holdErr <- err
	}()
	m.awaitSync(t)

	putErr := make(chan error, 1)
	go func() {
		_, err := fleet.Put(key, []byte("v"))
		putErr <- err
	}()
	awaitQueued(t, src, 1)
	moved := make(chan error, 1)
	go func() { moved <- moveSlots(fleet, map[int]int{SlotFor(key): 1}) }()
	awaitQueued(t, src, 2) // the fence, behind the PUT
	m.releaseWith(nil)
	if err := <-holdErr; err != nil {
		t.Fatalf("held put: %v", err)
	}
	if err := <-putErr; err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := <-moved; err != nil {
		t.Fatalf("migrating slot %d: %v", SlotFor(key), err)
	}
	if got := fleet.ShardFor(key); got != 1 {
		t.Fatalf("key routes to shard %d after the move, want 1", got)
	}
	if v, ok, err := fleet.Get(key); err != nil || !ok || string(v) != "v" {
		t.Fatalf("acked PUT not served from the destination: %q ok=%v err=%v", v, ok, err)
	}
	if err := fleet.Crash(); err != nil {
		t.Fatal(err)
	}
	re := newSharded(t, path, 2, Config{})
	defer re.Close()
	if v, ok, err := re.Get(key); err != nil || !ok || string(v) != "v" {
		t.Fatalf("acked PUT lost across the move and a crash: %q ok=%v err=%v", v, ok, err)
	}
}

// moveSlots cuts each slot in moves over to its new shard, as Split and
// Merge do, under the fleet's migration lock.
func moveSlots(s *ShardedEngine, moves map[int]int) error {
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	_, err := s.migrateSlots(moves)
	return err
}
