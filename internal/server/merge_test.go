package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pax/internal/faultfs"
	"pax/internal/seglog"
	"pax/internal/wire"
)

// shardFilesOnDisk counts real shard pool files at path (excluding staging
// litter, epoch-log directories, and the slot-map sidecar).
func shardFilesOnDisk(t *testing.T, path string) int {
	t.Helper()
	matches, err := filepath.Glob(path + ".shard-*")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, m := range matches {
		if strings.HasSuffix(m, ".tmp") || strings.HasSuffix(m, ".epochlog") {
			continue
		}
		n++
	}
	return n
}

// failShrinkPublish arms ffs to fail, with err, the rename that would publish
// fleet's slot map once victim owns no slot: the map that shrinks the fleet
// after a merge drained victim. Merge stops in its "drained, shrunk map not
// yet published" crash window.
func failShrinkPublish(ffs *faultfs.FS, fleet *ShardedEngine, pool string, victim int, err error) {
	tmp := SlotMapPath(pool) + seglog.TempSuffix
	ffs.Set(func(op faultfs.Op) error {
		if op.Kind != faultfs.Rename || op.Path != tmp {
			return nil
		}
		if route := fleet.route.Load(); len(route.slotsOf(victim)) == 0 {
			return err
		}
		return nil
	})
}

// plantDirect writes keys straight onto their owning shard engines,
// bypassing the router — so the per-slot op counters stay at zero, exactly
// like a fleet that was just reopened.
func plantDirect(t *testing.T, eng *ShardedEngine, keys int) []string {
	t.Helper()
	shards := *eng.shards.Load()
	out := make([]string, 0, keys)
	byShard := make([][]indexEntry, len(shards))
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("cold-%04d", i)
		k := eng.ShardFor([]byte(key))
		byShard[k] = append(byShard[k], indexEntry{key: []byte(key), value: []byte(key)})
		out = append(out, key)
	}
	for k, entries := range byShard {
		if err := pipeline(shards[k].eng, opPut, entries); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func verifyKeys(t *testing.T, eng *ShardedEngine, keys []string) {
	t.Helper()
	lost := 0
	for _, key := range keys {
		v, ok, err := eng.Get([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != key {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d keys lost", lost, len(keys))
	}
}

// Regression for the greedy-partition bug: with untouched per-slot counters
// (all zero), stayLoad <= moveLoad holds on every iteration and the old code
// moved zero slots — creating and leaking the destination shard while still
// counting a "split". A zero-load split must fall back to an even halving:
// ⌈N/2⌉ slots move, and no shard file is leaked as a zero-slot orphan.
func TestSplitZeroCountersMovesHalf(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 16})
	defer eng.Close()

	keys := plantDirect(t, eng, 200)

	route := eng.route.Load()
	owned := route.slotsOf(0)
	want := (len(owned) + 1) / 2

	rep, err := eng.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedSlots) == 0 {
		t.Fatalf("zero-counter split moved no slots (leaked shard %d): %+v", rep.Dest, rep)
	}
	if len(rep.MovedSlots) != want {
		t.Fatalf("zero-counter split moved %d slots, want even halving %d of %d", len(rep.MovedSlots), want, len(owned))
	}
	after := eng.route.Load()
	if got := len(after.slotsOf(rep.Dest)); got != want {
		t.Fatalf("dest owns %d slots, want %d", got, want)
	}
	if files := shardFilesOnDisk(t, pool); files != rep.Shards {
		t.Fatalf("%d shard files on disk, %d shards published — a file leaked", files, rep.Shards)
	}
	verifyKeys(t, eng, keys)
}

func TestMergeDrainsAndRetiresTopShard(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 3, Config{MaxBatch: 16})

	keys := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("m-%04d", i)
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	route := eng.route.Load()
	victimSlots := len(route.slotsOf(2))

	rep, err := eng.Merge(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Victim != 2 || rep.Retired != 2 || rep.Shards != 2 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if rep.MovedSlots != victimSlots {
		t.Fatalf("moved %d slots, victim owned %d", rep.MovedSlots, victimSlots)
	}
	if eng.NumShards() != 2 {
		t.Fatalf("fleet is %d shards, want 2", eng.NumShards())
	}
	after := eng.route.Load()
	if after.Shards != 2 {
		t.Fatalf("published map counts %d shards, want 2", after.Shards)
	}
	if files := shardFilesOnDisk(t, pool); files != 2 {
		t.Fatalf("%d shard files on disk, want 2 (retired file not removed)", files)
	}
	verifyKeys(t, eng, keys)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The shrunk layout must reopen cleanly and still hold every key.
	n, err := DiscoverShards(nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("DiscoverShards found %d, want 2", n)
	}
	re := newSharded(t, pool, 2, Config{})
	defer re.Close()
	verifyKeys(t, re, keys)
}

// Merging a victim that is not the highest-numbered shard must still retire
// the top file (the only one removable while the set stays contiguous): the
// victim drains to the coldest survivor, then the top shard's slots relocate
// onto the emptied victim index.
func TestMergeVictimNotTop(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 3, Config{MaxBatch: 16})
	defer eng.Close()

	keys := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("vnt-%04d", i)
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	rep, err := eng.Merge(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Victim != 0 || rep.Dest != 1 || rep.Retired != 2 || rep.Shards != 2 {
		t.Fatalf("unexpected report %+v", rep)
	}
	route := eng.route.Load()
	for slot, owner := range route.Assign {
		if int(owner) >= 2 {
			t.Fatalf("slot %d still routed to retired shard %d", slot, owner)
		}
	}
	if files := shardFilesOnDisk(t, pool); files != 2 {
		t.Fatalf("%d shard files on disk, want 2", files)
	}
	verifyKeys(t, eng, keys)
}

func TestMergeAutoPicksColdest(t *testing.T) {
	eng := newSharded(t, tempPool(t), 3, Config{MaxBatch: 16})
	defer eng.Close()

	// Drive traffic only at keys shard 1 does NOT own, so its cumulative
	// per-slot load stays zero and auto-pick must choose it.
	var keys []string
	for i := 0; len(keys) < 150; i++ {
		key := fmt.Sprintf("auto-%04d", i)
		if eng.ShardFor([]byte(key)) == 1 {
			continue
		}
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	rep, err := eng.Merge(-1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Victim != 1 {
		t.Fatalf("auto-pick chose shard %d, want coldest shard 1 (report %+v)", rep.Victim, rep)
	}
	if eng.NumShards() != 2 {
		t.Fatalf("fleet is %d shards, want 2", eng.NumShards())
	}
	verifyKeys(t, eng, keys)
}

// A fleet merges down to one shard, file-backed or not, and no further.
func TestMergeRefusesBelowOneShard(t *testing.T) {
	pool := filepath.Join(t.TempDir(), "kv.pool")
	eng := newSharded(t, pool, 1, Config{})
	defer eng.Close()
	if _, err := eng.Merge(-1); err == nil {
		t.Fatal("merging a one-shard fleet succeeded")
	}
	if eng.NumShards() != 1 || shardFilesOnDisk(t, pool) != 1 {
		t.Fatalf("refused merge left %d shards, %d shard files", eng.NumShards(), shardFilesOnDisk(t, pool))
	}
}

// The merge crash contract: a crash at every stage reopens with every acked
// write intact, and the retired shard is either fully gone or a zero-slot
// leftover the next Split adopts.
func TestMergeCrashStages(t *testing.T) {
	errBoom := errors.New("simulated crash window")

	open := func(t *testing.T, pool string, shards int) (*ShardedEngine, []string, *faultfs.FS) {
		eng, _, ffs := faultyFleet(t, pool, shards, Config{MaxBatch: 16})
		keys := make([]string, 0, 240)
		for i := 0; i < 240; i++ {
			key := fmt.Sprintf("crash-%04d", i)
			if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
		return eng, keys, ffs
	}

	t.Run("mid-cutover", func(t *testing.T) {
		pool := filepath.Join(t.TempDir(), "kv.pool")
		eng, keys, _ := open(t, pool, 3)
		// A merge drains the victim slot by slot through the ordinary
		// cutover; crashing mid-drain leaves some slots moved and the map
		// still counting 3 shards. Reproduce that state exactly: cut half of
		// shard 2's slots over, then die.
		moves := map[int]int{}
		victim := eng.route.Load().slotsOf(2)
		for _, slot := range victim[:len(victim)/2] {
			moves[slot] = 0
		}
		if err := moveSlots(eng, moves); err != nil {
			t.Fatal(err)
		}
		eng.Crash()

		n, err := DiscoverShards(nil, pool)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("DiscoverShards found %d, want 3", n)
		}
		re := newSharded(t, pool, n, Config{})
		defer re.Close()
		verifyKeys(t, re, keys)
	})

	t.Run("drained-before-publish", func(t *testing.T) {
		pool := filepath.Join(t.TempDir(), "kv.pool")
		eng, keys, ffs := open(t, pool, 3)
		failShrinkPublish(ffs, eng, pool, 2, errBoom)
		if _, err := eng.Merge(2); !errors.Is(err, errBoom) {
			t.Fatalf("merge returned %v, want the injected crash", err)
		}
		eng.Crash()

		// All slots left shard 2 but the shrink never published: reopen
		// finds 3 files, shard 2 owns zero slots, and the next Split adopts
		// it instead of creating a fourth shard.
		n, err := DiscoverShards(nil, pool)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("DiscoverShards found %d, want 3", n)
		}
		re := newSharded(t, pool, n, Config{})
		defer re.Close()
		verifyKeys(t, re, keys)
		route := re.route.Load()
		if got := len(route.slotsOf(2)); got != 0 {
			t.Fatalf("shard 2 owns %d slots after reopen, want 0", got)
		}
		rep, err := re.Split(0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.NewShard || rep.Dest != 2 {
			t.Fatalf("split did not adopt the leftover shard: %+v", rep)
		}
		verifyKeys(t, re, keys)
	})

	t.Run("published-before-removal", func(t *testing.T) {
		pool := filepath.Join(t.TempDir(), "kv.pool")
		eng, keys, ffs := open(t, pool, 3)
		top := ShardPath(pool, 2)
		ffs.Set(func(op faultfs.Op) error {
			if op.Kind == faultfs.Remove && op.Path == top {
				return errBoom
			}
			return nil
		})
		// The shrink is committed once the map publishes: a failed removal
		// is logged, not returned, and the fleet serves on 2 shards.
		var logged []string
		eng.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		if _, err := eng.Merge(2); err != nil {
			t.Fatalf("merge: %v", err)
		}
		if !slices.ContainsFunc(logged, func(l string) bool { return strings.Contains(l, errBoom.Error()) }) {
			t.Fatalf("failed removal not logged: %q", logged)
		}
		eng.Crash()

		// The shrunk map published but the file survived: a map counting
		// fewer shards than there are files is the legal adoptable-leftover
		// state, and a clean merge afterwards converges it fully.
		n, err := DiscoverShards(nil, pool)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("DiscoverShards found %d files, want 3 (file removal never ran)", n)
		}
		re := newSharded(t, pool, n, Config{})
		verifyKeys(t, re, keys)
		rep, err := re.Merge(2)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shards != 2 {
			t.Fatalf("converging merge left %d shards, want 2", rep.Shards)
		}
		verifyKeys(t, re, keys)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if files := shardFilesOnDisk(t, pool); files != 2 {
			t.Fatalf("%d shard files on disk after converging merge, want 2", files)
		}
		n, err = DiscoverShards(nil, pool)
		if err != nil {
			t.Fatal(err)
		}
		re2 := newSharded(t, pool, n, Config{})
		defer re2.Close()
		verifyKeys(t, re2, keys)
	})
}

func TestMergeOverTCP(t *testing.T) {
	_, addr := serveTCP(t, newSharded(t, tempPool(t), 3, Config{MaxBatch: 16}))
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("tcp-%03d", i))
		if _, err := cl.Put(key, key); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := cl.Merge(-1)
	if err != nil {
		t.Fatal(err)
	}
	var rep MergeReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("merge reply %q: %v", buf, err)
	}
	if rep.Shards != 2 {
		t.Fatalf("merge over TCP left %d shards, want 2: %+v", rep.Shards, rep)
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("tcp-%03d", i))
		v, ok, err := cl.Get(key)
		if err != nil || !ok || string(v) != string(key) {
			t.Fatalf("get %s after merge: %q ok=%v err=%v", key, v, ok, err)
		}
	}
}
