package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pax"
	"pax/internal/epochlog"
)

// This file pins what OpenSharded decides from the files alone: which store
// a fleet persists through (always the delta epoch store, upgrading a
// full-image layout on first open) and what a missing slot-map sidecar means
// (the default map, or a refusal — never a migration).

// writeFullImageFleet lays down a 2-shard fleet the way the pre-delta daemon
// did: raw pool images, no epoch log, each key on the shard the default slot
// map routes it to, no sidecar. Each image is an in-memory pool's media
// right after its last Persist.
func writeFullImageFleet(t *testing.T, path string, keys int) []string {
	t.Helper()
	route := DefaultSlotMap(2)
	var maps [2]*pax.Map
	var pools [2]*pax.Pool
	for k := range pools {
		pool, err := pax.CreatePool("", smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		pools[k] = pool
		if maps[k], err = pax.NewMap(pool, 0); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]string, keys)
	for i := range out {
		out[i] = fmt.Sprintf("img-%04d", i)
		k := route.Assign[SlotFor([]byte(out[i]))]
		if err := maps[k].Put([]byte(out[i]), []byte(out[i])); err != nil {
			t.Fatal(err)
		}
	}
	for k, pool := range pools {
		if _, err := pool.Persist(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ShardPath(path, k), pool.Internal().PM().Snapshot(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// The auto-detect contract at fleet level: a full-image layout opens with
// options that never mention the store, serves every key, is a delta layout
// from then on, and keeps an acked write across a crash.
func TestOpenShardedUpgradesFullImageLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	keys := writeFullImageFleet(t, path, 200)

	eng, err := OpenSharded(path, 2, smallOpts(), 0, Config{})
	if err != nil {
		t.Fatalf("opening a full-image layout: %v", err)
	}
	verifyKeys(t, eng, keys)
	for k := 0; k < 2; k++ {
		if fi, err := os.Stat(ShardPath(path, k) + epochlog.DirSuffix); err != nil || !fi.IsDir() {
			t.Fatalf("shard %d has no epoch-log directory after the open: %v", k, err)
		}
	}
	if _, err := eng.Put([]byte("after-upgrade"), []byte("after-upgrade")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}

	eng, err = OpenSharded(path, 2, smallOpts(), 0, Config{})
	if err != nil {
		t.Fatalf("reopening after the crash: %v", err)
	}
	defer eng.Close()
	verifyKeys(t, eng, append(keys, "after-upgrade"))
}

// The failure the -epoch-log flag used to cause, at the level it bit: a
// delta fleet must reopen under the same options it was created with — the
// store is read off the disk. (Before there was one store, this flagless
// restart was refused with "has an epoch log with unconsumed segments".)
func TestFlaglessReopenOfDeltaFleet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	eng, err := OpenSharded(path, 2, smallOpts(), 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Put([]byte("k"), []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err = OpenSharded(path, 2, smallOpts(), 0, Config{})
	if err != nil {
		t.Fatalf("reopening a delta fleet: %v", err)
	}
	defer eng.Close()
	verifyKeys(t, eng, []string{"k"})
}

// A crash between OpenSharded creating the shard files and openRoute's first
// Save leaves shard files with no sidecar: the fleet must come up on the
// default map and write the sidecar it was about to write.
func TestMissingSlotMapOnFreshFleetIsRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	newSharded(t, path, 3, Config{}).Close()
	if err := os.Remove(SlotMapPath(path)); err != nil {
		t.Fatal(err)
	}

	eng := newSharded(t, path, 3, Config{})
	defer eng.Close()
	if _, err := eng.Put([]byte("k"), []byte("k")); err != nil {
		t.Fatal(err)
	}
	verifyKeys(t, eng, []string{"k"})
	m, err := LoadSlotMap(path)
	if err != nil || m == nil {
		t.Fatalf("sidecar not rewritten: %v %v", m, err)
	}
	if *m != *DefaultSlotMap(3) {
		t.Fatalf("rewritten sidecar is not the default map: %+v", m)
	}
}

// With keys in place the same state must still open: the default map is the
// map the fleet had, so every key is where it routes.
func TestMissingSlotMapKeepsEveryKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	eng := newSharded(t, path, 2, Config{})
	keys := plantDirect(t, eng, 300)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(SlotMapPath(path)); err != nil {
		t.Fatal(err)
	}

	eng = newSharded(t, path, 2, Config{})
	defer eng.Close()
	verifyKeys(t, eng, keys)
	if eng.reshard.purgedKeys.Load() != 0 {
		t.Fatalf("open without a sidecar purged %d keys", eng.reshard.purgedKeys.Load())
	}
}

// A key on a shard the default map does not route it to, and no sidecar to
// say which copy is current: the open is refused with a count, and the files
// are left as they were — nothing copied to the "right" shard, nothing
// deleted from the "wrong" one.
func TestMissingSlotMapRefusesMisplacedKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	eng := newSharded(t, path, 2, Config{})
	keys := plantDirect(t, eng, 50)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(SlotMapPath(path)); err != nil {
		t.Fatal(err)
	}

	// holders[key] is the shard whose pool holds key, read straight off the
	// pool files (OpenSharded closed, or refused and closed).
	holders := func() map[string]int {
		t.Helper()
		out := make(map[string]int)
		for k := 0; k < 2; k++ {
			pool, err := pax.MapPool(ShardPath(path, k), smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			m, err := pax.NewMap(pool, 0)
			if err != nil {
				t.Fatal(err)
			}
			m.ForEach(func(key, _ []byte) bool {
				if prev, dup := out[string(key)]; dup {
					t.Fatalf("key %q is on shards %d and %d", key, prev, k)
				}
				out[string(key)] = k
				return true
			})
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	stray := []byte("stray")
	wrong := 1 - int(DefaultSlotMap(2).Assign[SlotFor(stray)])
	pool, err := pax.MapPool(ShardPath(path, wrong), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(stray, stray); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	before := holders()
	if len(before) != len(keys)+1 || before["stray"] != wrong {
		t.Fatalf("setup: %d keys on disk, stray on shard %d (want %d keys, shard %d)", len(before), before["stray"], len(keys)+1, wrong)
	}

	_, err = OpenSharded(path, 2, smallOpts(), 0, Config{})
	if err == nil {
		t.Fatal("a misplaced key and no slot map opened")
	}
	for _, want := range []string{"1 key(s)", "predates slot routing"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not say %q", err, want)
		}
	}
	if _, err := os.Stat(SlotMapPath(path)); !os.IsNotExist(err) {
		t.Fatalf("refused open left a sidecar behind: %v", err)
	}
	after := holders()
	if len(after) != len(before) {
		t.Fatalf("refused open changed the key count: %d -> %d", len(before), len(after))
	}
	for key, k := range before {
		if after[key] != k {
			t.Fatalf("refused open moved %q from shard %d to %d", key, k, after[key])
		}
	}
}
