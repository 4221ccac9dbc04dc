package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pax"
	"pax/internal/wire"
)

// tempPool is a fleet path in a directory of its own that the test removes.
func tempPool(t *testing.T) string { return filepath.Join(t.TempDir(), "kv.pool") }

func newSharded(t *testing.T, path string, shards int, cfg Config) *ShardedEngine {
	t.Helper()
	eng, err := OpenSharded(path, shards, smallOpts(), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestShardPathLayout(t *testing.T) {
	if got := ShardPath("/d/kv.pool", 0); got != "/d/kv.pool.shard-0" {
		t.Fatalf("shard 0 path = %q; a one-shard fleet is a fleet too", got)
	}
	if got := ShardPath("/d/kv.pool", 2); got != "/d/kv.pool.shard-2" {
		t.Fatalf("shard path = %q", got)
	}
}

func TestDiscoverShards(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	touch := func(p string) {
		t.Helper()
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if n, err := DiscoverShards(nil, pool); n != 0 || err != nil {
		t.Fatalf("empty dir: %d %v", n, err)
	}
	touch(pool + ".shard-0")
	// Only the names ShardPath writes are shards: read as shard 1,
	// kv.pool.shard-01 would make this a 2-shard fleet, and opening it would
	// create an empty kv.pool.shard-1 beside it.
	for _, odd := range []string{"01", "+1", "-1"} {
		touch(pool + ".shard-" + odd)
		if n, err := DiscoverShards(nil, pool); err == nil || !strings.Contains(err.Error(), "unrecognized shard file") {
			t.Fatalf("shard-0 beside shard-%s: %d %v, want an unrecognized shard file", odd, n, err)
		}
		if err := os.Remove(pool + ".shard-" + odd); err != nil {
			t.Fatal(err)
		}
	}
	touch(pool + ".shard-1")
	touch(pool + ".shard-2")
	if n, err := DiscoverShards(nil, pool); n != 3 || err != nil {
		t.Fatalf("3 shard files: %d %v", n, err)
	}
	// A gap in the sequence is refused, not guessed at.
	if err := os.Remove(pool + ".shard-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverShards(nil, pool); err == nil {
		t.Fatal("gap in shard files not detected")
	}
	touch(pool + ".shard-1")
	// A bare pool file is not a fleet, beside shard files or alone.
	touch(pool)
	if _, err := DiscoverShards(nil, pool); !errors.Is(err, ErrBarePool) {
		t.Fatalf("bare file alongside shard files: %v, want ErrBarePool", err)
	}
	for k := 0; k < 3; k++ {
		if err := os.Remove(fmt.Sprintf("%s.shard-%d", pool, k)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := DiscoverShards(nil, pool); n != 0 || !errors.Is(err, ErrBarePool) {
		t.Fatalf("bare file: %d %v, want ErrBarePool", n, err)
	}
}

// A crash mid-Sync leaves <shard>.tmp staging files behind; discovery must
// count shards past them instead of refusing the layout as unrecognized.
func TestDiscoverShardsIgnoresStaleTemps(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	touch := func(p string) {
		t.Helper()
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	touch(pool + ".shard-0")
	touch(pool + ".shard-1")
	touch(pool + ".shard-0.tmp")
	if n, err := DiscoverShards(nil, pool); n != 2 || err != nil {
		t.Fatalf("2 shards + stale temp: %d %v", n, err)
	}
	// Only litter, no shards: nothing to discover.
	if err := os.Remove(pool + ".shard-0"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(pool + ".shard-1"); err != nil {
		t.Fatal(err)
	}
	if n, err := DiscoverShards(nil, pool); n != 0 || err != nil {
		t.Fatalf("temp only: %d %v", n, err)
	}
}

// A fleet is its files: a path that names none is refused before any file
// is made.
func TestOpenShardedRefusesEmptyPath(t *testing.T) {
	for _, path := range []string{"", ".", "/"} {
		if fleet, err := OpenSharded(path, 1, smallOpts(), 0, Config{}); err == nil {
			fleet.Close()
			t.Fatalf("OpenSharded(%q) opened a fleet", path)
		}
		for _, p := range []string{ShardPath(path, 0), SlotMapPath(path)} {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused OpenSharded(%q) left %s: %v", path, p, err)
			}
		}
	}
}

func TestShardedBasicOpsAndMergedStats(t *testing.T) {
	eng := newSharded(t, tempPool(t), 4, Config{MaxBatch: 8})
	defer eng.Close()

	const keys = 64
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		if _, err := eng.Put(key, append([]byte("val-"), key...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		v, ok, err := eng.Get(key)
		if err != nil || !ok || !bytes.Equal(v, append([]byte("val-"), key...)) {
			t.Fatalf("get %s: %q ok=%v err=%v", key, v, ok, err)
		}
	}
	if found, _, err := eng.Delete([]byte("key-000")); err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, ok, _ := eng.Get([]byte("key-000")); ok {
		t.Fatal("deleted key still visible")
	}
	if ep, err := eng.Persist(); err != nil || ep == 0 {
		t.Fatalf("persist: %d %v", ep, err)
	}

	// Uniform keys should touch every shard.
	agg := eng.AggregateStats()
	if agg.AckedWrites != keys+1 {
		t.Fatalf("acked writes = %d, want %d", agg.AckedWrites, keys+1)
	}
	text, err := eng.StatsText()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		label := fmt.Sprintf("paxserve_acked_writes{shard=%q}", fmt.Sprint(k))
		if !strings.Contains(text, label) {
			t.Fatalf("stats missing per-shard metric %s:\n%s", label, text)
		}
	}
	for _, name := range []string{"paxserve_shards 4", "paxserve_acked_writes 65"} {
		if !strings.Contains(text, name) {
			t.Fatalf("stats missing aggregate %q:\n%s", name, text)
		}
	}
}

// TestShardedCrashRecovery is the acceptance-criteria test: kill the engine
// mid-load with N>1 shards, reopen the same files, and check both directions
// of the durability contract — every acked write survives, every write that
// failed with the crash rolled back.
func TestShardedCrashRecovery(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, shards, Config{MaxBatch: 4})

	var (
		mu    sync.Mutex
		acked = map[string]string{}
		lost  = map[string]bool{}
	)
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; ; op++ {
				key := fmt.Sprintf("c%d-%04d", c, op)
				val := fmt.Sprintf("v%d-%04d", c, op)
				_, err := eng.Put([]byte(key), []byte(val))
				mu.Lock()
				if err != nil {
					lost[key] = true
				} else {
					acked[key] = val
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	// Let every shard commit a few batches, then pull the plug mid-load.
	for eng.AggregateStats().GroupCommits < 3*shards {
		time.Sleep(time.Millisecond)
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(acked) == 0 || len(lost) == 0 {
		t.Fatalf("crash timing degenerate: %d acked, %d lost", len(acked), len(lost))
	}

	reopened := newSharded(t, pool, shards, Config{MaxBatch: 4})
	defer reopened.Close()
	for key, want := range acked {
		v, ok, err := reopened.Get([]byte(key))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("acked write %s lost by crash: %q ok=%v err=%v (shard %d)",
				key, v, ok, err, reopened.ShardFor([]byte(key)))
		}
	}
	for key := range lost {
		if _, ok, _ := reopened.Get([]byte(key)); ok {
			t.Fatalf("unacked write %s survived the crash (shard %d)",
				key, reopened.ShardFor([]byte(key)))
		}
	}
	t.Logf("crash at %d acked / %d in-flight across %d shards; all semantics held",
		len(acked), len(lost), shards)
}

// TestDurableEpochAfterClose: Close and Crash unmap every shard's media, so
// DurableEpoch afterwards answers from teardown — the epoch the fleet was
// sealed at, which is the one a reopen recovers (paxserve prints it on exit).
func TestDurableEpochAfterClose(t *testing.T) {
	pool := tempPool(t)
	for _, stop := range []string{"Close", "Crash"} {
		eng := newSharded(t, pool, 2, Config{})
		for i := 0; i < 8; i++ {
			if _, err := eng.Put([]byte(fmt.Sprintf("%s-%d", stop, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if stop == "Close" {
			err = eng.Close()
		} else {
			err = eng.Crash()
		}
		if err != nil {
			t.Fatal(err)
		}
		sealed := eng.DurableEpoch()
		reopened := newSharded(t, pool, 2, Config{})
		got := reopened.DurableEpoch()
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		if sealed == 0 || sealed != got {
			t.Fatalf("after %s: DurableEpoch %d, reopen recovers %d", stop, sealed, got)
		}
	}
}

// Router stability: the key→shard mapping must be a pure function of key and
// shard count, or a restart would look for keys in the wrong pool.
func TestShardedRouterStableAcrossRestart(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")

	eng := newSharded(t, pool, shards, Config{MaxBatch: 16})
	route := map[string]int{}
	for i := 0; i < 48; i++ {
		key := fmt.Sprintf("stable-%03d", i)
		route[key] = eng.ShardFor([]byte(key))
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The files on disk describe the layout; discovery must agree.
	if n, err := DiscoverShards(nil, pool); n != shards || err != nil {
		t.Fatalf("discover after close: %d %v", n, err)
	}
	reopened := newSharded(t, pool, shards, Config{})
	defer reopened.Close()
	for key, shard := range route {
		if got := reopened.ShardFor([]byte(key)); got != shard {
			t.Fatalf("key %s moved shard %d -> %d across restart", key, shard, got)
		}
		v, ok, err := reopened.Get([]byte(key))
		if err != nil || !ok || string(v) != key {
			t.Fatalf("key %s unreadable after restart: %q ok=%v err=%v", key, v, ok, err)
		}
	}
}

// The TCP server must work identically over a multi-shard fleet,
// including the fan-out ops (PERSIST, STATS).
func TestShardedTCPServer(t *testing.T) {
	_, addr := serveTCP(t, newSharded(t, tempPool(t), 2, Config{MaxBatch: 8}))
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("wire-%02d", i))
		if _, err := cl.Put(key, key); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, key) {
			t.Fatalf("get over wire: %q ok=%v err=%v", v, ok, err)
		}
	}
	if ep, err := cl.Persist(); err != nil || ep == 0 {
		t.Fatalf("persist over wire: %d %v", ep, err)
	}
	text, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{`paxserve_acked_writes{shard="0"}`, `paxserve_acked_writes{shard="1"}`, "paxserve_shards 2"} {
		if !strings.Contains(text, metric) {
			t.Fatalf("sharded stats reply missing %s:\n%s", metric, text)
		}
	}
}

// An Overwrite reformat must clear whichever layout was there before, so a
// shard-count change cannot strand stale files for discovery to trip over.
func TestOpenShardedOverwriteReplacesLayout(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")

	eng := newSharded(t, pool, 1, Config{})
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	opts := smallOpts()
	opts.Overwrite = true
	eng2, err := OpenSharded(pool, 3, opts, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, ok, _ := eng2.Get([]byte("k")); ok {
		t.Fatal("reformat kept old data")
	}
	if n, err := DiscoverShards(nil, pool); n != 3 || err != nil {
		t.Fatalf("discover after reformat: %d %v", n, err)
	}
}

// A reformat removes pool files, not directories: a non-empty directory at
// the pool path (a mistyped -pool) fails the Overwrite, and neither it nor
// the fleet beside it loses a file.
func TestOverwriteRefusesDirectoryAtPoolPath(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 1, Config{})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(pool, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pool, "keep"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	tree := func() []string {
		var paths []string
		filepath.WalkDir(dir, func(p string, _ os.DirEntry, err error) error {
			paths = append(paths, p)
			return err
		})
		return paths
	}
	before := tree()

	opts := smallOpts()
	opts.Overwrite = true
	if eng, err := OpenSharded(pool, 1, opts, 0, Config{}); err == nil {
		eng.Close()
		t.Fatal("Overwrite over a non-empty directory at the pool path succeeded")
	}
	if after := tree(); !slices.Equal(after, before) {
		t.Fatalf("failed Overwrite changed the tree:\nbefore %q\nafter  %q", before, after)
	}
}

// A file-backed fleet opened with one shard is <p>.shard-0 beside
// <p>.slotmap, like any other fleet: it splits to two shards under durable
// writers and merges back to one, and a crash after each loses no acked key.
func TestOneShardFleetSplitsAndMergesBack(t *testing.T) {
	pool := filepath.Join(t.TempDir(), "kv.pool")
	eng := newSharded(t, pool, 1, Config{MaxBatch: 16})
	for _, p := range []string{ShardPath(pool, 0), SlotMapPath(pool)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("one-shard fleet: %v", err)
		}
	}
	if _, err := os.Stat(pool); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("one-shard fleet left a bare %s (stat: %v)", pool, err)
	}
	var keys []string
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("before-%03d", i)
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("during-%d-%04d", w, i)
				if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
					t.Errorf("durable put during split: %v", err)
					return
				}
				mu.Lock()
				keys = append(keys, key)
				mu.Unlock()
			}
		}(w)
	}
	rep, err := eng.Split(-1)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != 0 || rep.Dest != 1 || !rep.NewShard || rep.Shards != 2 {
		t.Fatalf("split report %+v, want shard 0 split onto a new shard 1", rep)
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	if n, err := DiscoverShards(nil, pool); n != 2 || err != nil {
		t.Fatalf("discover after split and crash: %d %v", n, err)
	}
	two := newSharded(t, pool, 2, Config{MaxBatch: 16})
	verifyKeys(t, two, keys)

	mrep, err := two.Merge(-1)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Shards != 1 {
		t.Fatalf("merge report %+v, want one shard left", mrep)
	}
	if err := two.Crash(); err != nil {
		t.Fatal(err)
	}
	if n, err := DiscoverShards(nil, pool); n != 1 || err != nil {
		t.Fatalf("discover after merge and crash: %d %v", n, err)
	}
	one := newSharded(t, pool, 1, Config{})
	defer one.Close()
	verifyKeys(t, one, keys)
	t.Logf("%d acked keys survived 1 -> 2 -> 1 shards with a crash after each", len(keys))
}

// writeBarePool writes keys into a bare single-file pool at path through the
// library, the way the unsharded daemon stored one-shard pools.
func writeBarePool(t *testing.T, path string, keys []string) {
	t.Helper()
	p, err := pax.CreatePool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	kv, err := pax.NewMap(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if err := kv.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// dirContents maps every file under dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		out[p] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A bare <p> pool file is refused, with nothing on disk touched and the two
// renames that convert it named; after those renames the same keys open as a
// one-shard fleet, and Overwrite reformats a bare pool in place.
func TestBarePoolRefusedUntilRenamed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.pool")
	var keys []string
	for i := 0; i < 32; i++ {
		keys = append(keys, fmt.Sprintf("bare-%02d", i))
	}
	writeBarePool(t, path, keys)
	before := dirContents(t, dir)

	renames := []string{
		path + " -> " + path + ".shard-0",
		path + ".epochlog -> " + path + ".shard-0.epochlog",
	}
	_, discoverErr := DiscoverShards(nil, path)
	_, openErr := OpenSharded(path, 1, smallOpts(), 0, Config{})
	for _, err := range []error{discoverErr, openErr} {
		if !errors.Is(err, ErrBarePool) {
			t.Fatalf("bare pool: %v, want ErrBarePool", err)
		}
		for _, r := range renames {
			if !strings.Contains(err.Error(), r) {
				t.Fatalf("refusal %q does not name the rename %q", err, r)
			}
		}
	}
	after := dirContents(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refusal changed the directory: %d files before, %d after", len(before), len(after))
	}
	for p, b := range before {
		if after[p] != b {
			t.Fatalf("refusal changed %s", p)
		}
	}

	if err := os.Rename(path, ShardPath(path, 0)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".epochlog", ShardPath(path, 0)+".epochlog"); err != nil {
		t.Fatal(err)
	}
	if n, err := DiscoverShards(nil, path); n != 1 || err != nil {
		t.Fatalf("discover after the renames: %d %v", n, err)
	}
	fleet := newSharded(t, path, 1, Config{})
	verifyKeys(t, fleet, keys)
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := filepath.Join(t.TempDir(), "kv.pool")
	writeBarePool(t, fresh, keys)
	opts := smallOpts()
	opts.Overwrite = true
	re, err := OpenSharded(fresh, 1, opts, 0, Config{})
	if err != nil {
		t.Fatalf("Overwrite over a bare pool: %v", err)
	}
	defer re.Close()
	if _, ok, _ := re.Get([]byte(keys[0])); ok {
		t.Fatal("reformat kept the bare pool's data")
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("reformat left the bare file (stat: %v)", err)
	}
	if n, err := DiscoverShards(nil, fresh); n != 1 || err != nil {
		t.Fatalf("discover after reformat: %d %v", n, err)
	}
}

func TestOpenShardedFirstErrorWins(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	// Pre-plant a directory where shard 1's file should go: that shard's
	// open fails, and the whole OpenSharded must fail and clean up.
	if err := os.Mkdir(pool+".shard-1", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(pool, 3, smallOpts(), 0, Config{}); err == nil {
		t.Fatal("OpenSharded succeeded over an unopenable shard")
	}
}
