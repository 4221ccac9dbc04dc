package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pax"
	"pax/internal/epochlog"
	"pax/internal/faultfs"
)

// This file is the chaos harness for the epoch store at the file level: the
// same acked-write contract as chaos_test.go, but over file-backed pools
// whose commits are delta appends into <pool>.epochlog/. Crashes are simulated by copying the on-disk
// state (checkpoint + segments) mid-run and reopening the copy — exactly
// what a post-crash recovery sees.

// crashCopy clones a pool's durable state — the checkpoint file and, if
// present, its epoch-log segment directory — to dst. The clone is what
// survives a crash at this instant.
func crashCopy(t *testing.T, src, dst string) {
	t.Helper()
	img, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, img, 0o644); err != nil {
		t.Fatal(err)
	}
	srcDir := src + epochlog.DirSuffix
	entries, err := os.ReadDir(srcDir)
	if errors.Is(err, os.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	dstDir := dst + epochlog.DirSuffix
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dstDir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaEngineAckedWritesSurviveCrash: every write the engine acks is on
// disk as a committed delta, so a crash copy taken at
// any point after the acks recovers all of them.
func TestDeltaEngineAckedWritesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.pool")
	pool, err := pax.CreatePool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Internal().PM().EpochStore() == nil {
		t.Fatal("pool opened without the epoch store")
	}
	eng, err := newEngine(pool, 0, Config{MaxBatch: 8}, 0, newEventHub())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const keys = 32
	for i := 0; i < keys; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Quiesce any background checkpoint so the copy is not taken mid-fold.
	device(pool).WaitCheckpoint()

	crash := filepath.Join(dir, "crash.pool")
	crashCopy(t, path, crash)
	if has, err := epochlog.HasSegments(crash + epochlog.DirSuffix); err != nil || !has {
		t.Fatalf("crash copy has no delta segments (has=%v err=%v)", has, err)
	}

	re, err := pax.OpenPool(crash, smallOpts())
	if err != nil {
		t.Fatalf("reopening crash copy: %v", err)
	}
	defer re.Close()
	reng, err := newEngine(re, 0, Config{MaxBatch: 8}, 0, newEventHub())
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	for i := 0; i < keys; i++ {
		v, ok, err := reng.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("acked write lost after crash: key-%d = %q (ok=%v err=%v)", i, v, ok, err)
		}
	}
}

// TestDeltaTransientFaultRetriesAndAcks: the FailSyncs schedule means the
// same thing in delta mode — the append fsync fails, the dirty ranges stay
// dirty, and the retry re-appends them — so a transient fault inside the
// retry budget is invisible to the client.
func TestDeltaTransientFaultRetriesAndAcks(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	pool, err := pax.CreatePool(filepath.Join(dir, "kv.pool"), faultyOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	eng, err := newEngine(pool, 0, Config{MaxBatch: 4, CommitRetryDelay: time.Millisecond}, 0, newEventHub())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ffs.Set(faultfs.FailSyncs(logSyncs, 2, errInjected))
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put through transient delta fault: %v", err)
	}
	if got := eng.Stats().CommitRetries.Load(); got != 2 {
		t.Fatalf("commit retries = %d, want 2", got)
	}
	if err := eng.SealErr(); err != nil {
		t.Fatalf("engine sealed by a transient fault: %v", err)
	}
	if v, ok, err := eng.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get after retried commit: %q %v %v", v, ok, err)
	}
}

// TestDeltaPersistentFaultSealsEngine: FailSyncsAfter seals an epoch-log
// engine fail-stop.
func TestDeltaPersistentFaultSealsEngine(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	pool, err := pax.CreatePool(filepath.Join(dir, "kv.pool"), faultyOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	eng, err := newEngine(pool, 0, Config{MaxBatch: 4, CommitRetries: -1}, 0, newEventHub())
	if err != nil {
		t.Fatal(err)
	}

	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	if _, err := eng.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrSealed) {
		t.Fatalf("put on failing delta media: %v, want ErrSealed", err)
	}
	if _, _, err := eng.Get([]byte("k")); !errors.Is(err, ErrSealed) {
		t.Fatalf("get after seal: %v", err)
	}
	if err := eng.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close of sealed engine = %v, want its seal error", err)
	}
}

// TestShardedEpochLogDiscoveryAndOverwrite: a sharded epoch-log layout has a
// .epochlog directory next to every shard file. Discovery must count only
// the shard files, reopening must recover every shard from its deltas, and
// -overwrite must clear the segment directories along with the shard files
// (stale segments must never replay onto a reformatted pool).
func TestShardedEpochLogDiscoveryAndOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.pool")
	cfg := Config{MaxBatch: 8}
	opts := smallOpts()
	opts.Overwrite = true
	s, err := OpenSharded(path, 4, opts, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 32
	for i := 0; i < keys; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("v1")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		segDir := ShardPath(path, k) + epochlog.DirSuffix
		if has, err := epochlog.HasSegments(segDir); err != nil || !has {
			t.Fatalf("shard %d has no segment directory (has=%v err=%v)", k, has, err)
		}
	}

	// The .epochlog directories match the kv.pool.shard-* glob; discovery
	// must not count them as shards.
	n, err := DiscoverShards(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("DiscoverShards = %d, want 4 (epoch-log dirs miscounted?)", n)
	}

	// Reopen: every shard recovers from checkpoint + deltas.
	reopenOpts := smallOpts()
	s2, err := OpenSharded(path, 4, reopenOpts, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		v, ok, err := s2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil || !ok || string(v) != "v1" {
			t.Fatalf("key-%d lost across sharded reopen: %q %v %v", i, v, ok, err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Overwrite reformats: the old keys and the old segments are both gone.
	s3, err := OpenSharded(path, 4, opts, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for i := 0; i < keys; i++ {
		if _, ok, err := s3.Get([]byte(fmt.Sprintf("key-%d", i))); err != nil || ok {
			t.Fatalf("key-%d survived -overwrite (ok=%v err=%v)", i, ok, err)
		}
	}
}
