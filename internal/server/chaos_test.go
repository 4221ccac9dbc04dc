package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pax"
	"pax/internal/blackbox"
	"pax/internal/epochlog"
	"pax/internal/faultfs"
	"pax/internal/pmem"
)

// This file is the durability-fault chaos harness: it sweeps injected media
// fault schedules (transient, persistent, mid-shutdown) over single and
// sharded engines and asserts the crash-consistency contract under failure:
// no acked write is ever lost, no panic escapes the persist path, a sealed
// shard takes down only its own keyspace, and health stays observable.

var errInjected = errors.New("injected EIO")

// device reaches the simulated media under an engine's pool.
func device(p *pax.Pool) *pmem.Device { return p.Internal().PM() }

// logSyncs matches the epoch-log segment files of every pool on an FS: their
// fsyncs are the media commits a fault schedule counts.
func logSyncs(path string) bool {
	return filepath.Ext(path) == ".seg" && strings.HasSuffix(filepath.Dir(path), epochlog.DirSuffix)
}

// faultyOpts is smallOpts on ffs, with regions shrunk to what a faulted
// test writes: its pool is a real file, published zero-filled at creation.
func faultyOpts(ffs *faultfs.FS) pax.Options {
	opts := smallOpts()
	opts.DataSize, opts.LogSize, opts.FS = 2<<20, 1<<20, ffs
	return opts
}

// faultyEngine is newTestEngine on a file-backed pool — an in-memory pool
// has no file to fault — whose files go through the returned faultfs. Path
// "" puts the pool under t.TempDir().
func faultyEngine(t *testing.T, path string, cfg Config) (*pax.Pool, *Engine, *faultfs.FS) {
	t.Helper()
	if path == "" {
		path = filepath.Join(t.TempDir(), "kv.pool")
	}
	ffs := faultfs.New(nil)
	pool, err := pax.MapPool(path, faultyOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(pool, 0, cfg, 0, newEventHub())
	if err != nil {
		t.Fatal(err)
	}
	return pool, eng, ffs
}

// faultyFleet is newSharded on files whose operations all go through the
// returned faultfs, with shard 0's engine beside it. Path "" puts the fleet
// under t.TempDir().
func faultyFleet(t *testing.T, path string, shards int, cfg Config) (*ShardedEngine, *Engine, *faultfs.FS) {
	t.Helper()
	if path == "" {
		path = filepath.Join(t.TempDir(), "kv.pool")
	}
	ffs := faultfs.New(nil)
	fleet, err := OpenSharded(path, shards, faultyOpts(ffs), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, (*fleet.shards.Load())[0].eng, ffs
}

func TestChaosTransientFaultRetriesAndAcks(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{MaxBatch: 4, CommitRetryDelay: time.Millisecond})
	defer pool.Close()
	defer eng.Close()

	// The first two sync attempts fail, the third succeeds: inside the
	// default retry budget of 3, so the client must never see the fault.
	ffs.Set(faultfs.FailSyncs(logSyncs, 2, errInjected))
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put through transient fault: %v", err)
	}
	if got := eng.Stats().CommitRetries.Load(); got != 2 {
		t.Fatalf("commit retries = %d, want 2", got)
	}
	if got := eng.Stats().CommitFailures.Load(); got != 0 {
		t.Fatalf("commit failures = %d, want 0", got)
	}
	if err := eng.SealErr(); err != nil {
		t.Fatalf("engine sealed by a transient fault: %v", err)
	}
	if v, ok, err := eng.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get after retried commit: %q %v %v", v, ok, err)
	}
}

func TestChaosPersistentFaultSealsEngine(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{
		MaxBatch:      4,
		CommitRetries: -1, // no retries: every fault is immediately persistent
	})
	defer pool.Close()

	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	_, err := eng.Put([]byte("k"), []byte("v"))
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("put on failing media: %v, want ErrSealed", err)
	}
	// The engine is fail-stop now: reads and writes both refuse.
	if _, err := eng.Put([]byte("k2"), []byte("v2")); !errors.Is(err, ErrSealed) {
		t.Fatalf("put after seal: %v", err)
	}
	if _, _, err := eng.Get([]byte("k")); !errors.Is(err, ErrSealed) {
		t.Fatalf("get after seal: %v", err)
	}
	if got := eng.Stats().CommitFailures.Load(); got != 1 {
		t.Fatalf("commit failures = %d, want 1", got)
	}
	// Health stays observable: the registry samples on a sealed engine.
	snap := eng.Snapshot()
	if snap["paxserve_sealed"] != 1 || snap["paxserve_commit_failures"] != 1 {
		t.Fatalf("sealed stats: paxserve_sealed %v, paxserve_commit_failures %v; want 1 and 1", snap["paxserve_sealed"], snap["paxserve_commit_failures"])
	}
	if err := eng.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close of sealed engine = %v, want its seal error", err)
	}
}

// TestChaosShardIsolation is the headline failure-isolation scenario:
// persistent EIO on one shard of four must seal that shard only — the other
// three keep serving — and after a reopen every acked write is present.
func TestChaosShardIsolation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.pool")
	cfg := Config{MaxBatch: 8, CommitRetries: -1}
	s, _, ffs := faultyFleet(t, path, 4, cfg)

	const keys = 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	acked := make(map[string]string)

	// Phase 1: healthy writes across every shard; all must ack.
	for i := 0; i < keys; i++ {
		if _, err := s.Put(key(i), []byte("v1")); err != nil {
			t.Fatalf("healthy put %d: %v", i, err)
		}
		acked[string(key(i))] = "v1"
	}

	// Inject a persistent fault into shard 0's media only.
	const sick = 0
	ffs.Set(faultfs.FailSyncsAfter(faultfs.In(ShardPath(path, sick)+epochlog.DirSuffix), 0, errInjected))

	// Phase 2: the sick shard's keyspace fails (never acks); every other
	// shard keeps acking.
	for i := 0; i < keys; i++ {
		_, err := s.Put(key(i), []byte("v2"))
		if owner := s.ShardFor(key(i)); owner == sick {
			if !errors.Is(err, ErrSealed) {
				t.Fatalf("put %d on sick shard: %v, want ErrSealed", i, err)
			}
			continue // not acked: v1 remains the durable truth for this key
		} else if err != nil {
			t.Fatalf("put %d on healthy shard %d failed: %v", i, owner, err)
		}
		acked[string(key(i))] = "v2"
	}

	// Healthy shards still serve reads; the sick shard refuses with its seal
	// error rather than serving possibly-rolled-back state.
	for i := 0; i < keys; i++ {
		v, ok, err := s.Get(key(i))
		if s.ShardFor(key(i)) == sick {
			if !errors.Is(err, ErrSealed) {
				t.Fatalf("get %d on sick shard: %v", i, err)
			}
			continue
		}
		if err != nil || !ok || string(v) != acked[string(key(i))] {
			t.Fatalf("get %d on healthy shard: %q %v %v", i, v, ok, err)
		}
	}

	// Exactly one shard reports sick in Health and in the merged metrics.
	health := s.Health()
	for k, err := range health {
		if k == sick && !errors.Is(err, ErrSealed) {
			t.Fatalf("health[%d] = %v, want ErrSealed", k, err)
		}
		if k != sick && err != nil {
			t.Fatalf("health[%d] = %v, want healthy", k, err)
		}
	}
	m, err := s.Metrics()
	if err != nil {
		t.Fatalf("metrics with a sealed shard: %v", err)
	}
	if m["paxserve_sealed"] != 1 {
		t.Fatalf("paxserve_sealed sum = %v, want 1", m["paxserve_sealed"])
	}
	if m[fmt.Sprintf("paxserve_sealed{shard=%q}", fmt.Sprint(sick))] != 1 {
		t.Fatalf("sick shard gauge missing in %v", m)
	}

	// A degraded shutdown is not clean.
	if err := s.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close of degraded sharded engine = %v, want ErrSealed", err)
	}

	// Reopen (the media fault does not survive the "repair"): every acked
	// write must be there, including the sick shard's phase-1 acks.
	reopened := newSharded(t, path, 4, cfg)
	defer reopened.Close()
	for i := 0; i < keys; i++ {
		v, ok, err := reopened.Get(key(i))
		want := acked[string(key(i))]
		if err != nil || !ok || string(v) != want {
			t.Fatalf("acked write lost: key %d = %q (ok=%v err=%v), want %q", i, v, ok, err, want)
		}
	}
}

// TestChaosApplyPanicSealsOnlyItsShard: a panic in the writer goroutine — an
// undo log too small for the epoch a table growth needs — must not take the
// daemon down. The overflowing shard seals fail-stop without acking or
// persisting the half-applied epoch, the other shard keeps serving, and a
// reopen finds every acked write.
func TestChaosApplyPanicSealsOnlyItsShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	opts := smallOpts()
	opts.LogSize = 16 << 10 // ~170 undo entries per epoch: single PUTs fit, a rehash does not
	cfg := Config{MaxBatch: 8}
	s, err := OpenSharded(path, 2, opts, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const sick = 0
	acked := make(map[string]bool)
	var sealErr error
	for i := 0; i < 50000 && sealErr == nil; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if s.ShardFor(key) != sick && i%8 != 0 {
			continue // overflow one shard; the other only takes a trickle
		}
		if _, err := s.Put(key, key); err == nil {
			acked[string(key)] = true
		} else if s.ShardFor(key) == sick {
			sealErr = err
		} else {
			t.Fatalf("put %s on the healthy shard: %v", key, err)
		}
	}
	if !errors.Is(sealErr, ErrSealed) || !strings.Contains(sealErr.Error(), "log full") {
		t.Fatalf("overflowing put: %v, want ErrSealed carrying the undo-log panic", sealErr)
	}

	// The other shard still serves, and the fleet reports exactly one seal.
	other := []byte("after-the-seal")
	for i := 0; s.ShardFor(other) == sick; i++ {
		other = []byte(fmt.Sprintf("after-the-seal-%d", i))
	}
	if _, err := s.Put(other, other); err != nil {
		t.Fatalf("put on the healthy shard after the seal: %v", err)
	}
	acked[string(other)] = true
	if health := s.Health(); !errors.Is(health[sick], ErrSealed) || health[1-sick] != nil {
		t.Fatalf("health = %v, want only shard %d sealed", health, sick)
	}
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["paxserve_sealed"] != 1 {
		t.Fatalf("paxserve_sealed sum = %v, want 1", m["paxserve_sealed"])
	}
	seals := 0
	for _, ev := range s.Trace().Events {
		if ev.Type == blackbox.EvSeal {
			seals++
		}
	}
	if seals != 1 {
		t.Fatalf("%d seal events, want 1", seals)
	}
	if err := s.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close = %v, want the seal error", err)
	}

	reopened, err := OpenSharded(path, 2, opts, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for key := range acked {
		if v, ok, err := reopened.Get([]byte(key)); err != nil || !ok || string(v) != key {
			t.Fatalf("acked write %s lost: %q ok=%v err=%v", key, v, ok, err)
		}
	}
	// ... and nothing else: the half-applied epoch rolled back.
	m, err = reopened.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := m["paxserve_read_index_rebuilt"]; n != float64(len(acked)) {
		t.Fatalf("reopened fleet holds %v keys, want exactly the %d acked", n, len(acked))
	}
}

// TestChaosCloseRacesFailingCommit drives concurrent writers into an engine
// whose media is failing while Close runs: nothing may panic or deadlock,
// no write may ack, and Close must surface the seal.
func TestChaosCloseRacesFailingCommit(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{
		MaxBatch:      4,
		CommitRetries: -1,
	})
	defer pool.Close()

	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := eng.Put([]byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v")); err == nil {
					t.Errorf("writer %d: put %d acked on failing media", w, i)
					return
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond) // let writers collide with the seal
	if err := eng.Close(); !errors.Is(err, ErrSealed) {
		t.Errorf("close racing failing commits = %v, want ErrSealed", err)
	}
	wg.Wait()
}

// TestChaosCloseSurfacesFinalCommitFailure injects the fault after the last
// ack: the shutdown epoch-seal itself fails, and Close must say so instead
// of reporting a clean shutdown.
func TestChaosCloseSurfacesFinalCommitFailure(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{MaxBatch: 4, CommitRetries: -1})
	defer pool.Close()

	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	if err := eng.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close with failing final commit = %v, want ErrSealed", err)
	}
}

// TestShutdownCommitAccounting: the graceful-shutdown epoch seal runs through
// the normal commit path, so it shows up in the group-commit counters instead
// of bypassing them.
func TestShutdownCommitAccounting(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 4})
	defer pool.Close()

	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats().GroupCommits()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().GroupCommits(); got != before+1 {
		t.Fatalf("group commits after shutdown = %d, want %d (shutdown seal counted)", got, before+1)
	}
}

// TestOpenShardedPartialFailure: when one shard cannot open, OpenSharded
// fails as a whole, already-opened shards are torn down, and a later open
// succeeds once the obstruction is gone.
func TestOpenShardedPartialFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.pool")
	// A directory where shard 2's pool file must go makes that one shard
	// unopenable.
	if err := os.Mkdir(ShardPath(path, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(path, 4, smallOpts(), 0, Config{}); err == nil {
		t.Fatal("partial open succeeded with an unopenable shard")
	}
	if err := os.Remove(ShardPath(path, 2)); err != nil {
		t.Fatal(err)
	}
	s := newSharded(t, path, 4, Config{MaxBatch: 4})
	if _, err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put after recovered open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
