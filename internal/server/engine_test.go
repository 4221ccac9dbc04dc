package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pax"
	"pax/internal/faultfs"
)

func smallOpts() pax.Options {
	return pax.Options{DataSize: 8 << 20, LogSize: 4 << 20, HBMSize: 256 << 10}
}

func newTestEngine(t *testing.T, path string, cfg Config) (*pax.Pool, *Engine) {
	t.Helper()
	pool, err := pax.MapPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(pool, 0, cfg, 0, newEventHub())
	if err != nil {
		t.Fatal(err)
	}
	return pool, eng
}

// TestEngineCountsEachEventOnce pins what the re-sourced paxserve_* gauges
// mean on a sequential script: the GET counts are the GET histograms' counts,
// and the group commits are one per forced commit, as the commit histogram
// counts them.
func TestEngineCountsEachEventOnce(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 4})
	defer pool.Close()
	defer eng.Close()

	const puts, hits, misses = 4, 3, 2
	for i := 0; i < puts; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hits; i++ {
		if _, ok, err := eng.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
			t.Fatalf("hit GET %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < misses; i++ {
		if _, ok, err := eng.Get([]byte(fmt.Sprintf("absent%d", i))); err != nil || ok {
			t.Fatalf("miss GET %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, err := eng.Persist(); err != nil {
		t.Fatal(err)
	}
	// One PUT at a time on an idle engine commits alone, and PERSIST forces
	// one more. The commit histogram is observed just after a commit's
	// acks, together with its record: wait for the records.
	const commits = puts + 1
	recentCommits(t, eng, commits)

	m := eng.Snapshot()
	for _, c := range []struct {
		name string
		want float64
	}{
		{"paxserve_gets", hits + misses},
		{"paxserve_read_index_hits", hits},
		{"paxserve_get_hit_ns_count", hits},
		{"paxserve_read_index_misses", misses},
		{"paxserve_get_miss_ns_count", misses},
		{"paxserve_group_commits", commits},
		{"paxserve_commit_ns_count", commits},
	} {
		if got := m[c.name]; got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestEngineBasicOps(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 4})
	defer pool.Close()
	defer eng.Close()

	if _, err := eng.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := eng.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, _, err := eng.Get([]byte("missing")); err != nil {
		t.Fatal(err)
	}
	found, _, err := eng.Delete([]byte("k1"))
	if err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	found, _, err = eng.Delete([]byte("k1"))
	if err != nil || found {
		t.Fatalf("re-delete: %v %v", found, err)
	}
	epoch, err := eng.Persist()
	if err != nil || epoch == 0 {
		t.Fatalf("persist: %d %v", epoch, err)
	}
	snap := eng.Snapshot()
	for _, name := range []string{"paxserve_acked_writes", "pax_device_persists"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("stats snapshot has no %s", name)
		}
	}
}

// testMedium puts a test pool's media commit — its epoch-log fsync — under
// the test's control through the pool's faultfs, so the writer really sits
// inside Persist — as behind a slow fsync — while requests queue behind it.
type testMedium struct {
	syncs   chan struct{} // a token per sync that reached the medium
	release chan struct{} // nil: syncs are only delayed
	once    sync.Once
	err     error // what every released sync returns
}

// slowMedium makes every media sync on ffs sleep delay and then, with hold,
// block until releaseWith. A held medium must be released before the engine
// or the pool is closed: both sync it.
func slowMedium(ffs *faultfs.FS, delay time.Duration, hold bool) *testMedium {
	m := &testMedium{syncs: make(chan struct{}, 64)}
	if hold {
		m.release = make(chan struct{})
	}
	ffs.Set(func(op faultfs.Op) error {
		if op.Kind != faultfs.Sync || !logSyncs(op.Path) {
			return nil
		}
		select {
		case m.syncs <- struct{}{}:
		default:
		}
		time.Sleep(delay)
		if m.release == nil {
			return nil
		}
		<-m.release
		return m.err
	})
	return m
}

// awaitSync returns once a sync has reached the medium: its commit is under
// way, so a request enqueued now lands in a later batch.
func (m *testMedium) awaitSync(t *testing.T) {
	t.Helper()
	select {
	case <-m.syncs:
	case <-time.After(5 * time.Second):
		t.Fatal("no commit reached the medium")
	}
}

// releaseWith lets every held and later sync finish with err — nil for a
// medium that completes them, an error for one that never does.
func (m *testMedium) releaseWith(err error) {
	m.once.Do(func() {
		m.err = err
		close(m.release)
	})
}

// holdCommit occupies the writer: a PUT of "hold" seals a batch at once,
// and its commit then sits on the medium. Everything enqueued after
// holdCommit returns waits for that commit. The PUT returns once the test
// releases the medium (or closes the engine), and the test's cleanup waits
// for it.
func holdCommit(t *testing.T, eng *Engine, m *testMedium) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Put([]byte("hold"), []byte("x"))
	}()
	t.Cleanup(func() { <-done })
	m.awaitSync(t)
}

// awaitQueued returns once n requests wait in the engine's queue.
func awaitQueued(t *testing.T, eng *Engine, n int) {
	t.Helper()
	pollUntil(t, fmt.Sprintf("%d requests are queued", n), func() bool { return len(eng.reqs) >= n })
}

// recentCommits returns the flight recorder's recent ring once it holds n
// records. A commit is recorded just after its waiters are acked, so a caller
// holding the ack may be a moment ahead of the record.
func recentCommits(t *testing.T, eng *Engine, n int) []CommitRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := eng.Trace().Recent
		if len(recs) >= n {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder holds %d commits, want %d", len(recs), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleEngineSealsAtOnce: a lone PUT on an idle engine does not wait for
// company — its batch seals the moment the queue is empty.
func TestIdleEngineSealsAtOnce(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{})
	defer pool.Close()
	defer eng.Close()

	start := time.Now()
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("lone PUT on an idle engine took %v; nothing may hold its batch open", took)
	}
	recs := recentCommits(t, eng, 1)
	if len(recs) != 1 || recs[0].SealReason != SealIdle || recs[0].Batch != 1 {
		t.Fatalf("trace %+v, want one commit of one mutation sealed %q", recs, SealIdle)
	}
}

// TestConcurrentPutsShareEpoch is the group-commit core claim: PUTs from many
// goroutines that arrive while a commit is on the medium land in the same
// epoch and are acked by one snapshot.
func TestConcurrentPutsShareEpoch(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{MaxBatch: 64})
	defer pool.Close()
	defer eng.Close()
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)
	holdCommit(t, eng, m)

	const writers = 32
	epochs := make([]uint64, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := eng.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
			if err != nil {
				t.Errorf("put %d: %v", i, err)
			}
			epochs[i] = ep
		}(i)
	}
	awaitQueued(t, eng, writers)
	m.releaseWith(nil)
	wg.Wait()
	for i := 1; i < writers; i++ {
		if epochs[i] != epochs[0] {
			t.Fatalf("writer %d committed in epoch %d, writer 0 in %d", i, epochs[i], epochs[0])
		}
	}
	// One commit held the medium, one carried all 32 writers.
	if got := eng.Stats().GroupCommits(); got != 2 {
		t.Fatalf("32 concurrent puts behind a held commit took %d group commits, want 2 (hold + batch)", got)
	}
	if got := eng.Stats().AckedWrites.Load(); got != writers+1 {
		t.Fatalf("acked %d writes, want %d (the hold and the %d writers)", got, writers+1, writers)
	}
	recs := recentCommits(t, eng, 2)
	if last := recs[len(recs)-1]; last.Batch != writers || last.SealReason != SealIdle {
		t.Fatalf("batch commit %+v, want %d mutations sealed %q once the queue was drained", last, writers, SealIdle)
	}
}

// TestSlowCommitsStillSealIdle: a slow medium does not make a batch wait for
// company. After a 30 ms commit a lone writer's next PUT seals the moment the
// queue is empty, exactly like the first: how long commits take changes only
// what queues up behind them, never when a batch seals.
func TestSlowCommitsStillSealIdle(t *testing.T) {
	const syncTime = 30 * time.Millisecond
	pool, eng, ffs := faultyEngine(t, "", Config{})
	defer pool.Close()
	defer eng.Close()
	slowMedium(ffs, syncTime, false)

	for _, key := range []string{"first", "second"} {
		if _, err := eng.Put([]byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i, rec := range recentCommits(t, eng, 2)[:2] {
		if rec.SealReason != SealIdle || rec.Batch != 1 || time.Duration(rec.SealNS) >= syncTime/3 {
			t.Fatalf("commit %d %+v, want one mutation sealed %q far inside the %v sync", i, rec, SealIdle, syncTime)
		}
	}
}

// TestCrashRecoversExactlyAckedWrites drives concurrent clients, crashes the
// engine mid-traffic (stop without persist, like the machine dying), and
// checks the §3.4 recovery contract at the serving layer: every acked write
// is present after reopening, every errored write is rolled back, nothing
// else exists.
func TestCrashRecoversExactlyAckedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.pool")
	pool, eng := newTestEngine(t, path, Config{MaxBatch: 8})

	const clients = 16
	type oplog struct {
		acked, errored []string
	}
	logs := make([]oplog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; ; op++ {
				key := fmt.Sprintf("c%02d-op%04d", c, op)
				_, err := eng.Put([]byte(key), []byte("val-"+key))
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBusy) {
						t.Errorf("client %d: unexpected error %v", c, err)
					}
					logs[c].errored = append(logs[c].errored, key)
					return
				}
				logs[c].acked = append(logs[c].acked, key)
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond)
	eng.Crash()
	wg.Wait()
	if err := pool.Close(); err != nil { // crash-like close: no final persist
		t.Fatal(err)
	}

	pool2, err := pax.OpenPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	kv, err := pax.NewMap(pool2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var totalAcked int
	for c := range logs {
		totalAcked += len(logs[c].acked)
		for _, key := range logs[c].acked {
			v, ok := kv.Get([]byte(key))
			if !ok {
				t.Fatalf("acked write %s lost after crash recovery", key)
			}
			if string(v) != "val-"+key {
				t.Fatalf("acked write %s recovered with value %q", key, v)
			}
		}
		for _, key := range logs[c].errored {
			if _, ok := kv.Get([]byte(key)); ok {
				t.Fatalf("unacked write %s survived the crash", key)
			}
		}
	}
	if totalAcked == 0 {
		t.Fatal("test crashed before any write was acked; raise the sleep")
	}
	if got := int(kv.Len()); got != totalAcked {
		t.Fatalf("recovered %d keys, want exactly the %d acked", got, totalAcked)
	}
	t.Logf("crash after %d acked writes; recovery kept all of them and dropped %d in-flight",
		totalAcked, func() (n int) {
			for c := range logs {
				n += len(logs[c].errored)
			}
			return
		}())
}

func TestEngineClosedAndBackpressureErrors(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{
		MaxBatch:   2,
		QueueDepth: 2, EnqueueTimeout: time.Nanosecond,
	})
	defer pool.Close()

	const writers = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	busy := 0
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
			if errors.Is(err, ErrBusy) {
				mu.Lock()
				busy++
				mu.Unlock()
			} else if err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	// Backpressure accounting must balance: every request either acked or
	// counted as a reject.
	acked := eng.Stats().AckedWrites.Load()
	rejects := eng.Stats().Rejects.Load()
	if acked+uint64(busy) != writers || rejects != uint64(busy) {
		t.Fatalf("acked %d + busy %d != %d (rejects counter %d)", acked, busy, writers, rejects)
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Put([]byte("late"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, _, err := eng.Get([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	// Close is idempotent, and Crash after Close is a no-op.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
}

// TestCloseSealsOpenEpoch: graceful shutdown persists everything, so a
// reopen recovers the full final state with no rollback.
func TestCloseSealsOpenEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seal.pool")
	pool, eng := newTestEngine(t, path, Config{MaxBatch: 64})
	for i := 0; i < 20; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	pool2, err := pax.OpenPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if rb := pool2.Recovery().LinesRolledBack; rb != 0 {
		t.Fatalf("clean shutdown still rolled back %d lines", rb)
	}
	kv, err := pax.NewMap(pool2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kv.Len() != 20 {
		t.Fatalf("recovered %d keys, want 20", kv.Len())
	}
}

// Allocation ceilings of the ack path, at what it allocates today (the
// BenchmarkEnginePut / BenchmarkEngineGet figures): a serial durable Put —
// request, apply, one group commit, ack, on both goroutines — and an
// index-served Get, whose one allocation is the caller's copy of the value.
const (
	maxPutAllocs = 2
	maxGetAllocs = 1
)

// TestAckPathAllocations holds a durable Put and a Get to their ceilings, so
// garbage added to either path fails here instead of showing up as a slower
// ack in a profile.
func TestAckPathAllocations(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 1})
	defer pool.Close()
	defer eng.Close()
	key := []byte("alloc-key")
	val := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	put := func() {
		if _, err := eng.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	put() // size the reused commit buffers and store the key
	if avg := testing.AllocsPerRun(200, put); avg > maxPutAllocs {
		t.Errorf("a serial durable Put allocates %.0f times, ceiling %d", avg, maxPutAllocs)
	}
	get := func() {
		if _, ok, err := eng.Get(key); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
	if avg := testing.AllocsPerRun(200, get); avg > maxGetAllocs {
		t.Errorf("a Get allocates %.0f times, ceiling %d", avg, maxGetAllocs)
	}
}
