package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pax"
	"pax/internal/faultfs"
	"pax/internal/wire"
)

// TestGetServedDuringCommitInFlight: a commit in flight does not blank out
// reads, and does not leak into them. The writer sits in a commit whose sync
// the medium holds while GETs complete against the index, which does not
// show the held write until its ack.
func TestGetServedDuringCommitInFlight(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{MaxBatch: 1})
	defer pool.Close()
	defer eng.Close()

	// Seed a key whose commit is already over.
	if _, err := eng.Put([]byte("warm"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)

	putDone := make(chan struct{})
	go func() {
		defer close(putDone)
		if _, err := eng.Put([]byte("hot"), []byte("v1")); err != nil {
			t.Errorf("put: %v", err)
		}
	}()
	// The write is applied before its commit reaches the medium, and the
	// held medium keeps both its ack and its publication away.
	m.awaitSync(t)
	if v, ok, err := eng.Get([]byte("hot")); err != nil || ok {
		t.Fatalf("write served while its commit was held: %q ok=%v err=%v", v, ok, err)
	}

	// The commit is now in flight. Reads must keep completing.
	const reads = 200
	start := time.Now()
	for i := 0; i < reads; i++ {
		if v, ok, err := eng.Get([]byte("warm")); err != nil || !ok || string(v) != "v0" {
			t.Fatalf("get during commit: %q %v %v", v, ok, err)
		}
	}
	elapsed := time.Since(start)
	select {
	case <-putDone:
		t.Fatal("the put acked while its commit was held on the medium")
	default:
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("%d reads took %v during a commit; reads are stalling behind the writer", reads, elapsed)
	}
	m.releaseWith(nil)
	<-putDone
	if v, ok, err := eng.Get([]byte("hot")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("acked write not served: %q ok=%v err=%v", v, ok, err)
	}
	if hits := eng.Stats().GetHitNS.Count(); hits < reads {
		t.Fatalf("read index served %d hits, want >= %d", hits, reads)
	}
}

// TestReadYourWritesAfterAck pins the consistency contract: once a mutation
// is acked, every subsequent Get observes it, because a batch is published
// to the index before any of its waiters is acked.
func TestReadYourWritesAfterAck(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 4})
	defer pool.Close()
	defer eng.Close()

	const clients = 8
	const ops = 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := []byte(fmt.Sprintf("c%d-k%03d", c, i))
				val := []byte(fmt.Sprintf("v%d-%d", c, i))
				if _, err := eng.Put(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if v, ok, err := eng.Get(key); err != nil || !ok || string(v) != string(val) {
					t.Errorf("read-your-write %s: got %q ok=%v err=%v", key, v, ok, err)
					return
				}
				if i%10 == 9 {
					if _, _, err := eng.Delete(key); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					if _, ok, err := eng.Get(key); err != nil || ok {
						t.Errorf("read-your-delete %s: still present (err=%v)", key, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestHeldCommitIsNotServed is the dirty read a read index updated at apply
// time allows: while a PUT's commit is held on the medium, a GET of its key
// must serve the last committed value. The medium then refuses the sync, the
// PUT fails, and after a crash and reopen the old value is what recovery
// serves — so no reader saw a write its writer was told had failed.
func TestHeldCommitIsNotServed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "held.pool")
	pool, eng, ffs := faultyEngine(t, path, Config{})
	key := []byte("k")
	if _, err := eng.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	m := slowMedium(ffs, 0, true)
	putErr := make(chan error, 1)
	go func() {
		_, err := eng.Put(key, []byte("new"))
		putErr <- err
	}()
	m.awaitSync(t)
	if v, ok, err := eng.Get(key); err != nil || !ok || string(v) != "old" {
		t.Fatalf("GET during the held commit served %q (ok=%v err=%v), want \"old\"", v, ok, err)
	}
	m.releaseWith(errInjected)
	if err := <-putErr; !errors.Is(err, ErrSealed) {
		t.Fatalf("PUT whose sync failed returned %v, want ErrSealed", err)
	}
	eng.Crash()
	// The fault stays in: closing the pool syncs it, and a sync that worked
	// would publish the epoch whose commit failed.
	pool.Close()

	pool2, err := pax.OpenPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	eng2, err := newEngine(pool2, 0, Config{}, 0, newEventHub())
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if v, ok, err := eng2.Get(key); err != nil || !ok || string(v) != "old" {
		t.Fatalf("after reopen: %q ok=%v err=%v, want \"old\"", v, ok, err)
	}
}

// TestCrashRebuildNeverServesRolledBackValue crashes a sharded engine under
// concurrent write load, reopens it, and checks the index rebuild per shard:
// every acked write is served, no rolled-back (unacked) write is, and the
// rebuilt-entry counters account for exactly the recovered keys.
func TestCrashRebuildNeverServesRolledBackValue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rebuild.pool")
	const shards = 3
	eng, err := OpenSharded(path, shards, smallOpts(), 0, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 12
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
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	eng2, err := OpenSharded(path, shards, smallOpts(), 0, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()

	var totalAcked int
	for c := range logs {
		totalAcked += len(logs[c].acked)
		for _, key := range logs[c].acked {
			v, ok, err := eng2.Get([]byte(key))
			if err != nil || !ok {
				t.Fatalf("acked write %s not served after rebuild (ok=%v err=%v)", key, ok, err)
			}
			if string(v) != "val-"+key {
				t.Fatalf("acked write %s served with value %q after rebuild", key, v)
			}
		}
		for _, key := range logs[c].errored {
			if _, ok, err := eng2.Get([]byte(key)); err != nil {
				t.Fatal(err)
			} else if ok {
				t.Fatalf("rolled-back write %s is served by the rebuilt index", key)
			}
		}
	}
	if totalAcked == 0 {
		t.Fatal("test crashed before any write was acked; raise the sleep")
	}
	// The rebuilt counters must account for exactly the recovered keys.
	m, err := eng2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := int(m["paxserve_read_index_rebuilt"]); got != totalAcked {
		t.Fatalf("rebuilt %d index entries across shards, want the %d acked keys", got, totalAcked)
	}
	t.Logf("crash after %d acked writes across %d shards; rebuild indexed all of them and none of the %d rolled back",
		totalAcked, shards, func() (n int) {
			for c := range logs {
				n += len(logs[c].errored)
			}
			return
		}())
}

// TestCrashNotStalledByFullQueue is the Close/Crash stall regression test:
// with the queue full and writers parked in the contended enqueue path,
// Crash must not wait out their EnqueueTimeout (begin used to hold the
// engine's read lock across the whole wait, blocking markClosed).
func TestCrashNotStalledByFullQueue(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{
		MaxBatch:   1,
		QueueDepth: 1, EnqueueTimeout: 30 * time.Second,
	})
	defer pool.Close()
	slowMedium(ffs, 100*time.Millisecond, false)

	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
			if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBusy) {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(150 * time.Millisecond) // let the queue fill and senders park
	start := time.Now()
	eng.Crash()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Crash took %v behind a full queue; the stall is back", d)
	}
	wg.Wait() // every parked writer must have been failed out
}

// TestTCPGetsNotSerializedBehindCommit drives the contract end to end: a
// GET on one connection completes while another connection's PUT commit is
// in flight on the same shard, and does not see that PUT until its ack.
func TestTCPGetsNotSerializedBehindCommit(t *testing.T) {
	fleet, _, ffs := faultyFleet(t, "", 1, Config{MaxBatch: 1})
	_, addr := serveTCP(t, fleet)

	writer, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	if _, err := writer.Put([]byte("warm"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)

	putDone := make(chan struct{})
	go func() {
		defer close(putDone)
		if _, err := writer.Put([]byte("hot"), []byte("v1")); err != nil {
			t.Errorf("put: %v", err)
		}
	}()
	// The PUT is applied once its commit reaches the medium; read through
	// the other connection while the medium holds that commit.
	m.awaitSync(t)
	if v, ok, err := reader.Get([]byte("hot")); err != nil || ok {
		t.Fatalf("write served over TCP while its commit was held: %q ok=%v err=%v", v, ok, err)
	}
	start := time.Now()
	for i := 0; i < 50; i++ {
		if v, ok, err := reader.Get([]byte("warm")); err != nil || !ok || string(v) != "v0" {
			t.Fatalf("get during commit: %q %v %v", v, ok, err)
		}
	}
	elapsed := time.Since(start)
	select {
	case <-putDone:
		t.Fatal("the put acked while its commit was held on the medium")
	default:
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("50 TCP gets took %v during a commit", elapsed)
	}
	m.releaseWith(nil)
	<-putDone
	if v, ok, err := reader.Get([]byte("hot")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("acked write not served over TCP: %q ok=%v err=%v", v, ok, err)
	}
}

// TestGetsServeOnlyWhatRecoveryKeeps holds the read index's contract across
// held, failed and crashed commits: writers and readers share a few keys
// while every epoch-log sync is held briefly and every other one fails, so
// commits retry. The run ends with a commit that exhausts its retries and
// seals the engine, or with a crash that lands wherever the writer is. After
// reopen, every value a GET observed is one whose PUT was acked or the value
// recovery shows. Run it under -race.
func TestGetsServeOnlyWhatRecoveryKeeps(t *testing.T) {
	for _, seal := range []bool{true, false} {
		name := "crash"
		if seal {
			name = "seal"
		}
		t.Run(name, func(t *testing.T) { servedAgainstRecovered(t, seal) })
	}
}

func servedAgainstRecovered(t *testing.T, seal bool) {
	path := filepath.Join(t.TempDir(), "served.pool")
	pool, eng, ffs := faultyEngine(t, path, Config{CommitRetries: 3, CommitRetryDelay: 500 * time.Microsecond})
	var syncs atomic.Int64
	var failAll atomic.Bool
	ffs.Set(func(op faultfs.Op) error {
		if op.Kind != faultfs.Sync || !logSyncs(op.Path) {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
		if failAll.Load() || syncs.Add(1)%2 == 0 {
			return errInjected
		}
		return nil
	})

	const keys, writers, readers = 8, 4, 2
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%d", i%keys)) }
	var (
		mu       sync.Mutex
		acked    = map[string]bool{} // values whose PUT returned nil
		observed = map[[2]string]bool{}
		wg       sync.WaitGroup
		stop     = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				v := fmt.Sprintf("w%d-%d", w, i)
				if _, err := eng.Put(key(w+i), []byte(v)); err != nil {
					return // sealed or crashed
				}
				mu.Lock()
				acked[v] = true
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := map[[2]string]bool{}
			defer func() {
				mu.Lock()
				for o := range seen {
					observed[o] = true
				}
				mu.Unlock()
			}()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok, err := eng.Get(key(i)); err == nil && ok {
					seen[[2]string{string(key(i)), string(v)}] = true
				}
			}
		}(r)
	}

	pollUntil(t, "commits retry under load", func() bool { return eng.Stats().CommitRetries.Load() >= 5 })
	if seal {
		failAll.Store(true)
		pollUntil(t, "a commit exhausts its retries", func() bool { return eng.SealErr() != nil })
	}
	eng.Crash()
	close(stop)
	wg.Wait()
	// Every later sync fails, as after a power cut: closing the pool must
	// not commit what the crash abandoned.
	failAll.Store(true)
	pool.Close()

	kv := reopenedMap(t, path)
	for o := range observed {
		if acked[o[1]] {
			continue
		}
		if v, ok := kv.Get([]byte(o[0])); !ok || string(v) != o[1] {
			t.Errorf("GET served %s=%s, whose PUT was never acked and which recovery does not show (recovered %q, ok=%v)", o[0], o[1], v, ok)
		}
	}
	if len(acked) == 0 || len(observed) == 0 {
		t.Fatalf("vacuous run: %d acked writes, %d observed values", len(acked), len(observed))
	}
	t.Logf("%d acked writes, %d observed values, %d commit retries", len(acked), len(observed), eng.Stats().CommitRetries.Load())
}

// TestIndexRewriteInPlace: republishing a key with a value of the indexed
// length allocates nothing, a value of another length replaces it, and a
// value get handed out before keeps its bytes either way.
func TestIndexRewriteInPlace(t *testing.T) {
	ix := newReadIndex()
	key := []byte("k")
	ix.put(key, []byte("aaaa"))
	before, _ := ix.get(key)
	next := []byte("bbbb")
	if avg := testing.AllocsPerRun(100, func() { ix.put(key, next) }); avg != 0 {
		t.Errorf("a same-length rewrite allocates %v times", avg)
	}
	next[0] = 'x' // the caller's buffer is not the index's
	for _, want := range []string{"bbbb", "cc", "dddddd"} {
		if want != "bbbb" {
			ix.put(key, []byte(want))
		}
		if got, ok := ix.get(key); !ok || string(got) != want {
			t.Fatalf("get after put %q = %q, %v", want, got, ok)
		}
	}
	if string(before) != "aaaa" {
		t.Fatalf("a value get returned changed to %q", before)
	}
}
