package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pax/internal/wire"
)

// TestGetServedDuringCommitInFlight is the tentpole claim: a commit in
// flight no longer blanks out reads. The writer sits in a commit whose sync
// the medium holds while GETs complete against the index.
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
	// The write is applied (visible in the index) before its commit reaches
	// the medium, and the held medium keeps the ack away.
	m.awaitSync(t)
	if _, ok, err := eng.Get([]byte("hot")); err != nil || !ok {
		t.Fatalf("applied write not visible during its commit: ok=%v err=%v", ok, err)
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
	if hits := eng.Stats().ReadIndexHits.Load(); hits < reads {
		t.Fatalf("read index served %d hits, want >= %d", hits, reads)
	}
}

// TestReadYourWritesAfterAck pins the consistency contract: once a mutation
// is acked, every subsequent Get observes it — and the applied-but-unacked
// window (reads may see a write whose commit is still in flight) behaves as
// documented.
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

// TestGetObservesAppliedBeforeDurable documents (and pins) the weaker half
// of the contract: a read may observe an applied write whose group commit is
// still in flight — the same window queued reads always had.
func TestGetObservesAppliedBeforeDurable(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{MaxBatch: 1})
	defer pool.Close()
	defer eng.Close()
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)

	putDone := make(chan struct{})
	go func() {
		defer close(putDone)
		eng.Put([]byte("k"), []byte("v"))
	}()
	m.awaitSync(t)
	if _, ok, _ := eng.Get([]byte("k")); !ok {
		t.Fatal("write not visible while its commit is on the medium")
	}
	select {
	case <-putDone:
		t.Fatal("the put acked while its commit was held on the medium")
	default:
	}
	m.releaseWith(nil)
	<-putDone
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
// in flight on the same shard.
func TestTCPGetsNotSerializedBehindCommit(t *testing.T) {
	fleet, _, ffs := faultyFleet(t, "", 1, Config{MaxBatch: 1})
	_, addr := serveTCP(t, fleet, AckDurable)

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
	if _, ok, err := reader.Get([]byte("hot")); err != nil || !ok {
		t.Fatalf("applied write not visible over TCP during its commit: ok=%v err=%v", ok, err)
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
}
