package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pax"
	"pax/internal/pmem"
)

// This file tests the commit path — one writer goroutine that applies, seals,
// persists and acks — and the per-request ack policies: what a failed commit
// does to the requests behind it, crash exactness with a commit on the
// medium, the retry backoff under Crash and Close, and the documented weaker
// contract of ack-on-apply.

func TestRetryDelayClamp(t *testing.T) {
	base := 2 * time.Millisecond
	for attempt, want := range []time.Duration{
		2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		16 * time.Millisecond, 32 * time.Millisecond, 64 * time.Millisecond,
		128 * time.Millisecond,
	} {
		if got := retryDelay(base, attempt); got != want {
			t.Fatalf("retryDelay(%v, %d) = %v, want %v", base, attempt, got, want)
		}
	}
	// Past the clamp the delay stops doubling; in particular a huge attempt
	// number must not overflow into a negative (or absurd) Duration, which an
	// unclamped base<<attempt does near attempt 40.
	max := retryDelay(base, maxRetryDoublings)
	for _, attempt := range []int{maxRetryDoublings + 1, 40, 64, 1 << 20} {
		if got := retryDelay(base, attempt); got != max {
			t.Fatalf("retryDelay(%v, %d) = %v, want clamped %v", base, attempt, got, max)
		}
	}
}

// TestPipelineFailureFailsAllSealedEpochs: epoch N's persist fails after
// retries while the write that would have been epoch N+1 waits in the request
// queue behind it (the writer takes nothing while it backs off). Both writes
// must fail — N because its media refused, N+1 by the seal's drain of the
// queue, because acking it would reorder durability past a hole — and the
// engine seals.
func TestPipelineFailureFailsAllSealedEpochs(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{
		MaxBatch:      1,
		CommitRetries: 2, CommitRetryDelay: 25 * time.Millisecond,
	})
	defer pool.Close()

	// Every sync fails: batch 1's persist retries for ~75ms before sealing,
	// which is the window k2 is enqueued in.
	device(pool).SetFaultFn(pmem.FailSyncsAfter(0, errInjected))

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := eng.Put([]byte("k1"), []byte("v"))
		errs <- err
	}()
	time.Sleep(15 * time.Millisecond) // batch 1 sealed, persist retrying
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := eng.Put([]byte("k2"), []byte("v"))
		errs <- err
	}()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrSealed) {
			t.Fatalf("write %d on failing media: %v, want ErrSealed", i, err)
		}
	}
	if got := eng.Stats().AckedWrites.Load(); got != 0 {
		t.Fatalf("%d writes acked across a failed pipeline, want 0", got)
	}
	if got := eng.Stats().CommitFailures.Load(); got != 1 {
		t.Fatalf("commit failures = %d, want 1 (only epoch N's persist ran)", got)
	}
	if err := eng.SealErr(); !errors.Is(err, ErrSealed) {
		t.Fatalf("engine not sealed after pipeline failure: %v", err)
	}
	if err := eng.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close of sealed engine = %v, want seal error", err)
	}
}

// pollUntil waits for cond, which another goroutine is about to make true.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// reopenedMap opens the pool file at path again, as a restart after a crash
// would, and binds its map.
func reopenedMap(t *testing.T, path string) *pax.Map {
	t.Helper()
	pool, err := pax.OpenPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	kv, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

// failingPut starts a durable PUT on an engine whose syncs fail and returns
// once its commit is in the retry backoff.
func failingPut(t *testing.T, eng *Engine) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := eng.Put([]byte("k"), []byte("v"))
		done <- err
	}()
	pollUntil(t, "the commit reaches its first retry", func() bool { return eng.Stats().CommitRetries.Load() > 0 })
	return done
}

// TestCrashCutsRetryBackoffShort: a crash does not wait out a commit's retry
// budget (15.5 s here). The batch never persisted, so its waiter fails,
// nothing acks, and recovery rolls the epoch back.
func TestCrashCutsRetryBackoffShort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backoff.pool")
	pool, eng := newTestEngine(t, path, Config{CommitRetries: 5, CommitRetryDelay: 500 * time.Millisecond})
	device(pool).SetFaultFn(pmem.FailSyncsAfter(0, errInjected))
	done := failingPut(t, eng)

	start := time.Now()
	eng.Crash()
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Fatalf("Crash took %v: it slept out the retry backoff", took)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("put abandoned mid-backoff: %v, want ErrClosed", err)
	}
	if got := eng.Stats().AckedWrites.Load(); got != 0 {
		t.Fatalf("%d writes acked, want 0", got)
	}
	// The fault stays in: closing the pool syncs it, and a sync that worked
	// would publish the very epoch whose commit failed. Failing, it leaves the
	// file as the crash this stands in for would.
	pool.Close()
	if _, ok := reopenedMap(t, path).Get([]byte("k")); ok {
		t.Fatal("the abandoned write survived recovery")
	}
}

// TestCloseRunsTheRetryBudget: a graceful Close during a backoff lets the
// retries run, and one that succeeds still acks.
func TestCloseRunsTheRetryBudget(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{CommitRetries: 3, CommitRetryDelay: 20 * time.Millisecond})
	defer pool.Close()
	device(pool).SetFaultFn(pmem.FailSyncs(2, errInjected))
	done := failingPut(t, eng)

	if err := eng.Close(); err != nil {
		t.Fatalf("close across a transient fault: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("put whose second retry succeeded: %v, want its ack", err)
	}
	if got := eng.Stats().CommitRetries.Load(); got != 2 {
		t.Fatalf("commit retries = %d, want 2", got)
	}
}

// engineGoroutines counts the goroutines that are inside an Engine method.
func engineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pax/internal/server.(*Engine).") {
			n++
		}
	}
	return n
}

// TestOneWriterGoroutinePerEngine is the ownership guard: the pool has one
// owner, so an open engine is exactly one goroutine, and none once it is
// closed, crashed or sealed. A second goroutine with an Engine frame is a
// second would-be pool toucher, and §3.5 would need a lock again.
func TestOneWriterGoroutinePerEngine(t *testing.T) {
	base := engineGoroutines()
	want := func(when string, n int) {
		t.Helper()
		// The writer's last deferred call releases Close; its frame can
		// outlive that by an instant.
		deadline := time.Now().Add(2 * time.Second)
		for engineGoroutines() != base+n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := engineGoroutines() - base; got != n {
			t.Fatalf("%s: %d engine goroutines, want %d", when, got, n)
		}
	}
	for _, end := range []struct {
		name string
		stop func(*pax.Pool, *Engine)
	}{
		{"Close", func(_ *pax.Pool, eng *Engine) { eng.Close() }},
		{"Crash", func(_ *pax.Pool, eng *Engine) { eng.Crash() }},
		{"seal, then Close", func(pool *pax.Pool, eng *Engine) {
			device(pool).SetFaultFn(pmem.FailSyncsAfter(0, errInjected))
			if _, err := eng.Put([]byte("x"), []byte("v")); !errors.Is(err, ErrSealed) {
				t.Fatalf("put on failing media: %v, want ErrSealed", err)
			}
			eng.Close()
		}},
	} {
		pool, eng := newTestEngine(t, "", Config{CommitRetries: -1})
		if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		want("open engine", 1)
		end.stop(pool, eng)
		want("after "+end.name, 0)
		pool.Close()
	}

	s := newSharded(t, filepath.Join(t.TempDir(), "kv.pool"), 3, Config{})
	want("open 3-shard engine", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want("after sharded Close", 0)
}

// TestPipelineCrashRecoversExactlyAckedWrites re-runs the crash-exactness
// contract with a commit on the medium when the machine dies: small batches
// under load, then the medium holds a sync and the crash lands while it does,
// with writers queued behind it. The held commit never completes — its sync
// fails once released, as a sync cut off by power loss would — so its writes
// and the queued ones must all roll back, and every acked write must survive.
func TestPipelineCrashRecoversExactlyAckedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipecrash.pool")
	pool, eng := newTestEngine(t, path, Config{MaxBatch: 4})

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
	pollUntil(t, "writes are acked", func() bool { return eng.Stats().AckedWrites.Load() >= 64 })
	m := slowMedium(pool, 0, true)
	m.awaitSync(t)
	awaitQueued(t, eng, 1)
	crashed := make(chan struct{})
	go func() {
		eng.Crash()
		close(crashed)
	}()
	<-eng.stop
	m.releaseWith(errInjected)
	<-crashed
	wg.Wait()
	// The fault stays in: closing the pool syncs it, and a sync that worked
	// would publish the epoch whose commit the crash cut off.
	pool.Close()

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
			if _, ok := kv.Get([]byte(key)); !ok {
				t.Fatalf("acked write %s lost in a crash mid-commit", key)
			}
		}
		for _, key := range logs[c].errored {
			if _, ok := kv.Get([]byte(key)); ok {
				t.Fatalf("unacked write %s survived the crash", key)
			}
		}
	}
	if got := int(kv.Len()); got != totalAcked {
		t.Fatalf("recovered %d keys, want exactly the %d acked", got, totalAcked)
	}
	t.Logf("crash mid-commit after %d acked writes; all recovered", totalAcked)
}

// TestAckApplyRollbackIsTheDocumentedContract pins ack-on-apply's weaker
// guarantee: the ack arrives before durability, the write is immediately
// read-your-writes visible, and a crash before its epoch commits rolls it
// back — acked or not. That rollback is the documented trade, not a bug.
func TestAckApplyRollbackIsTheDocumentedContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "applyroll.pool")
	pool, eng := newTestEngine(t, path, Config{})
	// The write's commit reaches the medium, which never completes it.
	m := slowMedium(pool, 0, true)

	if _, err := eng.PutPolicy([]byte("k"), []byte("v"), AckApply); err != nil {
		t.Fatalf("ack-on-apply put: %v", err)
	}
	m.awaitSync(t)
	// Acked and visible (read-your-writes) while its epoch is not durable.
	if v, ok, err := eng.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get after apply-ack: %q %v %v", v, ok, err)
	}
	if got := eng.Stats().AckedOnApply.Load(); got != 1 {
		t.Fatalf("acked-on-apply counter = %d, want 1", got)
	}
	if got := eng.Stats().AckedWrites.Load(); got != 0 {
		t.Fatalf("durable-acked counter = %d, want 0 (nothing committed)", got)
	}

	crashed := make(chan struct{})
	go func() {
		eng.Crash()
		close(crashed)
	}()
	<-eng.stop
	m.releaseWith(errInjected)
	<-crashed
	// The fault stays in: closing the pool syncs it, and a sync that worked
	// would publish the epoch whose commit the crash cut off.
	pool.Close()
	kv := reopenedMap(t, path)
	if _, ok := kv.Get([]byte("k")); ok {
		t.Fatal("apply-acked write survived a crash before its commit — the weaker contract should have rolled it back")
	}
}

// TestAckApplyDecouplesAckFromMedia: on a slow medium, an ack-on-apply write
// returns without waiting for its commit while an ack-on-durable write must
// sit out a full one.
func TestAckApplyDecouplesAckFromMedia(t *testing.T) {
	const syncTime = 50 * time.Millisecond
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 4})
	defer pool.Close()
	defer eng.Close()
	slowMedium(pool, syncTime, false)

	t0 := time.Now()
	if _, err := eng.PutPolicy([]byte("fast"), []byte("v"), AckApply); err != nil {
		t.Fatal(err)
	}
	applyAck := time.Since(t0)

	t0 = time.Now()
	if _, err := eng.PutPolicy([]byte("slow"), []byte("v"), AckDurable); err != nil {
		t.Fatal(err)
	}
	durableAck := time.Since(t0)

	if applyAck >= syncTime/2 {
		t.Fatalf("apply-ack took %v, want well under the %v sync", applyAck, syncTime)
	}
	if durableAck < syncTime {
		t.Fatalf("durable ack returned in %v, before a %v sync could finish", durableAck, syncTime)
	}
	// Both writes commit regardless of how they were acked: a later durable
	// persist flushes the apply-acked mutation too.
	if ep, err := eng.Persist(); err != nil || ep == 0 {
		t.Fatalf("persist: %d %v", ep, err)
	}
}
