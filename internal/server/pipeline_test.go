package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pax"
	"pax/internal/pmem"
)

// This file tests the commit pipeline (sealer → persister → acker) and the
// per-request ack policies: media-latency overlap, the failure cascade
// across in-flight epochs, crash exactness with the pipeline full, and the
// documented weaker contract of ack-on-apply.

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

// TestPipelineOverlapsCommitLatency is the tentpole's A/B: with MaxBatch=1
// and four concurrent single-write batches, a serial engine (window 1) pays
// 4x the modeled media latency end to end, while a window that admits all
// four overlaps their media time and finishes in little more than one
// latency. Bounds are deliberately loose — the assertion is the overlap, not
// a precise speedup.
func TestPipelineOverlapsCommitLatency(t *testing.T) {
	const lat = 40 * time.Millisecond
	run := func(window int) time.Duration {
		pool, eng := newTestEngine(t, "", Config{
			MaxBatch: 1, MaxDelay: time.Millisecond,
			CommitLatency:      lat,
			MaxInflightCommits: window,
		})
		defer pool.Close()
		defer eng.Close()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
					t.Errorf("put %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}
	serial := run(1)
	pipelined := run(4)
	if serial < 4*lat-lat/8 {
		t.Fatalf("serial window finished in %v, want >= ~%v (4 batches x %v media latency)", serial, 4*lat, lat)
	}
	if pipelined >= 3*lat {
		t.Fatalf("window 4 finished in %v, want well under the serial %v (media time should overlap)", pipelined, serial)
	}
	t.Logf("4 single-write batches at %v media latency: serial %v, window-4 %v", lat, serial, pipelined)
}

// TestPipelineFailureFailsAllSealedEpochs is the failure cascade: epoch N's
// persist fails after retries while epoch N+1 is already sealed behind it.
// Both batches' waiters must fail — N because its media refused, N+1 because
// acking it would reorder durability past a hole — and the engine seals.
func TestPipelineFailureFailsAllSealedEpochs(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{
		MaxBatch: 1, MaxDelay: time.Millisecond,
		CommitRetries: 2, CommitRetryDelay: 25 * time.Millisecond,
		MaxInflightCommits: 2,
	})
	defer pool.Close()

	// Every sync fails: batch 1's persist retries for ~75ms before sealing,
	// which is the window batch 2 seals into the pipeline behind it.
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

// TestPipelineCrashRecoversExactlyAckedWrites re-runs the crash-exactness
// contract with the pipeline actually deep: small batches, modeled media
// latency, and a window of 4, so the crash lands with several epochs in
// flight (sealed, persisting, and awaiting ack). Acked ack-on-durable writes
// must all survive, unacked ones must all roll back — same contract as the
// serial engine, window notwithstanding.
func TestPipelineCrashRecoversExactlyAckedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipecrash.pool")
	pool, eng := newTestEngine(t, path, Config{
		MaxBatch: 4, MaxDelay: 500 * time.Microsecond,
		CommitLatency:      2 * time.Millisecond,
		MaxInflightCommits: 4,
	})

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
	time.Sleep(60 * time.Millisecond)
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
			if _, ok := kv.Get([]byte(key)); !ok {
				t.Fatalf("acked write %s lost in a mid-pipeline crash", key)
			}
		}
		for _, key := range logs[c].errored {
			if _, ok := kv.Get([]byte(key)); ok {
				t.Fatalf("unacked write %s survived the crash", key)
			}
		}
	}
	if totalAcked == 0 {
		t.Fatal("crashed before any write was acked; raise the sleep")
	}
	if got := int(kv.Len()); got != totalAcked {
		t.Fatalf("recovered %d keys, want exactly the %d acked", got, totalAcked)
	}
	t.Logf("mid-pipeline crash after %d acked writes; all recovered", totalAcked)
}

// TestAckApplyRollbackIsTheDocumentedContract pins ack-on-apply's weaker
// guarantee: the ack arrives before durability, the write is immediately
// read-your-writes visible, and a crash before its epoch commits rolls it
// back — acked or not. That rollback is the documented trade, not a bug.
func TestAckApplyRollbackIsTheDocumentedContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "applyroll.pool")
	// A batch that never seals: it opens behind a commit that holds the only
	// slot, with MaxDelay and the modeled media time far beyond the test.
	pool, eng := newTestEngine(t, path, busyPipelineConfig(time.Minute))
	holdPipeline(t, eng)

	if _, err := eng.PutPolicy([]byte("k"), []byte("v"), AckApply); err != nil {
		t.Fatalf("ack-on-apply put: %v", err)
	}
	// Acked and visible (read-your-writes) while its epoch is still open.
	if v, ok, err := eng.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get after apply-ack: %q %v %v", v, ok, err)
	}
	if got := eng.Stats().AckedOnApply.Load(); got != 2 {
		t.Fatalf("acked-on-apply counter = %d, want 2 (hold + k)", got)
	}
	if got := eng.Stats().AckedWrites.Load(); got != 0 {
		t.Fatalf("durable-acked counter = %d, want 0 (nothing committed)", got)
	}

	eng.Crash()
	if err := pool.Close(); err != nil {
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
	if _, ok := kv.Get([]byte("k")); ok {
		t.Fatal("apply-acked write survived a crash before its commit — the weaker contract should have rolled it back")
	}
}

// TestAckApplyDecouplesAckFromMedia: with a large modeled media latency, an
// ack-on-apply write returns without waiting for it while an ack-on-durable
// write must sit out the full commit.
func TestAckApplyDecouplesAckFromMedia(t *testing.T) {
	const lat = 50 * time.Millisecond
	pool, eng := newTestEngine(t, "", Config{
		MaxBatch: 4, MaxDelay: 5 * time.Millisecond, CommitLatency: lat,
	})
	defer pool.Close()
	defer eng.Close()

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

	if applyAck >= lat/2 {
		t.Fatalf("apply-ack took %v, want well under the %v media latency", applyAck, lat)
	}
	if durableAck < lat {
		t.Fatalf("durable ack returned in %v, before the %v media latency elapsed", durableAck, lat)
	}
	// Both writes commit regardless of how they were acked: a later durable
	// persist flushes the apply-acked mutation too.
	if ep, err := eng.Persist(); err != nil || ep == 0 {
		t.Fatalf("persist: %d %v", ep, err)
	}
}

// TestAckApplyPersistPolicy: an ack-on-apply PERSIST schedules the forced
// commit but reports the still-open epoch immediately; the commit itself
// still happens.
func TestAckApplyPersistPolicy(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 128, MaxDelay: time.Minute})
	defer pool.Close()

	if _, err := eng.PutPolicy([]byte("k"), []byte("v"), AckApply); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats().GroupCommits.Load()
	if _, err := eng.PersistPolicy(AckApply); err != nil {
		t.Fatalf("apply-acked persist: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().GroupCommits.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("forced commit never ran after an apply-acked PERSIST")
		}
		time.Sleep(time.Millisecond)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
