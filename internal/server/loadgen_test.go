package server

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestLoadgenAmortization is the acceptance bar for the serving subsystem:
// ≥64 concurrent clients drive the engine and the group-commit layer turns
// their individually-acked durable writes into far fewer snapshots. Every
// sync takes 2 ms and no batch ever waits for company, so the batching is a
// property of the commit path alone — a batch is whatever arrived while the
// previous commit was on the medium.
func TestLoadgenAmortization(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{MaxBatch: 64})
	defer pool.Close()
	slowMedium(ffs, 2*time.Millisecond, false)

	const (
		clients      = 64
		opsPerClient = 20
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; op < opsPerClient; op++ {
				key := []byte(fmt.Sprintf("c%02d-%04d", c, op))
				if _, err := eng.Put(key, key); err != nil {
					t.Errorf("client %d op %d: %v", c, op, err)
					return
				}
				if op%4 == 3 { // mixed traffic: reads ride the same queue
					if _, ok, err := eng.Get(key); err != nil || !ok {
						t.Errorf("client %d read-back %s: ok=%v err=%v", c, key, ok, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	acked := eng.Stats().AckedWrites.Load()
	commits := eng.Stats().GroupCommits()
	if acked != clients*opsPerClient {
		t.Fatalf("acked %d writes, want %d", acked, clients*opsPerClient)
	}
	if commits == 0 {
		t.Fatal("no group commits recorded")
	}
	// The whole point: persist count « acked-write count. Even with hostile
	// scheduling, 64 always-pending clients must average well above 4
	// writes per snapshot.
	if amort := float64(acked) / float64(commits); amort < 4 {
		t.Fatalf("amortization %.1f writes/commit (acked %d, commits %d): group commit is not batching",
			amort, acked, commits)
	} else {
		t.Logf("%d clients: %d acked writes over %d group commits = %.1f writes/snapshot (max batch %d)",
			clients, acked, commits, amort, eng.Stats().BatchMax.Load())
	}
}
