package server

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"pax"
	"pax/internal/wire"
)

// oneShard opens a one-shard in-memory fleet — the smallest configuration
// paxserve runs — and returns it with its shard's pool and engine, for tests
// that reach under the router.
func oneShard(t *testing.T, cfg Config) (*ShardedEngine, *pax.Pool, *Engine) {
	t.Helper()
	fleet := newSharded(t, "", 1, cfg)
	sh := (*fleet.shards.Load())[0]
	return fleet, sh.pool, sh.eng
}

// serveTCP serves fleet on a loopback port until the test ends, then shuts
// the server down and closes the fleet. policy is the server's default ack
// policy.
func serveTCP(t *testing.T, fleet *ShardedEngine, policy AckPolicy) (*Server, string) {
	t.Helper()
	srv := NewServer(fleet)
	srv.DefaultAckPolicy = policy
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown()
		fleet.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

// startTCP serves a one-shard in-memory fleet and returns the server, the
// fleet and its address.
func startTCP(t *testing.T) (*Server, *ShardedEngine, string) {
	t.Helper()
	fleet, _, _ := oneShard(t, Config{MaxBatch: 32})
	srv, addr := serveTCP(t, fleet, AckDurable)
	return srv, fleet, addr
}

func TestTCPEndToEnd(t *testing.T) {
	_, _, addr := startTCP(t)

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			for op := 0; op < 10; op++ {
				key := []byte(fmt.Sprintf("c%d-%d", c, op))
				val := bytes.Repeat(key, 3)
				ep, err := cl.Put(key, val)
				if err != nil || ep == 0 {
					t.Errorf("put %s: epoch=%d err=%v", key, ep, err)
					return
				}
				got, ok, err := cl.Get(key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					t.Errorf("get %s: %q ok=%v err=%v", key, got, ok, err)
					return
				}
			}
			// Delete one key; a second delete reports absent.
			key := []byte(fmt.Sprintf("c%d-0", c))
			if found, _, err := cl.Delete(key); err != nil || !found {
				t.Errorf("delete: found=%v err=%v", found, err)
			}
			if found, _, err := cl.Delete(key); err != nil || found {
				t.Errorf("re-delete: found=%v err=%v", found, err)
			}
			if _, ok, err := cl.Get(key); err != nil || ok {
				t.Errorf("get deleted: ok=%v err=%v", ok, err)
			}
		}(c)
	}
	wg.Wait()

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ep, err := cl.Persist(); err != nil || ep == 0 {
		t.Fatalf("persist: epoch=%d err=%v", ep, err)
	}
	text, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"paxserve_acked_writes", "paxserve_group_commits", "pax_device_persists", "pax_log_capacity_entries"} {
		if !strings.Contains(text, metric) {
			t.Fatalf("stats reply missing %s:\n%s", metric, text)
		}
	}
}

// Concurrent callers multiplexed onto ONE pipelined connection must still
// share group commits — the server dispatches a connection's requests
// concurrently, in wire order — when they arrive behind a commit in flight.
func TestTCPPipelinedConnectionSharesEpoch(t *testing.T) {
	fleet, pool, eng := oneShard(t, Config{MaxBatch: 64})
	m := slowMedium(pool, 0, true)
	defer m.releaseWith(nil)
	_, addr := serveTCP(t, fleet, AckDurable)

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	holdCommit(t, eng, m)

	const writers = 32
	epochs := make([]uint64, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := cl.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
			if err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			epochs[i] = ep
		}(i)
	}
	awaitQueued(t, eng, writers)
	m.releaseWith(nil)
	wg.Wait()
	for i := 1; i < writers; i++ {
		if epochs[i] != epochs[0] {
			t.Fatalf("pipelined puts split across epochs: %v", epochs)
		}
	}
	if got := eng.Stats().GroupCommits.Load(); got != 2 {
		t.Fatalf("expected two group commits (hold + one pipelined burst), got %d", got)
	}
}

func TestTCPShutdownClosesClients(t *testing.T) {
	srv, fleet, addr := startTCP(t)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	fleet.Close()
	if _, err := cl.Put([]byte("k2"), []byte("v")); err == nil {
		t.Fatal("put succeeded after server shutdown")
	}
	// Serve after Shutdown refuses to run.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(lis); err == nil {
		t.Fatal("Serve after Shutdown returned nil")
	}
}
