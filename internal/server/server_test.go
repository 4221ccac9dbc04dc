package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pax"
	"pax/internal/wire"
)

// oneShard opens a one-shard fleet — the smallest configuration
// paxserve runs — and returns it with its shard's pool and engine, for tests
// that reach under the router.
func oneShard(t *testing.T, cfg Config) (*ShardedEngine, *pax.Pool, *Engine) {
	t.Helper()
	fleet := newSharded(t, tempPool(t), 1, cfg)
	sh := (*fleet.shards.Load())[0]
	return fleet, sh.pool, sh.eng
}

// serveTCP serves fleet on a loopback port until the test ends, then shuts
// the server down and closes the fleet.
func serveTCP(t *testing.T, fleet *ShardedEngine) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, fleet, lis)
}

// serveOn is serveTCP on a listener the test made.
func serveOn(t *testing.T, fleet *ShardedEngine, lis net.Listener) (*Server, string) {
	t.Helper()
	srv := NewServer(fleet)
	srv.Logf = t.Logf
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

// startTCP serves a one-shard fleet and returns the server, the
// fleet and its address.
func startTCP(t *testing.T) (*Server, *ShardedEngine, string) {
	t.Helper()
	fleet, _, _ := oneShard(t, Config{MaxBatch: 32})
	srv, addr := serveTCP(t, fleet)
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
	fleet, eng, ffs := faultyFleet(t, "", 1, Config{MaxBatch: 64})
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)
	_, addr := serveTCP(t, fleet)

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
	if got := eng.Stats().GroupCommits(); got != 2 {
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

// tapListener hands out connections that count the writes the server makes
// to them. Before each write reaches the socket a connection calls hold, if
// set, with the write's number (1 for the first).
type tapListener struct {
	net.Listener
	hold  func(n int64)
	conns chan *tapConn
}

func tap(t *testing.T, hold func(n int64)) *tapListener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One slot: a test that taps a listener dials it once.
	return &tapListener{Listener: lis, hold: hold, conns: make(chan *tapConn, 1)}
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, hold: l.hold}
	l.conns <- tc
	return tc, nil
}

type tapConn struct {
	net.Conn
	hold   func(n int64)
	writes atomic.Int64
}

func (c *tapConn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if c.hold != nil {
		c.hold(n)
	}
	return c.Conn.Write(p)
}

// rawClient speaks the wire protocol on a bare connection, so a test
// decides which requests share one client write.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// send writes reqs to the server in one write.
func (c *rawClient) send(reqs ...wire.Request) {
	c.t.Helper()
	var buf bytes.Buffer
	for _, req := range reqs {
		if err := wire.WriteRequest(&buf, req); err != nil {
			c.t.Fatal(err)
		}
	}
	if _, err := c.conn.Write(buf.Bytes()); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads the next response and fails the test if it does not arrive in
// time; what names the response in the failure.
func (c *rawClient) recv(within time.Duration, what string) wire.Response {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(within))
	resp, err := wire.ReadResponse(c.br)
	if err != nil {
		c.t.Fatalf("%s: %v", what, err)
	}
	return resp
}

// A connection's resolved responses leave together: sixteen pipelined GETs
// answered from the read index go out in at most two writes, not one write
// each. The writer may catch up with the reader once and flush what it has;
// the server's first write is held until a durable PUT sent after the GETs
// has reached the medium, so by then every GET is pending and the writer
// cannot catch up again by winning a race against the reader.
func TestResolvedResponsesShareOneWrite(t *testing.T) {
	fleet, eng, ffs := faultyFleet(t, "", 1, Config{})
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)
	resume := make(chan struct{})
	lis := tap(t, func(n int64) {
		if n == 1 {
			awaitClosed(resume)
		}
	})
	_, addr := serveOn(t, fleet, lis)
	cl := dialRaw(t, addr)

	const gets = 16
	reqs := make([]wire.Request, gets, gets+1)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpGet, Key: []byte("k")}
	}
	cl.send(append(reqs, wire.Request{Op: wire.OpPut, Key: []byte("p"), Value: []byte("w")})...)
	m.awaitSync(t)
	close(resume)
	for i := 0; i < gets; i++ {
		if resp := cl.recv(5*time.Second, fmt.Sprintf("GET %d", i)); resp.Status != wire.StatusOK || string(resp.Body) != "v" {
			t.Fatalf("GET %d: %+v", i, resp)
		}
	}
	writes := (<-lis.conns).writes.Load()
	m.releaseWith(nil)
	if resp := cl.recv(5*time.Second, "PUT after the sync is released"); resp.Status != wire.StatusOK {
		t.Fatalf("PUT: %+v", resp)
	}
	if writes > 2 {
		t.Fatalf("%d pipelined GET replies took %d server writes, want at most 2", gets, writes)
	}
}

// awaitClosed blocks a held server write until the test lets it go, or
// gives up after a while so a failed test can still shut its server down.
func awaitClosed(c chan struct{}) {
	select {
	case <-c:
	case <-time.After(5 * time.Second):
	}
}

// A resolved response is flushed before the writer blocks on a later one:
// a GET pipelined ahead of a durable PUT is answered while the PUT's commit
// is still on the medium. The server's first write is held until both are
// dispatched, so the writer finds the PUT already pending behind the GET —
// the case a writer that flushed only when nothing was pending would get
// wrong.
func TestResolvedResponseNotHeldBehindCommit(t *testing.T) {
	fleet, eng, ffs := faultyFleet(t, "", 1, Config{})
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)
	held, resume := make(chan struct{}), make(chan struct{})
	lis := tap(t, func(n int64) {
		if n == 1 {
			close(held)
			awaitClosed(resume)
		}
	})
	_, addr := serveOn(t, fleet, lis)
	cl := dialRaw(t, addr)

	cl.send(wire.Request{Op: wire.OpGet, Key: []byte("k")})
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the first reply never reached the connection")
	}
	cl.send(wire.Request{Op: wire.OpGet, Key: []byte("k")}, wire.Request{Op: wire.OpPut, Key: []byte("p"), Value: []byte("w")})
	m.awaitSync(t) // the PUT is dispatched and its commit holds the medium
	close(resume)

	for i := 1; i <= 2; i++ {
		if resp := cl.recv(5*time.Second, fmt.Sprintf("GET %d while the PUT's sync is held", i)); resp.Status != wire.StatusOK || string(resp.Body) != "v" {
			t.Fatalf("GET %d: %+v", i, resp)
		}
	}
	m.releaseWith(nil)
	if resp := cl.recv(5*time.Second, "PUT after the sync is released"); resp.Status != wire.StatusOK || wire.DecodeEpoch(resp.Body) == 0 {
		t.Fatalf("PUT: %+v", resp)
	}
}

// Dispatch allocates nothing of its own: a read-index GET costs only the
// value copy the index hands out, and an unknown opcode only its error
// text.
func TestDispatchAllocationCeilings(t *testing.T) {
	fleet, _, eng := oneShard(t, Config{})
	t.Cleanup(func() { fleet.Close() })
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fleet)
	dispatch := func(req wire.Request, want byte) float64 {
		return testing.AllocsPerRun(1000, func() {
			if resp, _ := srv.beginDispatch(req).response(true); resp.Status != want {
				t.Fatalf("%s: %+v", wire.OpName(req.Op), resp)
			}
		})
	}
	for _, c := range []struct {
		name         string
		got, ceiling float64
	}{
		{"read-index GET", dispatch(wire.Request{Op: wire.OpGet, Key: []byte("k")}, wire.StatusOK), 1},
		{"unknown opcode", dispatch(wire.Request{Op: 42}, wire.StatusError), 2},
	} {
		if c.got > c.ceiling {
			t.Errorf("%s: %v allocs, ceiling %v", c.name, c.got, c.ceiling)
		}
	}
}
