package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"pax/internal/wire"
)

// Server is the TCP front end: it speaks the wire protocol and forwards
// requests to a shard fleet. Each connection gets a reader goroutine that
// dispatches requests to the fleet in wire order and a writer goroutine
// that sends the responses back in that same order — so pipelined requests
// are in flight concurrently and even a single connection's writes land in
// shared group commits.
type Server struct {
	fleet *ShardedEngine
	// WriteTimeout bounds each write of buffered responses to the
	// connection (default 30s).
	WriteTimeout time.Duration
	// Logf, when set, receives connection-level errors (default: drop them;
	// a malformed client is not a server event worth crashing over).
	Logf func(format string, args ...any)

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup
}

// NewServer wraps a shard fleet; a one-shard fleet is the smallest server.
func NewServer(fleet *ShardedEngine) *Server {
	return &Server{fleet: fleet, WriteTimeout: 30 * time.Second, conns: make(map[net.Conn]struct{})}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections on lis until Shutdown. It returns nil after a
// clean shutdown and the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	s.listener = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.shutdown
			s.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown stops accepting, closes every live connection, and waits for the
// handlers to drain. It does not close the engine — the daemon does, after
// the last response is on the wire.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.shutdown = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// maxInflight bounds how many pipelined requests one connection may have
// dispatched at once; past it the reader stops reading and TCP pushes back.
const maxInflight = 256

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(timedWriter{conn, s.WriteTimeout})

	// Responses must leave in request order, but a write's response is not
	// ready until its group commit — so the reader dispatches each request
	// immediately (one goroutine, so each shard applies a connection's writes
	// in wire order) and pushes it onto pending; the writer drains pending in
	// order. Between the two, a connection's pipelined writes fill batches
	// instead of paying one commit each.
	//
	// The writer flushes before it blocks: it buffers every response that is
	// already resolved and writes them out in one go when pending is empty or
	// the next response is not ready. Flushing only when pending is empty
	// would hold a resolved response behind a later request's whole commit.
	pending := make(chan dispatched, maxInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		broken := false
		fail := func(err error) {
			s.logf("paxserve: %s: write: %v", conn.RemoteAddr(), err)
			broken = true
			conn.Close() // unblock the reader
		}
		flush := func() {
			if broken {
				return
			}
			if err := bw.Flush(); err != nil {
				fail(err)
			}
		}
		for f := range pending {
			resp, ready := f.response(false)
			if !ready {
				flush()
				resp, _ = f.response(true) // must consume even after a write error
			}
			if !broken {
				if err := wire.WriteResponse(bw, resp); err != nil {
					fail(err)
				}
			}
			if len(pending) == 0 {
				flush()
			}
		}
	}()
	for {
		req, err := wire.ReadRequest(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("paxserve: %s: read: %v", conn.RemoteAddr(), err)
			}
			break
		}
		pending <- s.beginDispatch(req)
	}
	close(pending)
	<-writerDone
}

// timedWriter renews the connection's write deadline before every write
// that reaches the socket, so a deadline bounds each buffer that goes out
// rather than each response put into it.
type timedWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w timedWriter) Write(p []byte) (int, error) {
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	return w.conn.Write(p)
}

// dispatched is one request in flight as the connection writer sees it:
// either a future whose result is still to be collected — a PUT or DELETE
// queued on its shard, or a fleet-wide PERSIST, SPLIT or MERGE running off
// the reader — or a response ready at dispatch.
type dispatched struct {
	req  *request // nil: resp is the response
	op   byte     // req's wire opcode, to render its result
	resp wire.Response
}

// response renders f's reply. Without block it returns ready false, and
// consumes nothing, if the future has not resolved yet.
func (f dispatched) response(block bool) (resp wire.Response, ready bool) {
	if f.req == nil {
		return f.resp, true
	}
	var res result
	if block {
		res = <-f.req.done
	} else {
		select {
		case res = <-f.req.done:
		default:
			return wire.Response{}, false
		}
	}
	f.req.release()
	return renderResponse(f.op, res), true
}

// beginDispatch starts req and returns it in flight. Only a PUT or DELETE
// enters a shard's queue; everything else is either a fleet call (runFleet)
// or answered right here. A GET reads the read index at dispatch time, so it
// does not serialize behind the connection's unacked PUTs, and STATS and
// TRACE read atomics and mutex-guarded rings, so they answer on a sealed
// fleet too (every response still leaves the wire in request order).
func (s *Server) beginDispatch(req wire.Request) dispatched {
	switch req.Op {
	case wire.OpGet:
		v, ok, err := s.fleet.Get(req.Key)
		switch {
		case err != nil:
			return dispatched{resp: errResponse(err)}
		case !ok:
			return dispatched{resp: wire.Response{Status: wire.StatusNotFound}}
		}
		return dispatched{resp: wire.Response{Status: wire.StatusOK, Body: v}}
	case wire.OpPut, wire.OpDelete:
		op := opPut
		if req.Op == wire.OpDelete {
			op = opDelete
		}
		ereq := newRequest(op, req.Key, req.Value)
		if err := s.fleet.begin(ereq); err != nil {
			ereq.release()
			return dispatched{resp: errResponse(err)}
		}
		return dispatched{req: ereq, op: req.Op}
	case wire.OpPersist:
		return runFleet(req.Op, func() result {
			epoch, err := s.fleet.Persist()
			return result{epoch: epoch, err: err}
		})
	case wire.OpSplit:
		shard := shardOperand(req.Shard)
		return runFleet(req.Op, func() result { return reportResult(s.fleet.Split(shard)) })
	case wire.OpMerge:
		shard := shardOperand(req.Shard)
		return runFleet(req.Op, func() result { return reportResult(s.fleet.Merge(shard)) })
	case wire.OpStats:
		text, err := s.fleet.StatsText()
		return bodyResponse([]byte(text), err)
	case wire.OpTrace:
		return bodyResponse(json.Marshal(s.fleet.Trace()))
	}
	return dispatched{resp: wire.Response{Status: wire.StatusError, Body: []byte("unknown opcode " + wire.OpName(req.Op))}}
}

// runFleet runs a fleet-wide call off the connection reader — a PERSIST
// waits on every shard's commit, a SPLIT or MERGE on drain barriers and bulk
// copies — and returns a pooled request as the future its result resolves.
func runFleet(op byte, call func() result) dispatched {
	req := requestPool.Get().(*request)
	go func() { req.finish(call()) }()
	return dispatched{req: req, op: op}
}

// shardOperand maps SPLIT's / MERGE's operand onto the fleet's: SplitAuto
// (= MergeAuto, all ones) means "server picks", which the fleet spells -1.
func shardOperand(shard uint32) int {
	if shard == wire.SplitAuto {
		return -1
	}
	return int(shard)
}

// reportResult renders a SPLIT or MERGE report as its JSON body.
func reportResult(rep any, err error) result {
	if err != nil {
		return result{err: err}
	}
	buf, err := json.Marshal(rep)
	return result{value: buf, err: err}
}

// bodyResponse is a response ready at dispatch: body on success.
func bodyResponse(body []byte, err error) dispatched {
	if err != nil {
		return dispatched{resp: errResponse(err)}
	}
	return dispatched{resp: wire.Response{Status: wire.StatusOK, Body: body}}
}

// renderResponse renders a future's result: the durable epoch for PUT,
// DELETE and PERSIST (NOT_FOUND for a DELETE of an absent key), the JSON
// report for SPLIT and MERGE.
func renderResponse(op byte, res result) wire.Response {
	if res.err != nil {
		return errResponse(res.err)
	}
	switch op {
	case wire.OpDelete:
		st := wire.StatusOK
		if !res.found {
			st = wire.StatusNotFound
		}
		return wire.Response{Status: st, Body: wire.EpochBody(res.epoch)}
	case wire.OpSplit, wire.OpMerge:
		return wire.Response{Status: wire.StatusOK, Body: res.value}
	}
	return wire.Response{Status: wire.StatusOK, Body: wire.EpochBody(res.epoch)}
}

// errResponse maps engine errors onto wire statuses: backpressure (ErrBusy)
// becomes StatusBusy so clients retry by status byte; everything else —
// including a sealed shard's durability error — is StatusError, which a
// client must not blindly retry.
func errResponse(err error) wire.Response {
	status := wire.StatusError
	if errors.Is(err, ErrBusy) {
		status = wire.StatusBusy
	}
	return wire.Response{Status: status, Body: []byte(err.Error())}
}
