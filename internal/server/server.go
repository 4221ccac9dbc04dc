package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"pax/internal/wire"
)

// Server is the TCP front end: it speaks the wire protocol and forwards
// requests to a shard fleet. Each connection gets a reader goroutine that
// enqueues requests on the fleet in wire order and a writer goroutine
// that sends the responses back in that same order — so pipelined requests
// are in flight concurrently and even a single connection's writes land in
// shared group commits.
type Server struct {
	fleet *ShardedEngine
	// DefaultAckPolicy is what a request without an explicit ack-policy flag
	// gets — every pre-flags client, and every new client sending
	// FlagAckDefault. The zero value is AckDurable, the protocol's original
	// contract; paxserve -ack-policy overrides it.
	DefaultAckPolicy AckPolicy
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

	// Responses must leave in request order, but a response is not ready
	// until its group commit — so the reader enqueues each request on the
	// engine immediately (one goroutine, so the engine applies them in wire
	// order) and pushes it onto pending; the writer drains pending in order.
	// Between the two, a connection's pipelined writes fill batches instead
	// of paying one commit each.
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
// either an engine request whose result is still to be collected, or a
// response rendered at dispatch (unknown opcode, enqueue failure).
type dispatched struct {
	req  *request // nil: resp is the response
	op   byte     // req's wire opcode, to render its result
	resp wire.Response
}

// response renders f's reply. Without block it returns ready false, and
// consumes nothing, if the engine has not resolved the request yet.
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

// beginDispatch starts req on the engine and returns it in flight.
// Enqueue failures (closed, backpressure) resolve immediately, and so do
// GETs: the engine answers them inline from the read index inside begin, so
// a pipelined GET's value is fixed at dispatch time — it does not serialize
// behind the connection's unacked PUTs (the response still leaves the wire
// in request order).
func (s *Server) beginDispatch(req wire.Request) dispatched {
	var op opKind
	switch req.Op {
	case wire.OpGet:
		op = opGet
	case wire.OpPut:
		op = opPut
	case wire.OpDelete:
		op = opDelete
	case wire.OpPersist:
		op = opPersist
	case wire.OpStats:
		op = opStats
	case wire.OpTrace:
		op = opTrace
	case wire.OpSplit:
		op = opSplit
	case wire.OpMerge:
		op = opMerge
	case wire.OpEvents:
		op = opEvents
	default:
		return dispatched{resp: wire.Response{Status: wire.StatusError, Body: []byte("unknown opcode " + wire.OpName(req.Op))}}
	}
	ereq := newRequest(op, req.Key, req.Value)
	if op == opSplit || op == opMerge {
		// SplitAuto/MergeAuto (all ones) means "server picks"; the engine
		// side uses -1.
		if req.Shard == wire.SplitAuto {
			ereq.shard = -1
		} else {
			ereq.shard = int(req.Shard)
		}
	}
	switch req.Flags {
	case wire.FlagAckDefault:
		ereq.ackOnApply = s.DefaultAckPolicy == AckApply && (op == opPut || op == opDelete || op == opPersist)
	case wire.FlagAckDurable:
		ereq.ackOnApply = false
	case wire.FlagAckApply:
		ereq.ackOnApply = true
	}
	if err := s.fleet.begin(ereq); err != nil {
		ereq.release()
		return dispatched{resp: errResponse(err)}
	}
	return dispatched{req: ereq, op: req.Op}
}

func renderResponse(op byte, res result) wire.Response {
	if res.err != nil {
		return errResponse(res.err)
	}
	switch op {
	case wire.OpGet:
		if !res.found {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{Status: wire.StatusOK, Body: res.value}
	case wire.OpPut, wire.OpPersist:
		return wire.Response{Status: wire.StatusOK, Body: wire.EpochBody(res.epoch)}
	case wire.OpDelete:
		st := wire.StatusOK
		if !res.found {
			st = wire.StatusNotFound
		}
		return wire.Response{Status: st, Body: wire.EpochBody(res.epoch)}
	case wire.OpStats:
		return wire.Response{Status: wire.StatusOK, Body: []byte(res.text)}
	case wire.OpTrace, wire.OpEvents, wire.OpSplit, wire.OpMerge:
		return wire.Response{Status: wire.StatusOK, Body: res.value}
	}
	return wire.Response{Status: wire.StatusError, Body: []byte("unknown opcode " + wire.OpName(op))}
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
