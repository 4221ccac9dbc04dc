package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
)

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("wire: client closed")

// ErrServerBusy matches (via errors.Is) a ServerError carrying StatusBusy:
// the server shed the request under backpressure and the caller may retry.
var ErrServerBusy = errors.New("wire: server busy")

// ServerError is a failure reply (StatusError or StatusBusy) decoded into a
// Go error. Status preserves the wire status so callers branch on it — not
// on the message text, which is advisory.
type ServerError struct {
	Status byte
	Msg    string
}

func (e *ServerError) Error() string {
	if e.Status == StatusBusy {
		return "paxserve: busy: " + e.Msg
	}
	return "paxserve: " + e.Msg
}

// Is reports errors.Is(err, ErrServerBusy) for busy replies, so callers can
// test retryability without unwrapping to the concrete type.
func (e *ServerError) Is(target error) bool {
	return target == ErrServerBusy && e.Status == StatusBusy
}

// Client is a paxserve connection. It is safe for concurrent use and
// pipelines: each caller writes its frame and queues a reply slot, then
// blocks on its own slot while a single reader goroutine matches in-order
// responses to slots. Under N concurrent callers the connection carries up
// to N outstanding requests, which is what lets the server batch them into
// one group commit.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer

	wmu    sync.Mutex // serializes frame writes and pending pushes
	err    error      // sticky; set on first transport failure or Close
	closed bool

	pending chan chan result
	done    chan struct{} // closed when the reader goroutine exits
}

type result struct {
	resp Response
	err  error
}

// maxPipeline bounds outstanding requests per connection; a caller past the
// bound blocks in roundTrip until replies drain.
const maxPipeline = 256

// Dial connects to a paxserve at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (any net.Conn, so tests can use
// net.Pipe). The client owns conn and closes it on Close.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		pending: make(chan chan result, maxPipeline),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReader(c.conn)
	for slot := range c.pending {
		resp, err := ReadResponse(br)
		if err != nil {
			c.fail(fmt.Errorf("wire: reading response: %w", err))
			slot <- result{err: c.callErr()}
			continue // keep draining: every queued slot gets the sticky error
		}
		slot <- result{resp: resp}
	}
}

// fail records the first transport error and tears the connection down so
// in-flight writers unblock.
func (c *Client) fail(err error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.err == nil {
		c.err = err
		_ = c.conn.Close()
	}
}

func (c *Client) callErr() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.err
}

// Close tears down the connection. Outstanding calls fail with
// ErrClientClosed (or the read error that raced with it).
func (c *Client) Close() error {
	c.wmu.Lock()
	if c.closed {
		c.wmu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	if c.err == nil {
		c.err = ErrClientClosed
	}
	err := c.conn.Close()
	close(c.pending)
	c.wmu.Unlock()
	<-c.done
	return err
}

func (c *Client) roundTrip(req Request) (Response, error) {
	slot := make(chan result, 1)
	c.wmu.Lock()
	if c.err != nil {
		err := c.err
		c.wmu.Unlock()
		return Response{}, err
	}
	if err := WriteRequest(c.bw, req); err == nil {
		err = c.bw.Flush()
		if err != nil {
			c.wmu.Unlock()
			c.fail(err)
			return Response{}, err
		}
	} else {
		c.wmu.Unlock()
		return Response{}, err
	}
	// Push under wmu so pending order always matches write order.
	c.pending <- slot
	c.wmu.Unlock()

	r := <-slot
	if r.err != nil {
		return Response{}, r.err
	}
	if r.resp.Status == StatusError || r.resp.Status == StatusBusy {
		return Response{}, &ServerError{Status: r.resp.Status, Msg: string(r.resp.Body)}
	}
	return r.resp, nil
}

// Get fetches key; ok reports presence. A GET is evaluated at server
// dispatch time against the read index — pipelined concurrent callers
// should note it does not wait for this connection's unacked mutations
// (see the package ordering contract).
func (c *Client) Get(key []byte) (value []byte, ok bool, err error) {
	resp, err := c.roundTrip(Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	if resp.Status == StatusNotFound {
		return nil, false, nil
	}
	return resp.Body, true, nil
}

// Put stores key=value, returning once the write is durable. The returned
// epoch is the snapshot that contains it.
func (c *Client) Put(key, value []byte) (epoch uint64, err error) {
	resp, err := c.roundTrip(Request{Op: OpPut, Key: key, Value: value})
	if err != nil {
		return 0, err
	}
	return DecodeEpoch(resp.Body), nil
}

// Delete removes key, reporting whether it was present; like Put it returns
// once the deletion is durable.
func (c *Client) Delete(key []byte) (found bool, epoch uint64, err error) {
	resp, err := c.roundTrip(Request{Op: OpDelete, Key: key})
	if err != nil {
		return false, 0, err
	}
	return resp.Status != StatusNotFound, DecodeEpoch(resp.Body), nil
}

// Persist forces a group commit of everything applied so far.
func (c *Client) Persist() (epoch uint64, err error) {
	resp, err := c.roundTrip(Request{Op: OpPersist})
	if err != nil {
		return 0, err
	}
	return DecodeEpoch(resp.Body), nil
}

// Stats fetches the server's metrics registry as `name value` text lines.
func (c *Client) Stats() (string, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return "", err
	}
	return string(resp.Body), nil
}

// Trace fetches the server's commit flight recorder and recent lifecycle
// events as raw JSON (a server.TraceSnapshot; the wire layer does not decode
// it — paxinspect and the debug HTTP plane pass it through, tooling
// unmarshals it). It is answered inline, so a sealed server still reports
// the events that explain its seal.
func (c *Client) Trace() ([]byte, error) {
	resp, err := c.roundTrip(Request{Op: OpTrace})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Split asks a sharded server to split one shard live: shard >= 0 names the
// split source, shard < 0 sends SplitAuto and the server picks its hottest
// shard. The reply is the server's split report as raw JSON (a SplitReport;
// like Trace, the wire layer passes it through undecoded). The call blocks
// until the migration completes — every moved slot is copied, durable on
// its new owner, and the new assignment is published.
func (c *Client) Split(shard int) ([]byte, error) {
	operand := SplitAuto
	if shard >= 0 {
		operand = uint32(shard)
	}
	resp, err := c.roundTrip(Request{Op: OpSplit, Shard: operand})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Merge asks a sharded server to shrink its fleet by one shard: shard >= 0
// names the victim to drain, shard < 0 sends MergeAuto and the server picks
// its coldest shard. The reply is the server's merge report as raw JSON (a
// MergeReport, passed through undecoded like Split). The call blocks until
// every slot has left the retired shard, the shrunk assignment is published,
// and the shard file is removed.
func (c *Client) Merge(shard int) ([]byte, error) {
	operand := MergeAuto
	if shard >= 0 {
		operand = uint32(shard)
	}
	resp, err := c.roundTrip(Request{Op: OpMerge, Shard: operand})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}
