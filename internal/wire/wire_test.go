package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("k")},
		{Op: OpPut, Key: []byte("key"), Value: []byte("value")},
		{Op: OpPut, Key: []byte(""), Value: []byte("")},
		{Op: OpDelete, Key: []byte("gone")},
		{Op: OpPersist},
		{Op: OpStats},
		{Op: OpTrace},
	}
	var buf bytes.Buffer
	for _, req := range reqs {
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("write %s: %v", OpName(req.Op), err)
		}
	}
	br := bufio.NewReader(&buf)
	for _, want := range reqs {
		got, err := ReadRequest(br)
		if err != nil {
			t.Fatalf("read %s: %v", OpName(want.Op), err)
		}
		if got.Op != want.Op || !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("round trip %s: got %+v want %+v", OpName(want.Op), got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Body: []byte("v")},
		{Status: StatusNotFound},
		{Status: StatusError, Body: []byte("boom")},
		{Status: StatusOK, Body: EpochBody(712)},
		{Status: StatusOK, Body: bytes.Repeat([]byte("big"), 20)},
	}
	// A small bufio.Writer crosses its buffer's end mid-header and mid-body;
	// its frames must be the bytes the unbuffered path writes.
	var buf, buffered bytes.Buffer
	bw := bufio.NewWriterSize(&buffered, 16)
	for _, r := range resps {
		if err := WriteResponse(&buf, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteResponse(bw, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), buf.Bytes()) {
		t.Fatalf("bufio frames differ:\n%x\n%x", buffered.Bytes(), buf.Bytes())
	}
	br := bufio.NewReader(&buf)
	for _, want := range resps {
		got, err := ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
	if DecodeEpoch(EpochBody(712)) != 712 {
		t.Fatal("epoch body round trip")
	}
}

func TestReadRequestRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty payload":  {0, 0, 0, 0},
		"unknown opcode": {0, 0, 0, 1, 99},
		"retired EVENTS": {0, 0, 0, 1, 9},
		"truncated key":  {0, 0, 0, 3, OpGet, 0, 0},
		"huge frame":     {0xff, 0xff, 0xff, 0xff},
		"trailing bytes": {0, 0, 0, 7, OpGet, 0, 0, 0, 1, 'k', 'x'},
	}
	for name, raw := range cases {
		if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(raw))); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestFrameHeaderAllocatesNoMoreThanArrives: a header that announces a
// 16 MiB frame and is followed by nothing costs the reader one first chunk,
// not the announced length.
func TestFrameHeaderAllocatesNoMoreThanArrives(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader([]byte{0x00, 0xff, 0xff, 0xff}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRequest(br)
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("header then EOF: %v, want io.EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("header then EOF allocated %d bytes, want < 1 MiB", got)
	}
}

// TestLongFrameGrowsAsItArrives: a frame past the first chunk reads back
// whole, and one cut short past the first chunk is an unexpected EOF.
func TestLongFrameGrowsAsItArrives(t *testing.T) {
	put := Request{Op: OpPut, Key: []byte("k"), Value: bytes.Repeat([]byte("0123456789"), 100_000)}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, put); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil || !bytes.Equal(got.Value, put.Value) {
		t.Fatalf("read %d-byte value: %v", len(got.Value), err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(cut))); err != io.ErrUnexpectedEOF {
		t.Fatalf("frame one byte short: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFirstChunkFrameIsOneAllocation: a frame that fits the first chunk
// costs exactly one payload allocation.
func TestFirstChunkFrameIsOneAllocation(t *testing.T) {
	raw := frame(make([]byte, frameChunk))
	rd := bytes.NewReader(raw)
	br := bufio.NewReader(rd)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(raw)
		br.Reset(rd)
		if _, err := readFrame(br); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("%d-byte frame: %v allocations, want 1", frameChunk, allocs)
	}
}

// echoServer answers GETs with the key as value and PUTs with epoch 7,
// reading and writing frames strictly in order.
func echoServer(t *testing.T, conn net.Conn) {
	t.Helper()
	br := bufio.NewReader(conn)
	for {
		req, err := ReadRequest(br)
		if err != nil {
			return
		}
		var resp Response
		switch req.Op {
		case OpGet:
			resp = Response{Status: StatusOK, Body: req.Key}
		case OpPut:
			resp = Response{Status: StatusOK, Body: EpochBody(7)}
		case OpStats:
			resp = Response{Status: StatusOK, Body: []byte("x 1\n")}
		default:
			resp = Response{Status: StatusError, Body: []byte("nope")}
		}
		if err := WriteResponse(conn, resp); err != nil {
			return
		}
	}
}

func TestClientPipelinesConcurrentCallers(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	go echoServer(t, srvConn)
	c := NewClient(cliConn)
	defer c.Close()

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("key-%d", i))
			v, ok, err := c.Get(key)
			if err != nil || !ok || !bytes.Equal(v, key) {
				errs <- fmt.Errorf("get %s: v=%q ok=%v err=%v", key, v, ok, err)
				return
			}
			if ep, err := c.Put(key, key); err != nil || ep != 7 {
				errs <- fmt.Errorf("put %s: epoch=%d err=%v", key, ep, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientServerError(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	go echoServer(t, srvConn)
	c := NewClient(cliConn)
	defer c.Close()

	_, err := c.Persist()
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "nope") {
		t.Fatalf("want ServerError(nope), got %v", err)
	}
	// The connection survives a server-level error.
	if _, ok, err := c.Get([]byte("k")); err != nil || !ok {
		t.Fatalf("get after error: ok=%v err=%v", ok, err)
	}
}

// StatusBusy is the protocol's one retryable status: a client tells it from
// a fatal StatusError with errors.Is(err, ErrServerBusy).
func TestServerErrorBusyMatching(t *testing.T) {
	busy := &ServerError{Status: StatusBusy, Msg: "queue full"}
	if !errors.Is(busy, ErrServerBusy) {
		t.Fatal("StatusBusy ServerError must match ErrServerBusy")
	}
	fatal := &ServerError{Status: StatusError, Msg: "sealed"}
	if errors.Is(fatal, ErrServerBusy) {
		t.Fatal("StatusError ServerError must not match ErrServerBusy")
	}
}

func TestClientCloseFailsOutstanding(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn)
	// Server reads the request but never answers.
	seen := make(chan struct{})
	go func() {
		br := bufio.NewReader(srvConn)
		_, _ = ReadRequest(br)
		close(seen)
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get([]byte("k"))
		done <- err
	}()
	// Wait until the request is on the wire, then close underneath it.
	<-seen
	_ = c.Close()
	if err := <-done; err == nil {
		t.Fatal("outstanding call survived Close")
	}
	if _, _, err := c.Get([]byte("k")); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

// The codec's garbage per request, pinned: decoding a PUT with a 128-byte
// value allocates the frame's payload and nothing else (the length header is
// read in place from the bufio.Reader); encoding an epoch reply into a
// bufio.Writer builds the frame in the writer's buffer and allocates
// nothing. A change that adds an allocation to either fails here.
func TestCodecAllocationCeilings(t *testing.T) {
	var frame bytes.Buffer
	put := Request{Op: OpPut, Key: []byte("key-000042"), Value: bytes.Repeat([]byte("v"), 128)}
	if err := WriteRequest(&frame, put); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame.Bytes())
	br := bufio.NewReader(rd)
	decode := testing.AllocsPerRun(1000, func() {
		rd.Reset(frame.Bytes())
		br.Reset(rd)
		if _, err := ReadRequest(br); err != nil {
			t.Fatal(err)
		}
	})
	bw := bufio.NewWriter(io.Discard)
	resp := Response{Status: StatusOK, Body: EpochBody(42)}
	encode := testing.AllocsPerRun(1000, func() {
		if err := WriteResponse(bw, resp); err != nil {
			t.Fatal(err)
		}
	})
	for _, c := range []struct {
		name         string
		got, ceiling float64
	}{
		{"ReadRequest of a 128-byte PUT", decode, 1},
		{"WriteResponse of an epoch body", encode, 0},
	} {
		if c.got > c.ceiling {
			t.Errorf("%s: %v allocs, ceiling %v", c.name, c.got, c.ceiling)
		}
	}
}
