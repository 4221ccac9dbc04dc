package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"pax/internal/wire"
)

// Bounds on one FuzzDispatch input: every SPLIT grows the fleet by a shard
// file, so a stream holds at most maxFuzzSplits of them among its
// maxFuzzFrames frames.
const (
	maxFuzzFrames = 8
	maxFuzzSplits = 2
)

// fuzzStream cuts data into what FuzzDispatch sends and returns it with the
// requests the server must answer, in order. A stream ends either at a
// frame the decoder refuses — the server drops the connection there — or
// at a frame boundary followed by an empty frame, which the server refuses
// the same way, so the connection closes after the last response either
// way. A trailing partial frame is dropped, as are the frames past the
// bounds.
func fuzzStream(data []byte) ([]byte, []wire.Request) {
	r := bytes.NewReader(data)
	br := bufio.NewReader(r)
	consumed := func() int { return len(data) - r.Len() - br.Buffered() }
	var reqs []wire.Request
	splits, end := 0, 0
	for len(reqs) < maxFuzzFrames {
		req, err := wire.ReadRequest(br)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break
		}
		if err != nil {
			return data, reqs
		}
		if req.Op == wire.OpSplit {
			if splits++; splits > maxFuzzSplits {
				break
			}
		}
		reqs = append(reqs, req)
		end = consumed()
	}
	return append(data[:end:end], 0, 0, 0, 0), reqs
}

// checkResponse fails t unless resp has the shape req's opcode answers
// with, so a response delivered out of order shows as the wrong shape.
func checkResponse(t *testing.T, i int, req wire.Request, resp wire.Response) {
	t.Helper()
	epochBody := len(resp.Body) == 8 && wire.DecodeEpoch(resp.Body) > 0
	var ok bool
	switch req.Op {
	case wire.OpGet:
		ok = resp.Status == wire.StatusOK || (resp.Status == wire.StatusNotFound && len(resp.Body) == 0)
	case wire.OpPut, wire.OpPersist:
		ok = resp.Status == wire.StatusOK && epochBody
	case wire.OpDelete:
		ok = (resp.Status == wire.StatusOK || resp.Status == wire.StatusNotFound) && epochBody
	case wire.OpStats:
		ok = resp.Status == wire.StatusOK && strings.Contains(string(resp.Body), "paxserve_shards ")
	case wire.OpTrace:
		// The event ring encodes as an array, [] when empty, never null.
		var snap TraceSnapshot
		ok = resp.Status == wire.StatusOK && json.Unmarshal(resp.Body, &snap) == nil && snap.Shards > 0 && snap.Events != nil
	case wire.OpSplit:
		var rep SplitReport
		ok = resp.Status == wire.StatusError || (resp.Status == wire.StatusOK && json.Unmarshal(resp.Body, &rep) == nil && rep.Shards > 1)
	case wire.OpMerge:
		var rep MergeReport
		ok = resp.Status == wire.StatusError || (resp.Status == wire.StatusOK && json.Unmarshal(resp.Body, &rep) == nil && rep.Shards > 0)
	}
	if !ok {
		t.Fatalf("response %d to %s: status %d body %q", i, wire.OpName(req.Op), resp.Status, resp.Body)
	}
}

// FuzzDispatch feeds hostile frame streams through Server.handle, over a
// pipe, into a one-shard fleet on files. The server must not panic, and it
// must answer exactly the frames the decoder accepts — each with a response
// of its opcode's shape, in order — and then close the connection.
func FuzzDispatch(f *testing.F) {
	shapes := []wire.Request{
		{Op: wire.OpGet, Key: []byte("k")},
		{Op: wire.OpPut, Key: []byte("key"), Value: []byte("value")},
		{Op: wire.OpPut},
		{Op: wire.OpDelete, Key: []byte("gone")},
		{Op: wire.OpPersist},
		{Op: wire.OpStats},
		{Op: wire.OpTrace},
		{Op: wire.OpSplit, Shard: 3},
		{Op: wire.OpMerge, Shard: wire.MergeAuto},
	}
	frame := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	var all []byte
	for _, req := range shapes {
		payload, err := wire.EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		// No flags byte, the one accepted flags byte, and the retired one.
		f.Add(frame(payload))
		f.Add(frame(append(payload[:len(payload):len(payload)], wire.FlagAckDurable)))
		f.Add(frame(append(payload[:len(payload):len(payload)], 2)))
		all = append(all, frame(payload)...)
	}
	// Opcode 9 was EVENTS; it is retired, so the decoder refuses it, with or
	// without a flags byte, and the server drops the connection unanswered.
	for _, flags := range [][]byte{nil, {wire.FlagAckDurable}, {2}} {
		f.Add(frame(append([]byte{9}, flags...)))
	}
	f.Add(all)
	var reshard []byte
	for _, req := range []wire.Request{
		{Op: wire.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Op: wire.OpSplit, Shard: wire.SplitAuto},
		{Op: wire.OpGet, Key: []byte("a")},
		{Op: wire.OpPut, Key: []byte("b"), Value: []byte("2")},
		{Op: wire.OpMerge, Shard: wire.MergeAuto},
		{Op: wire.OpDelete, Key: []byte("a")},
		{Op: wire.OpTrace},
	} {
		payload, err := wire.EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		reshard = append(reshard, frame(payload)...)
	}
	f.Add(reshard)

	f.Fuzz(func(t *testing.T, data []byte) {
		stream, reqs := fuzzStream(data)
		fleet := newSharded(t, tempPool(t), 1, Config{MaxBatch: 4})
		defer fleet.Close()
		client, conn := net.Pipe()
		defer client.Close()
		if err := client.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			NewServer(fleet).handle(conn)
		}()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			_, _ = client.Write(stream) // fails once the server drops the connection
		}()
		br := bufio.NewReader(client)
		for i, req := range reqs {
			resp, err := wire.ReadResponse(br)
			if err != nil {
				t.Fatalf("response %d of %d (%s): %v", i, len(reqs), wire.OpName(req.Op), err)
			}
			checkResponse(t, i, req, resp)
		}
		if resp, err := wire.ReadResponse(br); !errors.Is(err, io.EOF) {
			t.Fatalf("after %d responses: %+v, %v; want the connection closed", len(reqs), resp, err)
		}
		client.Close()
		<-sent
		<-served
	})
}
