package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// decodeFrame runs ReadRequest or ReadResponse on payload framed as one
// frame.
func decodeFrame[T any](payload []byte, read func(*bufio.Reader) (T, error)) (T, error) {
	return read(bufio.NewReader(bytes.NewReader(frame(payload))))
}

// FuzzReadRequest feeds the request decoder hostile payloads. It must never
// panic, and every request it accepts must encode to a payload that decodes
// to the same request.
func FuzzReadRequest(f *testing.F) {
	for _, req := range []Request{
		{Op: OpGet, Key: []byte("k")},
		{Op: OpPut, Key: []byte("key"), Value: []byte("value")},
		{Op: OpPut},
		{Op: OpDelete, Key: []byte("gone")},
		{Op: OpPersist},
		{Op: OpStats},
		{Op: OpTrace},
		{Op: OpSplit, Shard: 3},
		{Op: OpMerge, Shard: MergeAuto},
	} {
		payload, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		// No flags byte, the one accepted flags byte, and the retired one.
		f.Add(payload)
		f.Add(append(append([]byte(nil), payload...), FlagAckDurable))
		f.Add(append(append([]byte(nil), payload...), 2))
	}
	// Opcode 9 was EVENTS; it is retired, so the decoder must refuse it,
	// with or without a flags byte.
	for _, flags := range [][]byte{nil, {FlagAckDurable}, {2}} {
		f.Add(append([]byte{9}, flags...))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeFrame(payload, ReadRequest)
		if err != nil {
			return
		}
		again, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("accepted %+v but cannot encode it: %v", req, err)
		}
		got, err := decodeFrame(again, ReadRequest)
		if err != nil {
			t.Fatalf("re-encoded %+v as % x, which does not decode: %v", req, again, err)
		}
		if got.Op != req.Op || !bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Value, req.Value) || got.Shard != req.Shard {
			t.Fatalf("decoded %+v, re-encoded as % x, decoded again as %+v", req, again, got)
		}
	})
}

// FuzzReadResponse is FuzzReadRequest for the response decoder: no panic,
// and every accepted response written again reads back the same.
func FuzzReadResponse(f *testing.F) {
	for _, resp := range []Response{
		{Status: StatusOK, Body: []byte("v")},
		{Status: StatusOK, Body: EpochBody(712)},
		{Status: StatusNotFound},
		{Status: StatusError, Body: []byte("server: engine sealed by durability failure")},
		{Status: StatusBusy, Body: []byte("server: request queue full")},
	} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			f.Fatal(err)
		}
		payload := buf.Bytes()[4:] // the frame's payload, after its length
		f.Add(payload)
		f.Add(append(append([]byte(nil), payload...), FlagAckDurable))
		f.Add(append(append([]byte(nil), payload...), 2))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := decodeFrame(payload, ReadResponse)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatalf("accepted %+v but cannot write it: %v", resp, err)
		}
		got, err := ReadResponse(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("wrote %+v, which does not read back: %v", resp, err)
		}
		if got.Status != resp.Status || !bytes.Equal(got.Body, resp.Body) {
			t.Fatalf("read %+v, wrote it, read back %+v", resp, got)
		}
	})
}
