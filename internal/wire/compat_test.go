package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// This file pins the cross-version wire contract around the optional flags
// byte of PUT, DELETE and PERSIST: a pre-flags encoder's frames (no trailing
// byte) decode unchanged, a frame ending in FlagAckDurable decodes to the same
// request, any other flags byte is refused, and the encoder writes the old
// bytes exactly, so an old server parses them unchanged.

// oldEncodeRequest is the pre-flags encoder, reconstructed verbatim: opcode,
// then length-prefixed key (and value for PUT), never a trailing byte. It
// stands in for an old client/server binary in both compat directions.
func oldEncodeRequest(req Request) []byte {
	appendField := func(buf, b []byte) []byte {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
		return append(buf, b...)
	}
	buf := []byte{req.Op}
	switch req.Op {
	case OpGet, OpDelete:
		buf = appendField(buf, req.Key)
	case OpPut:
		buf = appendField(buf, req.Key)
		buf = appendField(buf, req.Value)
	}
	return buf
}

func frame(payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// TestOldClientDecodesAsDefaultPolicy: frames from a pre-flags encoder carry
// no flags byte, and the decoder reads them as the request they encode — which
// the server acks once durable, the contract an old client was written
// against.
func TestOldClientDecodesAsDefaultPolicy(t *testing.T) {
	for _, req := range []Request{
		{Op: OpPut, Key: []byte("k"), Value: []byte("v")},
		{Op: OpDelete, Key: []byte("k")},
		{Op: OpPersist},
		{Op: OpGet, Key: []byte("k")},
		{Op: OpStats},
		{Op: OpTrace},
	} {
		old := oldEncodeRequest(req)
		got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame(old))))
		if err != nil {
			t.Fatalf("%s: new decoder rejects old encoding: %v", OpName(req.Op), err)
		}
		if got.Op != req.Op || !bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Value, req.Value) {
			t.Fatalf("%s: old encoding decoded as %+v, want %+v", OpName(req.Op), got, req)
		}
	}
}

// TestDefaultPolicyEncodingIsByteIdenticalToOld: the encoder must emit exactly
// the old bytes, so an old server — which would reject trailing bytes —
// parses the frame unchanged.
func TestDefaultPolicyEncodingIsByteIdenticalToOld(t *testing.T) {
	for _, req := range []Request{
		{Op: OpPut, Key: []byte("key"), Value: []byte("value")},
		{Op: OpDelete, Key: []byte("key")},
		{Op: OpPersist},
		{Op: OpGet, Key: []byte("key")},
		{Op: OpStats},
		{Op: OpTrace},
	} {
		got, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("%s: %v", OpName(req.Op), err)
		}
		if want := oldEncodeRequest(req); !bytes.Equal(got, want) {
			t.Fatalf("%s: encoding % x differs from old encoding % x — an old server would reject it",
				OpName(req.Op), got, want)
		}
	}
}

// TestExplicitFlagsRoundTrip: a client written when the ack policy was a
// choice may end a mutation with FlagAckDurable. That byte asks for the one
// ack every mutation gets, so it decodes to the same request as the flagless
// frame and is served durable; the retired ack-on-apply byte (2) is refused.
func TestExplicitFlagsRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{Op: OpPut, Key: []byte("k"), Value: []byte("v")},
		{Op: OpDelete, Key: []byte("k")},
		{Op: OpPersist},
	} {
		old := oldEncodeRequest(req)
		got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame(append(old, FlagAckDurable)))))
		if err != nil {
			t.Fatalf("%s + FlagAckDurable: decode: %v", OpName(req.Op), err)
		}
		if got.Op != req.Op || !bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Value, req.Value) {
			t.Fatalf("%s + FlagAckDurable decoded as %+v, want %+v", OpName(req.Op), got, req)
		}
		if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame(append(old, 2))))); err == nil {
			t.Fatalf("%s: decoder accepted the retired ack-on-apply byte", OpName(req.Op))
		}
	}
}

// TestFlagValidation: a flags byte other than FlagAckDurable, and a flags
// byte on a non-mutation, are protocol errors, not silently misread bytes.
func TestFlagValidation(t *testing.T) {
	// A decoder must reject an unknown flags byte rather than ack under a
	// rule it does not know.
	for _, flags := range []byte{0, 2, 3, 0xff} {
		bad := append(oldEncodeRequest(Request{Op: OpPersist}), flags)
		if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame(bad)))); err == nil {
			t.Fatalf("decoder accepted flags byte %d", flags)
		}
	}
	// A trailing byte on GET is trailing garbage, not a policy.
	badGet := append(oldEncodeRequest(Request{Op: OpGet, Key: []byte("k")}), FlagAckDurable)
	if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame(badGet)))); err == nil {
		t.Fatal("decoder accepted a flags byte on GET")
	}
}
