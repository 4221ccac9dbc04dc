// Package wire is paxserve's client/server protocol: a small length-prefixed
// binary framing for KV requests over a net.Conn.
//
// Every message is one frame:
//
//	frame    := length:u32be payload
//	request  := op:u8 body
//	response := status:u8 blen:u32be body
//
// Request bodies by opcode:
//
//	GET(1):             klen:u32be key
//	DELETE(3):          klen:u32be key [flags:u8]
//	PUT(2):             klen:u32be key vlen:u32be value [flags:u8]
//	PERSIST(4):         [flags:u8]
//	STATS(5), TRACE(6): empty
//	SPLIT(7):           shard:u32be (SplitAuto = pick the hottest shard)
//	MERGE(8):           shard:u32be (MergeAuto = pick the coldest shard)
//
// Every PUT, DELETE and PERSIST is acked once its group commit is on media;
// there is no other ack rule. The optional trailing flags byte on mutations
// is a compatibility rule for clients that once chose an ack policy: a
// decoder accepts FlagAckDurable there and ignores it, since that is what
// every mutation gets, and refuses any other value as unknown. An encoder
// never writes the byte.
//
// Response bodies: the value for GET, the durable epoch (u64le) for PUT /
// DELETE / PERSIST, the registry text for STATS, the flight-recorder
// snapshot as JSON for TRACE, the split report as JSON for SPLIT, the merge
// report as JSON for MERGE, an error
// message for StatusError, empty otherwise. The protocol is strictly in-order
// request/response per connection, which is what lets clients pipeline:
// the k-th response on a connection always answers the k-th request.
//
// # Ordering contract
//
// Responses are in request order, but *evaluation* order differs by opcode:
//
//   - PUT/DELETE/PERSIST are applied in wire order per connection and acked
//     only once durable, so a connection's mutations of a key are totally
//     ordered and an acked write is never lost.
//   - GET is evaluated at dispatch time against the server's volatile read
//     index — it does not serialize behind the connection's unacked
//     mutations. A GET pipelined behind a PUT of the same key, without
//     waiting for the PUT's response, may therefore observe the pre-PUT
//     value (its response still arrives in order). Reads are
//     read-your-writes with respect to acked mutations: wait for the PUT
//     response before the GET and the new value is guaranteed. A GET never
//     observes a write whose group commit has not succeeded, so a value it
//     serves is one no crash can roll back.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Opcodes.
const (
	OpGet     byte = 1
	OpPut     byte = 2
	OpDelete  byte = 3
	OpPersist byte = 4
	OpStats   byte = 5
	OpTrace   byte = 6
	OpSplit   byte = 7
	OpMerge   byte = 8
	OpEvents  byte = 9
)

// SplitAuto is the SPLIT shard operand meaning "pick the hottest shard":
// the server chooses the split source from its per-slot load counters.
const SplitAuto = ^uint32(0)

// MergeAuto is the MERGE shard operand meaning "pick the coldest shard":
// the server chooses the merge victim from its per-slot load signal.
const MergeAuto = ^uint32(0)

// Response statuses. StatusBusy is the retryable subset of failure: the
// server's request queue stayed full past its enqueue timeout (backpressure),
// so the same request may well succeed in a moment. StatusError is
// non-retryable from the protocol's point of view — bad request, or a server
// whose shard sealed after a durability failure. Clients key retry decisions
// off the status byte, never off the error message text.
const (
	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusError    byte = 2
	StatusBusy     byte = 3
)

// FlagAckDurable is the one flags byte a decoder accepts after a PUT,
// DELETE or PERSIST: it asks for the ack every mutation gets — once its
// group commit reached media — so it is read and dropped.
const FlagAckDurable byte = 1

// MaxFrame is the largest frame either side accepts. It bounds per-request
// memory on both ends; a frame header announcing more is a protocol error.
const MaxFrame = 16 << 20

// Request is one decoded client request.
type Request struct {
	Op    byte
	Key   []byte
	Value []byte
	// Shard is SPLIT's / MERGE's operand: the shard to split (or drain), or
	// SplitAuto / MergeAuto to let the server pick.
	Shard uint32
}

// Response is one decoded server reply.
type Response struct {
	Status byte
	Body   []byte
}

// OpName returns the mnemonic for an opcode (for errors and logs).
func OpName(op byte) string {
	switch op {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpPersist:
		return "PERSIST"
	case OpStats:
		return "STATS"
	case OpTrace:
		return "TRACE"
	case OpSplit:
		return "SPLIT"
	case OpMerge:
		return "MERGE"
	case OpEvents:
		return "EVENTS"
	}
	return fmt.Sprintf("op%d", op)
}

func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds max %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func takeBytes(payload []byte) (field, rest []byte, err error) {
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("wire: truncated length prefix")
	}
	n := binary.BigEndian.Uint32(payload)
	payload = payload[4:]
	if uint32(len(payload)) < n {
		return nil, nil, fmt.Errorf("wire: field of %d bytes in %d-byte remainder", n, len(payload))
	}
	return payload[:n], payload[n:], nil
}

// EncodeRequest renders a request payload (without the frame header).
func EncodeRequest(req Request) ([]byte, error) {
	buf := []byte{req.Op}
	switch req.Op {
	case OpGet, OpDelete:
		buf = appendBytes(buf, req.Key)
	case OpPut:
		buf = appendBytes(buf, req.Key)
		buf = appendBytes(buf, req.Value)
	case OpPersist, OpStats, OpTrace, OpEvents:
		// No body.
	case OpSplit, OpMerge:
		buf = binary.BigEndian.AppendUint32(buf, req.Shard)
	default:
		return nil, fmt.Errorf("wire: unknown opcode %d", req.Op)
	}
	return buf, nil
}

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, req Request) error {
	payload, err := EncodeRequest(req)
	if err != nil {
		return err
	}
	return writeFrame(w, payload)
}

// ReadRequest reads and decodes one request frame. Key and Value alias a
// fresh per-frame buffer, so callers may retain them.
func ReadRequest(r *bufio.Reader) (Request, error) {
	payload, err := readFrame(r)
	if err != nil {
		return Request{}, err
	}
	if len(payload) < 1 {
		return Request{}, fmt.Errorf("wire: empty request payload")
	}
	req := Request{Op: payload[0]}
	rest := payload[1:]
	switch req.Op {
	case OpGet, OpDelete:
		if req.Key, rest, err = takeBytes(rest); err != nil {
			return Request{}, fmt.Errorf("wire: %s key: %w", OpName(req.Op), err)
		}
	case OpPut:
		if req.Key, rest, err = takeBytes(rest); err != nil {
			return Request{}, fmt.Errorf("wire: PUT key: %w", err)
		}
		if req.Value, rest, err = takeBytes(rest); err != nil {
			return Request{}, fmt.Errorf("wire: PUT value: %w", err)
		}
	case OpPersist, OpStats, OpTrace, OpEvents:
		// No body.
	case OpSplit, OpMerge:
		if len(rest) < 4 {
			return Request{}, fmt.Errorf("wire: truncated %s shard operand", OpName(req.Op))
		}
		req.Shard = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
	default:
		return Request{}, fmt.Errorf("wire: unknown opcode %d", req.Op)
	}
	if len(rest) == 1 && (req.Op == OpPut || req.Op == OpDelete || req.Op == OpPersist) {
		// The optional flags byte: FlagAckDurable names the one ack rule.
		if rest[0] != FlagAckDurable {
			return Request{}, fmt.Errorf("wire: unknown ack flag %d on %s", rest[0], OpName(req.Op))
		}
		rest = rest[1:]
	}
	if len(rest) != 0 {
		return Request{}, fmt.Errorf("wire: %d trailing bytes after %s", len(rest), OpName(req.Op))
	}
	return req, nil
}

// respHeader is a response frame's bytes before its body: frame length,
// status and body length.
const respHeader = 4 + 1 + 4

// WriteResponse frames and writes one response. On a *bufio.Writer it
// builds the header in the writer's free space and allocates nothing.
func WriteResponse(w io.Writer, resp Response) error {
	n := 1 + 4 + len(resp.Body) // the frame: status, body length, body
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		if bw.Available() < respHeader {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		hdr = bw.AvailableBuffer()
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(n))
	hdr = append(hdr, resp.Status)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(resp.Body)))
	if _, err := w.Write(hdr); err != nil || len(resp.Body) == 0 {
		return err
	}
	_, err := w.Write(resp.Body)
	return err
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r *bufio.Reader) (Response, error) {
	payload, err := readFrame(r)
	if err != nil {
		return Response{}, err
	}
	if len(payload) < 1 {
		return Response{}, fmt.Errorf("wire: empty response payload")
	}
	resp := Response{Status: payload[0]}
	body, rest, err := takeBytes(payload[1:])
	if err != nil {
		return Response{}, fmt.Errorf("wire: response body: %w", err)
	}
	if len(rest) != 0 {
		return Response{}, fmt.Errorf("wire: %d trailing bytes after response", len(rest))
	}
	resp.Body = body
	return resp, nil
}

// EpochBody encodes a durable epoch as a response body.
func EpochBody(epoch uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], epoch)
	return b[:]
}

// DecodeEpoch decodes an EpochBody; zero for malformed bodies.
func DecodeEpoch(body []byte) uint64 {
	if len(body) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(body)
}
