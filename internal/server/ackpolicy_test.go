package server

import (
	"encoding/binary"
	"testing"
	"time"

	"pax/internal/wire"
)

// TestTCPAckPolicyFlags holds the wire's one compatibility rule end to end:
// a PUT frame without a flags byte (every client today) and one ending in
// FlagAckDurable (a client written when the policy was a choice) are both
// acked at their group commit, and a frame ending in the retired
// ack-on-apply byte is refused — the server drops the connection and applies
// nothing.
func TestTCPAckPolicyFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flags  []byte
		served bool
	}{
		{"default server, no flag (old client)", nil, true},
		{"default server, explicit durable", []byte{wire.FlagAckDurable}, true},
		{"default server, explicit apply", []byte{2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, _, eng := oneShard(t, Config{MaxBatch: 4})
			_, addr := serveTCP(t, fleet)
			c := dialRaw(t, addr)
			payload, err := wire.EncodeRequest(wire.Request{Op: wire.OpPut, Key: []byte("k"), Value: []byte("v")})
			if err != nil {
				t.Fatal(err)
			}
			payload = append(payload, tc.flags...)
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
			if _, err := c.conn.Write(append(frame, payload...)); err != nil {
				t.Fatal(err)
			}
			if !tc.served {
				_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if resp, err := wire.ReadResponse(c.br); err == nil {
					t.Fatalf("server answered a retired flag byte with status %d", resp.Status)
				}
				if _, ok, err := eng.Get([]byte("k")); err != nil || ok {
					t.Fatalf("a refused PUT was applied: ok=%v err=%v", ok, err)
				}
				return
			}
			if resp := c.recv(5*time.Second, "PUT"); resp.Status != wire.StatusOK {
				t.Fatalf("PUT status %d: %s", resp.Status, resp.Body)
			}
			// The ack came from the commit: the counter is bumped there,
			// just before the response is released.
			if got := eng.Stats().AckedWrites.Load(); got != 1 {
				t.Fatalf("acked writes = %d, want 1", got)
			}
			if v, ok, err := eng.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
				t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
			}
		})
	}
}
