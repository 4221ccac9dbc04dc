package server

import (
	"encoding/json"
	"sync"
	"time"
)

// This file is the structured-lifecycle-event plumbing for the crash black
// box (internal/blackbox): every interesting transition — seal, failed or
// slow commit, split/merge stages, autopilot decision — is emitted as an
// Event. Events land in the fleet's bounded in-memory ring (read at dispatch
// as TRACE's events, so a sealed engine still answers) and, when a sink is
// attached (AttachBlackbox), in the persistent journal. The ring is the one
// in-process record of an incident: a slow or failed commit, a seal and a
// policy decision each live here and nowhere else.

// Event is one structured lifecycle event.
type Event struct {
	// Seq orders events within this process (assigned by the fleet's hub);
	// UnixNano is wall-clock time at emission.
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`
	// Type is one of the blackbox.Ev* record types.
	Type string `json:"type"`
	// Shard is the shard the event concerns; -1 for fleet-level events
	// (policy decisions, merges spanning shards).
	Shard int `json:"shard"`
	// Detail is the event's typed payload, JSON-encoded: the seal error,
	// the failed CommitRecord, the PolicyDecision, the split report.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// eventRingDepth bounds the in-memory recent-events ring. Lifecycle events
// are rare; 256 comfortably spans an incident.
const eventRingDepth = 256

// eventHub is the fleet's one event ring plus an optional forwarding sink.
// The ShardedEngine owns it and hands it to every engine it builds, so
// engine events (stamped with the engine's fixed shard index) and the
// router's split/merge/policy events land in the same ring, and the
// black-box journal hangs off its sink.
type eventHub struct {
	mu   sync.Mutex
	ring ring[Event]
	seq  uint64
	sink func(Event)
}

func newEventHub() *eventHub { return &eventHub{ring: newRing[Event](eventRingDepth)} }

// emit builds an event (marshaling detail, which must not fail for the
// types we pass — a marshal error drops the detail, never the event), stores
// it in the ring with the next seq and forwards it to the sink.
func (h *eventHub) emit(typ string, shard int, detail any) {
	var blob json.RawMessage
	if detail != nil {
		if b, err := json.Marshal(detail); err == nil {
			blob = b
		}
	}
	ev := Event{
		UnixNano: time.Now().UnixNano(),
		Type:     typ,
		Shard:    shard,
		Detail:   blob,
	}
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	h.ring.push(ev)
	sink := h.sink
	h.mu.Unlock()
	if sink != nil {
		sink(ev)
	}
}

// setSink installs (or clears, with nil) the forwarding sink. Events emitted
// before the sink was installed stay in the ring only.
func (h *eventHub) setSink(fn func(Event)) {
	h.mu.Lock()
	h.sink = fn
	h.mu.Unlock()
}

// snapshot returns the ring's events, oldest first.
func (h *eventHub) snapshot() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ring.ordered()
}

// errDetail is the generic {"error": ...} payload for failure events.
type errDetail struct {
	Error string `json:"error"`
}

// splitDetail / mergeDetail wrap the reshard reports for event payloads.
// Report is marshaled at emit time, so a start event carries the plan so
// far and a done event the final tally; Error is the abort cause when the
// operation failed partway.
type splitDetail struct {
	Report *SplitReport `json:"report"`
	Error  string       `json:"error,omitempty"`
}

type mergeDetail struct {
	Report *MergeReport `json:"report"`
	Error  string       `json:"error,omitempty"`
}
