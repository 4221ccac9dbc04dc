package server

import (
	"time"

	"pax/internal/blackbox"
	"pax/internal/epochlog"
)

// This file hangs the persistent crash black box (internal/blackbox) off the
// fleet's event hub: lifecycle events are journaled as they happen, and a
// sampler journals windowed metrics snapshots. paxserve (-blackbox) and the
// loadgen harness both attach through here.

// openDetail is EvOpen's payload: what recovery found when a shard's pool
// opened. Replay is the epoch log's replay report, including any torn-tail
// truncation (all zero for an in-memory pool).
type openDetail struct {
	Epoch  uint64         `json:"epoch"`
	Replay *epochlog.Info `json:"replay,omitempty"`
}

// AttachBlackbox wires a fleet onto a black-box journal: every lifecycle
// event is appended as it happens (journal failures never propagate into
// serving — a dead journal reads as a gap in the postmortem timeline), one
// EvOpen per shard records what recovery found, and a sampler appends a
// windowed metrics snapshot every interval. The returned stop func detaches
// the sink and stops the sampler, flushing a final tail-window snapshot; it
// does not close the journal — the caller owns that.
func AttachBlackbox(s *ShardedEngine, j *blackbox.Journal, interval time.Duration) (stop func()) {
	s.SetEventSink(func(ev Event) {
		_ = j.AppendJSON(ev.Type, ev)
	})
	for k, pool := range s.ShardPools() {
		info := pool.Internal().PM().ReplayInfo()
		s.events.emit(blackbox.EvOpen, k, openDetail{Epoch: pool.Epoch(), Replay: &info})
	}
	sampler := blackbox.StartSampler(j, s.Metrics, interval)
	return func() {
		sampler.Stop()
		s.SetEventSink(nil)
	}
}

// EmitEvent publishes a fleet-level lifecycle event with a JSON-marshalable
// detail. The daemon uses it for EvShutdown — the marker whose presence
// tells a postmortem the process ended on purpose.
func (s *ShardedEngine) EmitEvent(typ string, detail any) {
	s.events.emit(typ, -1, detail)
}
