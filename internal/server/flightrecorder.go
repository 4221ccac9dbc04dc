package server

import (
	"sync"
	"time"
)

// This file is the commit flight recorder: a fixed-size ring of structured
// per-commit records the writer loop appends to on every group commit. Where
// the metrics registry answers "what is the p99", the recorder answers "what
// did commit #4711 actually do" — batch size, per-stage nanoseconds, retries,
// and the error if the medium refused the epoch. A commit slower than a
// threshold, and every failed commit, is an outlier: the engine emits it as
// a commit_slow or commit_failed event into the fleet's event ring
// (events.go), so it survives after the recent ring has wrapped past it and
// is stored once.
//
// The recorder is deliberately cheap: one mutex-guarded ring append per group
// commit (not per operation — the engine already amortizes N writes into one
// commit, and the recorder rides that amortization). Snapshots copy the ring
// under the same mutex, so a TRACE never blocks a commit for more than one
// slice copy.

// Flight-recorder sizes: every engine's recent ring keeps the last
// DefaultTraceDepth commits; a commit counts as an outlier past
// DefaultSlowCommit (the Config.SlowCommit default) or on any error.
const (
	DefaultTraceDepth = 256
	DefaultSlowCommit = 10 * time.Millisecond
)

// SealReason says which seal condition closed a batch.
type SealReason string

// Seal reasons: the four conditions that close a batch. A batch never waits
// for company, so an operator reads SealIdle as "everything queued went in"
// and SealFull as "more was queued than MaxBatch takes".
const (
	SealIdle    SealReason = "idle"    // the request queue was empty
	SealFull    SealReason = "full"    // MaxBatch mutations collected
	SealPersist SealReason = "persist" // an explicit PERSIST forced the commit
	SealDrain   SealReason = "drain"   // the engine is closing
)

// CommitRecord describes one group commit end to end. All *NS fields but
// SimNS are wall-clock nanoseconds.
type CommitRecord struct {
	// Seq numbers commits per engine, from 1; gaps in a trace mean the
	// recent ring wrapped. Shard is the committing engine's index in its
	// fleet, fixed when the engine is built.
	Seq   uint64 `json:"seq"`
	Shard int    `json:"shard"`
	// Epoch is the pool epoch the commit made durable (0 if it failed).
	Epoch uint64 `json:"epoch"`
	// Batch is how many applied mutations (plus explicit persists) shared
	// this commit; 0 is the shutdown seal of an open epoch.
	Batch int `json:"batch"`
	// SimNS is the device time the paper's model charges for this commit:
	// the pool's PersistStats.SimulatedLatency, the simulated PAX commit of
	// exactly this epoch's dirty lines (summed over attempts when retried,
	// and set on a failed commit too). It is virtual time, recorded and not
	// waited for; PersistNS is the wall clock the commit really took.
	SimNS int64 `json:"sim_ns"`
	// Retries is how many extra persist attempts the commit needed.
	Retries int `json:"retries"`
	// Start is the wall-clock time the batch opened (first request applied),
	// Unix nanoseconds.
	Start int64 `json:"start_unix_nano"`
	// SealReason is the seal condition that closed the batch.
	SealReason SealReason `json:"seal_reason,omitempty"`
	// SealNS is batch open → commit start (the group-commit window: applying
	// what was queued; a batch never waits for more). PersistNS is
	// the persist call including retries and backoff. AckNS is the batch's
	// read-index publication and the ack fan-out to its waiters. TotalNS
	// covers all three.
	SealNS    int64 `json:"seal_ns"`
	PersistNS int64 `json:"persist_ns"`
	AckNS     int64 `json:"ack_ns"`
	TotalNS   int64 `json:"total_ns"`
	// DeltaBytes is how many bytes the commit's media sync persisted (its
	// delta record);
	// PoolBytes is the pool's media size. Their ratio is this commit's write
	// amplification.
	DeltaBytes int64 `json:"delta_bytes"`
	PoolBytes  int64 `json:"pool_bytes"`
	// Err is the durability error for a failed commit ("" on success). A
	// failed commit seals the engine, so it is always the last record.
	Err string `json:"err,omitempty"`
}

// TraceSnapshot is what TRACE returns: the recent commits and the fleet's
// recent lifecycle events, each oldest-first.
type TraceSnapshot struct {
	// Shards is how many engines contributed (1 for an unsharded trace).
	Shards int `json:"shards"`
	// SlowThresholdNS is the commit_slow event threshold in force (0 = no
	// commit_slow events; failed commits are always emitted).
	SlowThresholdNS int64          `json:"slow_threshold_ns"`
	Recent          []CommitRecord `json:"recent"`
	// Events is the fleet's event ring (nil in one engine's own trace):
	// slow and failed commits, seals, splits, merges and policy decisions.
	Events []Event `json:"events"`
}

// flightRecorder is the per-engine recorder. record is called by the writer
// loop only; snapshot by any goroutine.
type flightRecorder struct {
	mu        sync.Mutex
	seq       uint64
	threshold time.Duration // ≤ 0: no commit is slow
	recent    ring[CommitRecord]
}

// ring is a fixed-capacity overwrite-oldest buffer: the flight recorder's
// record ring and the fleet's event ring (events.go).
type ring[T any] struct {
	buf  []T
	next int  // slot the next element lands in
	full bool // buf has wrapped at least once
}

func newRing[T any](depth int) ring[T] { return ring[T]{buf: make([]T, depth)} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// ordered returns the ring's elements oldest-first in a fresh, non-nil
// slice (an empty ring encodes as [] in JSON).
func (r *ring[T]) ordered() []T {
	if !r.full {
		return append(make([]T, 0, r.next), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

func newFlightRecorder(depth int, threshold time.Duration) *flightRecorder {
	return &flightRecorder{
		threshold: threshold,
		recent:    newRing[CommitRecord](depth),
	}
}

// record assigns the next sequence number and appends; outlier reports a
// failed or over-threshold commit, which the caller emits as an event. It
// returns the stamped record so the event carries the same seq TRACE shows —
// a postmortem's failing-commit record cross-references the flight recorder.
func (f *flightRecorder) record(rec CommitRecord) (stamped CommitRecord, outlier bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	rec.Seq = f.seq
	f.recent.push(rec)
	return rec, rec.Err != "" || (f.threshold > 0 && rec.TotalNS >= int64(f.threshold))
}

// snapshot copies the recent ring.
func (f *flightRecorder) snapshot() TraceSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return TraceSnapshot{
		Shards:          1,
		SlowThresholdNS: int64(f.threshold),
		Recent:          f.recent.ordered(),
	}
}
