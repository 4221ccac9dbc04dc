package server

import (
	"sync"
	"time"
)

// This file is the commit flight recorder: a fixed-size ring of structured
// per-commit records the writer loop appends to on every group commit. Where
// the metrics registry answers "what is the p99", the recorder answers "what
// did commit #4711 actually do" — batch size, per-stage nanoseconds, retries,
// and the error if the medium refused the epoch. Commits slower than a
// threshold (and every failed commit) are additionally copied to a pinned
// ring, so an outlier from hours ago survives long after the recent ring has
// wrapped past it.
//
// The recorder is deliberately cheap: one mutex-guarded ring append per group
// commit (not per operation — the engine already amortizes N writes into one
// commit, and the recorder rides that amortization). Snapshots copy the rings
// under the same mutex, so a TRACE never blocks a commit for more than two
// slice copies.

// Flight-recorder sizes: every engine's recent ring keeps the last
// DefaultTraceDepth commits and its pinned ring the last DefaultSlowDepth
// outliers; a commit counts as an outlier past DefaultSlowCommit (the
// Config.SlowCommit default) or on any error.
const (
	DefaultTraceDepth = 256
	DefaultSlowDepth  = 64
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
	// recent ring wrapped. Shard is which shard committed (0 on an unsharded
	// engine; the router stamps it on merged traces).
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

// TraceSnapshot is what TRACE returns: the recent ring and the pinned
// outliers, each oldest-first.
type TraceSnapshot struct {
	// Shards is how many engines contributed (1 for an unsharded trace).
	Shards int `json:"shards"`
	// SlowThresholdNS is the pin threshold in force (0 = pinning disabled).
	SlowThresholdNS int64          `json:"slow_threshold_ns"`
	Recent          []CommitRecord `json:"recent"`
	Slow            []CommitRecord `json:"slow"`
	// Autopilot is the reshard policy's last decision, when a policy loop is
	// running on the sharded router (autopilot.go); nil otherwise.
	Autopilot *PolicyDecision `json:"autopilot,omitempty"`
}

// flightRecorder is the per-engine recorder. record is called by the writer
// loop only; snapshot by any goroutine.
type flightRecorder struct {
	mu        sync.Mutex
	seq       uint64
	threshold time.Duration // ≤ 0: pinning disabled
	recent    ring
	slow      ring
}

// ring is a fixed-capacity overwrite-oldest record buffer.
type ring struct {
	buf  []CommitRecord
	next int  // slot the next record lands in
	full bool // buf has wrapped at least once
}

func (r *ring) push(rec CommitRecord) {
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// ordered returns the ring's records oldest-first in a fresh slice.
func (r *ring) ordered() []CommitRecord {
	if !r.full {
		return append([]CommitRecord(nil), r.buf[:r.next]...)
	}
	out := make([]CommitRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

func newFlightRecorder(depth, slowDepth int, threshold time.Duration) *flightRecorder {
	return &flightRecorder{
		threshold: threshold,
		recent:    ring{buf: make([]CommitRecord, depth)},
		slow:      ring{buf: make([]CommitRecord, slowDepth)},
	}
}

// record assigns the next sequence number and appends; failed or
// over-threshold commits are copied to the pinned ring too. It returns the
// stamped record so event emitters journal the same seq TRACE shows —
// a postmortem's failing-commit record cross-references the flight recorder.
func (f *flightRecorder) record(rec CommitRecord) CommitRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	rec.Seq = f.seq
	f.recent.push(rec)
	if rec.Err != "" || (f.threshold > 0 && rec.TotalNS >= int64(f.threshold)) {
		f.slow.push(rec)
	}
	return rec
}

// snapshot copies both rings.
func (f *flightRecorder) snapshot() TraceSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return TraceSnapshot{
		Shards:          1,
		SlowThresholdNS: int64(f.threshold),
		Recent:          f.recent.ordered(),
		Slow:            f.slow.ordered(),
	}
}
