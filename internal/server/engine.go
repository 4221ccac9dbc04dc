// Package server is the paxserve subsystem: a single-writer commit engine
// that multiplexes many concurrent client goroutines onto one PAX pool, plus
// a TCP front end speaking the wire protocol.
//
// The paper's programming model is single-threaded: no goroutine may mutate
// the pool while Persist runs (§3.5). Instead of pushing that burden onto
// every caller, the engine funnels all operations through one writer
// goroutine and turns Persist into a *group commit*: mutations are applied
// in arrival order, and one snapshot per batch makes the whole batch durable
// before its callers are acked. A batch is whatever arrived while the
// previous commit ran: it seals the moment the queue is empty, when it
// reaches MaxBatch, on a PERSIST, or when the engine closes — nothing else,
// and no timer. N concurrent writers therefore share one snapshot's cost —
// the amortization that makes PAX epochs fast, formed the way Snapshot
// amortizes msync: over what accumulated during the previous one — while an
// idle engine never sleeps in front of an idle device, however slow the
// medium. What a commit writes is the pool's business: OpenSharded serves
// every pool through the delta epoch store, so a snapshot costs the bytes the
// batch dirtied.
//
// One goroutine — the writer — applies, seals, persists and acks, so §3.5
// holds in program order: no snapshot point can overlap a mutation because
// the same goroutine does both:
//
//	seal    — runBatch applies queued requests into a batch until a seal
//	          condition fires.
//	persist — commit runs the pool's Persist: the simulated PAX commit of the
//	          batch's dirty lines, then the media sync (on a served pool, the
//	          delta record's append and fsync).
//	ack     — once that persist has returned, commit publishes the batch's
//	          writes to the read index and acks its waiters with its epoch.
//	          An ack follows its own persist and nothing else: the device
//	          time the paper models is recorded per commit
//	          (CommitRecord.SimNS), not slept.
//
// A failed persist of epoch N fails N's waiters and seals the engine, which
// fails everything still queued — an unacked epoch is legal to abandon (§3.4
// recovery rolls it back), but it must never ack.
//
// Reads do not take that path: §3.5 constrains mutation, not observation, so
// the writer maintains a volatile read index (readindex.go) of what has
// committed, and Get serves from it directly — a GET never enters the
// request queue and never waits behind a commit in flight, and it never
// serves a write that a crash or a failed commit could take back. Metrics
// do not take it either: every registry gauge reads an atomic, so STATS
// samples the registry from any goroutine, at any time. The queue carries
// only what the writer applies — PUT, DELETE, PERSIST and the migration's
// drain barrier; every other wire op is answered where it is dispatched.
package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pax"
	"pax/internal/blackbox"
	"pax/internal/stats"
)

// Engine errors.
var (
	// ErrClosed is returned for requests after Close (or a crash).
	ErrClosed = errors.New("server: engine closed")
	// ErrBusy is returned when the request queue stays full past the
	// enqueue timeout — the backpressure signal. The wire layer maps it to
	// StatusBusy so clients can retry it, distinct from fatal errors.
	ErrBusy = errors.New("server: request queue full")
	// ErrSealed is wrapped by every error an engine returns after a
	// durability failure sealed it fail-stop: a group commit could not
	// reach media even after retries, so the engine stops accepting work
	// rather than acking writes it cannot make durable. Previously acked
	// writes are unaffected (they synced with their own commits). Detect
	// with errors.Is(err, ErrSealed).
	ErrSealed = errors.New("server: engine sealed by durability failure")
)

// Config tunes the engine.
type Config struct {
	// MaxBatch is the most acked mutations per group commit (default 128).
	// A batch never waits to fill: it seals as soon as the request queue is
	// empty, so MaxBatch only caps what queued during the previous commit.
	MaxBatch int
	// QueueDepth bounds the request queue; a full queue pushes back on
	// clients (default 1024).
	QueueDepth int
	// EnqueueTimeout is how long a request waits for queue space before
	// failing with ErrBusy (default 5s).
	EnqueueTimeout time.Duration
	// CommitRetries is how many extra persist attempts a group commit whose
	// media sync failed gets before the engine gives up and seals
	// (default 3; negative disables retries). A fault that clears within
	// the retry budget is transient — the batch still acks, no client sees
	// it. One that does not is treated as persistent media failure.
	CommitRetries int
	// CommitRetryDelay is the wait before the first commit retry, doubling
	// per attempt (default 2ms).
	CommitRetryDelay time.Duration
	// SlowCommit is the commit_slow threshold: a group commit slower than
	// this end to end is emitted as a commit_slow event into the fleet's
	// event ring, so it survives after the flight recorder's recent ring
	// wraps (default 10ms; negative disables commit_slow events — a failed
	// commit is always emitted, as commit_failed).
	SlowCommit time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 5 * time.Second
	}
	switch {
	case c.CommitRetries == 0:
		c.CommitRetries = 3
	case c.CommitRetries < 0:
		c.CommitRetries = 0
	}
	if c.CommitRetryDelay <= 0 {
		c.CommitRetryDelay = 2 * time.Millisecond
	}
	switch {
	case c.SlowCommit == 0:
		c.SlowCommit = DefaultSlowCommit
	case c.SlowCommit < 0:
		c.SlowCommit = 0
	}
	return c
}

// AckPolicy names when a mutation is acknowledged. It has one value: every
// ack follows the mutation's group commit to media. It and
// ShardedEngine.PutPolicy remain only for the served-path benchmark's
// caller and go with it; new code calls Put. (They carry no Deprecated
// marker because the linter would then fail that caller.)
type AckPolicy uint8

// AckDurable acks a mutation once its group commit reached media: the one
// ack rule.
const AckDurable AckPolicy = 0

// opKind names what a queued request asks of the writer.
type opKind byte

const (
	opPut opKind = iota
	opDelete
	opPersist
	// opBarrier is a queue flush: it joins its batch's waiters without
	// counting as a mutation, so its return means every previously enqueued
	// request has committed and is published in the read index — without
	// forcing a commit of its own the way opPersist does. Migration uses it
	// as the drain fence before copying a slot.
	opBarrier
)

// result is one request's outcome. value carries a fleet call's JSON report
// when the connection writer waits on one (SPLIT, MERGE).
type result struct {
	value []byte
	found bool
	epoch uint64
	err   error
}

type request struct {
	op         opKind
	key, value []byte
	found      bool        // Delete: key was present (carried to the ack)
	done       chan result // buffered(1); exactly one result per request
}

// requestPool recycles request structs together with their done channels:
// a request's lifecycle is strictly get → begin → one result received →
// release, so the buffered(1) channel is always empty again at release time.
var requestPool = sync.Pool{
	New: func() any { return &request{done: make(chan result, 1)} },
}

// newRequest takes a pooled request. The caller must either fail to begin it
// (and release it) or receive exactly one result from done (and release it).
func newRequest(op opKind, key, value []byte) *request {
	r := requestPool.Get().(*request)
	r.op, r.key, r.value, r.found = op, key, value, false
	return r
}

// release returns a request to the pool. Only call once the engine cannot
// touch it anymore: after its result was received, or after begin failed.
func (r *request) release() {
	r.key, r.value = nil, nil
	requestPool.Put(r)
}

// sealedBatch is one group commit between its seal and its ack: the batch's
// waiters in apply order — every mutation, PERSIST and barrier it took, so
// its puts and deletes are also the overlay that commit publishes to the
// read index — how many mutations it carries, and how the batch was sealed.
// The writer persists it before it applies the next batch's first mutation,
// so a batch's mutations land in exactly its own epoch and the crash
// contract stays exact: an unacked write is never in a durable epoch, so it
// always rolls back, and it was never served.
type sealedBatch struct {
	waiters   []*request
	mutations int
	start     time.Time
	sealNS    int64
	reason    SealReason
}

// EngineStats are the engine's own counters (the pool's live underneath).
// GETs and group commits are counted once, by their histograms:
// GetHitNS.Count() and GetMissNS.Count() are the read-index hits and misses,
// and GroupCommits reads DeltaBytes.Count().
type EngineStats struct {
	AckedWrites stats.Counter // mutations acked (at commit)
	BatchMax    stats.Counter // largest batch committed (gauge-as-counter)
	Rejects     stats.Counter // requests dropped by backpressure

	// ReadIndexRebuilt is the entry count rebuilt from the recovered pool at
	// startup.
	ReadIndexRebuilt stats.Counter

	// Durability-failure counters: persist attempts retried after a media
	// fault, and group commits that failed permanently (each one seals the
	// engine, so CommitFailures is effectively 0 or 1).
	CommitRetries  stats.Counter
	CommitFailures stats.Counter

	// Commit-pipeline latency histograms (wall-clock nanoseconds), one per
	// stage of a group commit: how long an enqueue waited for queue space
	// (0 on the uncontended fast path), how long the batch stayed open
	// applying what was queued, the persist itself (retries and backoff
	// included), the read-index publication and ack fan-out, and the whole
	// batch end to end.
	EnqueueWaitNS stats.LatencyHistogram
	BatchSealNS   stats.LatencyHistogram
	PersistNS     stats.LatencyHistogram
	AckNS         stats.LatencyHistogram
	CommitNS      stats.LatencyHistogram

	// DeltaBytes is bytes persisted per group commit (a size histogram on
	// the latency machinery): the delta record a served pool appends. Its
	// mean over the pool size is the engine's write amplification, exported
	// as paxserve_epoch_amplification.
	DeltaBytes stats.LatencyHistogram

	// GET service time, split by read-index hit/miss.
	GetHitNS  stats.LatencyHistogram
	GetMissNS stats.LatencyHistogram
}

// GroupCommits is the number of successful group commits. DeltaBytes is
// observed once per commit before its acks, while the stage histograms
// (CommitNS and the rest) are observed just after them: an acked write's
// commit is already counted here.
func (s *EngineStats) GroupCommits() uint64 { return s.DeltaBytes.Count() }

// Engine is the concurrent serving engine over one pool. All methods are
// safe for concurrent use; internally a single writer goroutine owns the
// pool, so the §3.5 single-mutator rule holds by construction. Reads are
// served off the writer loop from the volatile read index (see readindex.go
// for the consistency contract).
type Engine struct {
	pool *pax.Pool
	kv   *pax.Map
	cfg  Config
	idx  *readIndex

	reqs chan *request
	stop chan struct{} // closed by Crash/seal: abandon uncommitted work

	// mu guards closed and sealErr. It is never held across a blocking
	// enqueue — begin registers with inflight under the read lock and
	// releases before waiting for queue space — so Close/Crash acquire the
	// write lock immediately even when the queue is full.
	mu       sync.RWMutex
	closed   bool
	sealErr  error          // non-nil once a durability failure sealed the engine
	stopOnce sync.Once      // close(stop) can race between Crash and seal
	inflight sync.WaitGroup // begins past the closed check, not yet enqueued or failed

	wg    sync.WaitGroup
	stats EngineStats
	reg   *stats.Registry
	rec   *flightRecorder

	// shard is the engine's index in its fleet's shard slice, fixed for
	// life: Merge retires only the top index, so no engine ever moves. Its
	// lifecycle events and commit records carry it.
	shard int
	// events is the fleet's event ring (events.go), shared by every engine
	// of the fleet and the router.
	events *eventHub
}

// newEngine builds shard number shard of a fleet: an engine serving the map
// rooted at slot of pool, emitting its lifecycle events into the fleet's
// events. It starts the writer loop. The engine becomes the pool's only
// legal mutator: direct pool use while the engine runs violates the
// single-writer model. The read index is rebuilt here from the pool's
// recovered contents — recovery has already rolled back any uncommitted
// epoch, so nothing rolled back can be indexed.
func newEngine(pool *pax.Pool, slot int, cfg Config, shard int, events *eventHub) (*Engine, error) {
	kv, err := pax.NewMap(pool, slot)
	if err != nil {
		return nil, fmt.Errorf("server: binding map root: %w", err)
	}
	e := &Engine{
		pool:   pool,
		kv:     kv,
		cfg:    cfg.withDefaults(),
		idx:    newReadIndex(),
		stop:   make(chan struct{}),
		shard:  shard,
		events: events,
	}
	e.rec = newFlightRecorder(DefaultTraceDepth, e.cfg.SlowCommit)
	kv.ForEach(func(key, value []byte) bool {
		// value is a fresh copy the index keeps; key is ForEach's reused
		// buffer, so the string conversion is the key's one copy.
		s := e.idx.stripe(key)
		s.m[string(key)] = value
		return true
	})
	e.stats.ReadIndexRebuilt.Add(uint64(e.idx.len()))
	e.reqs = make(chan *request, e.cfg.QueueDepth)
	e.reg = pool.StatsRegistry()
	e.reg.RegisterCounter("paxserve_acked_writes", &e.stats.AckedWrites)
	gauge := func(name string, fn func() uint64) {
		e.reg.Register(name, func() float64 { return float64(fn()) })
	}
	gauge("paxserve_gets", func() uint64 { return e.stats.GetHitNS.Count() + e.stats.GetMissNS.Count() })
	gauge("paxserve_group_commits", e.stats.GroupCommits)
	e.reg.RegisterCounter("paxserve_batch_max", &e.stats.BatchMax)
	e.reg.RegisterCounter("paxserve_queue_rejects", &e.stats.Rejects)
	gauge("paxserve_read_index_hits", e.stats.GetHitNS.Count)
	gauge("paxserve_read_index_misses", e.stats.GetMissNS.Count)
	e.reg.RegisterCounter("paxserve_read_index_rebuilt", &e.stats.ReadIndexRebuilt)
	e.reg.RegisterCounter("paxserve_commit_retries", &e.stats.CommitRetries)
	e.reg.RegisterCounter("paxserve_commit_failures", &e.stats.CommitFailures)
	e.reg.RegisterLatencyHistogram("paxserve_enqueue_wait_ns", &e.stats.EnqueueWaitNS)
	e.reg.RegisterLatencyHistogram("paxserve_batch_seal_ns", &e.stats.BatchSealNS)
	e.reg.RegisterLatencyHistogram("paxserve_commit_persist_ns", &e.stats.PersistNS)
	e.reg.RegisterLatencyHistogram("paxserve_commit_ack_ns", &e.stats.AckNS)
	e.reg.RegisterLatencyHistogram("paxserve_commit_ns", &e.stats.CommitNS)
	e.reg.RegisterLatencyHistogram("paxserve_get_hit_ns", &e.stats.GetHitNS)
	e.reg.RegisterLatencyHistogram("paxserve_get_miss_ns", &e.stats.GetMissNS)
	e.reg.RegisterLatencyHistogram("paxserve_epoch_delta_bytes", &e.stats.DeltaBytes)
	e.reg.Register("paxserve_epoch_amplification", func() float64 {
		// Mean bytes persisted per commit over the pool size: the fraction of
		// the pool a commit rewrites, ≪1 because served commits are deltas.
		n := e.stats.DeltaBytes.Count()
		if n == 0 {
			return 0
		}
		return float64(e.stats.DeltaBytes.Sum()) / float64(n) / float64(e.pool.MediaSize())
	})
	e.reg.Register("paxserve_sealed", func() float64 {
		if e.SealErr() != nil {
			return 1
		}
		return 0
	})
	e.wg.Add(1)
	go e.loop()
	return e, nil
}

// Stats exposes the engine counters.
func (e *Engine) Stats() *EngineStats { return &e.stats }

func (r *request) finish(res result) { r.done <- res }

// begin enqueues a request without waiting for its result. On nil the
// engine owns the request and will deliver exactly one result on req.done;
// the caller must read it. Callers that enqueue from a single goroutine get
// their requests applied in call order — that is what lets the TCP server
// pipeline a connection's writes without reordering them.
func (e *Engine) begin(req *request) error {
	e.mu.RLock()
	if e.closed {
		err := ErrClosed
		if e.sealErr != nil {
			err = e.sealErr
		}
		e.mu.RUnlock()
		return err
	}
	// Register as in flight while still under the lock: markClosed's write
	// lock then happens-after this Add, so Close waits for us before closing
	// the queue channel — without us holding any lock across the wait.
	e.inflight.Add(1)
	e.mu.RUnlock()
	defer e.inflight.Done()
	// Fast path: the queue usually has room, and a timer allocation per
	// request is measurable on the PUT hot loop. Only the contended path
	// pays for one.
	select {
	case e.reqs <- req:
		// Observing an exact 0 keeps the fast path timer-free while the
		// histogram's count still matches enqueues, so the p99 reflects how
		// often the queue actually pushed back.
		e.stats.EnqueueWaitNS.Observe(0)
		return nil
	default:
	}
	waitStart := time.Now()
	timer := time.NewTimer(e.cfg.EnqueueTimeout)
	defer timer.Stop()
	select {
	case e.reqs <- req:
		e.stats.EnqueueWaitNS.Since(waitStart)
		return nil
	case <-timer.C:
		e.stats.Rejects.Inc()
		return ErrBusy
	case <-e.stop:
		return e.failErr()
	}
}

// do runs one request to completion through the queue, recycling the
// request struct on every path.
func (e *Engine) do(op opKind, key, value []byte) result {
	req := newRequest(op, key, value)
	if err := e.begin(req); err != nil {
		req.release()
		return result{err: err}
	}
	res := <-req.done
	req.release()
	return res
}

// drainFence blocks until every request enqueued before it has committed
// and is published in the read index. Unlike Persist it forces no commit: it
// rides the batch of the requests ahead of it, or is answered at once when
// it opens a batch, since every earlier batch committed before that one
// opened. A migration's drain fence therefore never adds a commit of its own.
func (e *Engine) drainFence() error {
	return e.do(opBarrier, nil, nil).err
}

// Get returns the current value for key, served from the volatile read
// index: the last committed value — read-your-writes with respect to acked
// mutations, and never a write whose commit has not succeeded. Get never
// blocks behind the request queue or a commit in flight. The returned slice
// is the caller's to keep.
func (e *Engine) Get(key []byte) ([]byte, bool, error) {
	e.mu.RLock()
	closed, sealErr := e.closed, e.sealErr
	e.mu.RUnlock()
	if closed {
		// A sealed engine fails reads too: a sealed shard is fail-stop, down
		// for its whole keyspace until a restart recovers it. (Its index
		// holds only committed values; the refusal is the contract, not a
		// guard against serving lost writes.)
		if sealErr != nil {
			return nil, false, sealErr
		}
		return nil, false, ErrClosed
	}
	t0 := time.Now()
	v, ok := e.idx.get(key)
	if ok {
		e.stats.GetHitNS.Since(t0)
	} else {
		e.stats.GetMissNS.Since(t0)
	}
	return v, ok, nil
}

// Put stores key=value and blocks until the write's group commit makes it
// durable; the returned epoch is the snapshot containing it.
func (e *Engine) Put(key, value []byte) (uint64, error) {
	res := e.do(opPut, key, value)
	return res.epoch, res.err
}

// Delete removes key, blocking like Put; found reports prior presence.
func (e *Engine) Delete(key []byte) (bool, uint64, error) {
	res := e.do(opDelete, key, nil)
	return res.found, res.epoch, res.err
}

// Persist forces a group commit and returns the durable epoch.
func (e *Engine) Persist() (uint64, error) {
	res := e.do(opPersist, nil, nil)
	return res.epoch, res.err
}

// Snapshot samples the engine + pool metrics registry, which the fleet
// merges across shards. Every gauge reads an atomic or a mutex-guarded
// value, so it is safe at any time: beside the writer, on a sealed engine
// (health stays observable after a failure) and after Close.
func (e *Engine) Snapshot() stats.Summary { return e.reg.Snapshot() }

// SealErr reports the durability failure that sealed the engine fail-stop
// (nil while healthy). A sealed engine rejects every request with this
// error; previously acked writes are unaffected.
func (e *Engine) SealErr() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sealErr
}

// markClosed flips the closed flag once; reports whether this call did it.
func (e *Engine) markClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.closed = true
	return true
}

// failErr is the error requests receive when the loop is gone: the seal
// error after a durability failure, plain ErrClosed otherwise.
func (e *Engine) failErr() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.sealErr != nil {
		return e.sealErr
	}
	return ErrClosed
}

// seal marks the engine failed-stop after cause: every subsequent request —
// and everything still queued — fails with the seal error. Unlike Close it
// never attempts a final persist; the medium already refused one.
func (e *Engine) seal(cause error) {
	e.mu.Lock()
	first := e.sealErr == nil
	if first {
		e.sealErr = fmt.Errorf("%w: %v", ErrSealed, cause)
	}
	e.closed = true
	e.mu.Unlock()
	if first {
		e.events.emit(blackbox.EvSeal, e.shard, errDetail{Error: cause.Error()})
	}
	e.stopOnce.Do(func() { close(e.stop) })
}

// drainQueue fails every queued request with failErr. Callers must ensure
// nothing can still enter the queue (stop closed and inflight drained, or
// the channel closed).
func (e *Engine) drainQueue() {
	for {
		select {
		case req, ok := <-e.reqs:
			if !ok {
				return // Close raced us and closed the channel
			}
			req.finish(result{err: e.failErr()})
		default:
			return
		}
	}
}

// Close drains the queue, commits every remaining mutation plus the open
// epoch, and stops the writer loop. Requests arriving after Close fail with
// ErrClosed. Close does not close the pool — the owner does. If the engine
// sealed — before Close, or while Close's final commit ran — the sealing
// durability error is returned: callers must not treat a sealed shard's
// shutdown as clean.
func (e *Engine) Close() error {
	if e.markClosed() {
		// Every begin that passed the closed check is registered in
		// inflight; the writer loop is still consuming, so those blocked
		// sends drain promptly (bounded by EnqueueTimeout). Only then is it
		// safe to close the channel. If the loop died sealing mid-drain, its
		// own drain (which tolerates the channel closing) empties the queue.
		e.inflight.Wait()
		close(e.reqs)
	}
	e.wg.Wait()
	return e.SealErr()
}

// Crash is the test hook for failure injection: it stops the writer loop
// without committing, abandoning applied-but-unacked mutations exactly as a
// machine crash would. Queued and in-flight requests fail with ErrClosed (or
// the seal error, if a durability failure got there first).
func (e *Engine) Crash() {
	if !e.markClosed() {
		// Already closed (gracefully or by an earlier Crash): nothing to
		// abandon, just wait the loop out.
		e.wg.Wait()
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	// Senders blocked on a full queue saw e.stop (or completed their send);
	// once inflight drains, nothing can enter the queue anymore — new
	// begins see closed — so this drain is exhaustive.
	e.inflight.Wait()
	e.drainQueue()
}

// apply executes one request against the pool. Only the writer calls it, and
// only the writer persists, so no mutation overlaps a snapshot point (§3.5).
// Mutations, persists and barriers are returned as waiters, to be published
// and acked at the batch commit, with mutated reporting whether the batch
// needs that commit. Apply leaves the read index alone: a write becomes
// visible only once its commit succeeds.
func (e *Engine) apply(req *request) (waiter *request, mutated bool) {
	switch req.op {
	case opPut:
		if err := e.kv.Put(req.key, req.value); err != nil {
			req.finish(result{err: err})
			return nil, false
		}
		return req, true
	case opDelete:
		found, err := e.kv.Delete(req.key)
		if err != nil {
			req.finish(result{err: err})
			return nil, false
		}
		req.found = found
		return req, true
	case opPersist:
		return req, true
	case opBarrier:
		return req, false
	}
	req.finish(result{err: fmt.Errorf("server: unknown op %d", req.op)})
	return nil, false
}

// maxRetryDoublings caps the commit-retry backoff at 6 doublings (64× the
// base delay): past that, longer waits model nothing — and an unclamped
// `delay << attempt` would overflow time.Duration near attempt 40, turning
// a large CommitRetries budget into effectively-infinite (or negative)
// sleeps.
const maxRetryDoublings = 6

// retryDelay is the backoff before retry attempt (0-based): the base delay
// doubled per attempt, clamped at maxRetryDoublings.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if attempt > maxRetryDoublings {
		attempt = maxRetryDoublings
	}
	return base << attempt
}

// commit persists one sealed batch, publishes its puts and deletes to the
// read index in apply order, and only then acks its waiters, so a GET issued
// after an ack sees the write. A persist whose
// media sync fails is retried up to CommitRetries times with doubling
// (clamped) backoff — retrying is legal because a failed Sync never publishes
// a partial image, and nothing is acked until one attempt fully succeeds. A
// Crash ends the backoff — the batch never persisted, so its waiters fail and
// recovery rolls the epoch back — while a graceful Close lets the budget run,
// and a retry that succeeds still acks. On exhaustion the batch's waiters are
// failed (never acked), the failed CommitRecord is emitted as a
// commit_failed event and the engine seals fail-stop, which fails what is
// queued behind the batch. A batch that
// fails, seals or crashes publishes nothing. It reports false when the
// engine sealed or crashed.
func (e *Engine) commit(b *sealedBatch) bool {
	rec := CommitRecord{
		Shard:      e.shard,
		Batch:      b.mutations,
		Start:      b.start.UnixNano(),
		SealNS:     b.sealNS,
		SealReason: b.reason,
	}
	persistStart := time.Now()
	st, err := e.pool.Persist()
	rec.SimNS = int64(st.SimulatedLatency.Duration())
	for attempt := 0; err != nil && attempt < e.cfg.CommitRetries; attempt++ {
		e.stats.CommitRetries.Inc()
		rec.Retries++
		if !e.pause(retryDelay(e.cfg.CommitRetryDelay, attempt)) {
			failAll(b.waiters, e.failErr())
			return false
		}
		st, err = e.pool.Persist()
		rec.SimNS += int64(st.SimulatedLatency.Duration())
	}
	rec.PersistNS = int64(time.Since(persistStart))
	if err != nil {
		e.stats.CommitFailures.Inc()
		rec.TotalNS = b.sealNS + rec.PersistNS
		rec.Err = err.Error()
		rec, _ = e.rec.record(rec)
		e.events.emit(blackbox.EvCommitFailed, e.shard, rec)
		// Seal first: a caller that has seen its write fail must find the
		// engine sealed.
		e.seal(err)
		failAll(b.waiters, e.failErr())
		return false
	}
	rec.Epoch = st.Epoch
	rec.DeltaBytes = st.PersistedBytes
	rec.PoolBytes = int64(e.pool.MediaSize())
	e.stats.DeltaBytes.Observe(st.PersistedBytes)
	if b.mutations > 0 {
		e.stats.BatchMax.StoreMax(uint64(b.mutations))
	}
	ackStart := time.Now()
	for _, w := range b.waiters {
		switch w.op {
		case opPut:
			e.idx.put(w.key, w.value)
		case opDelete:
			e.idx.delete(w.key)
		}
	}
	for _, w := range b.waiters {
		if w.op == opPut || w.op == opDelete {
			e.stats.AckedWrites.Inc()
		}
		w.finish(result{found: w.found, epoch: st.Epoch})
	}
	rec.AckNS = int64(time.Since(ackStart))
	rec.TotalNS = rec.SealNS + rec.PersistNS + rec.AckNS
	e.stats.BatchSealNS.Observe(rec.SealNS)
	e.stats.PersistNS.Observe(rec.PersistNS)
	e.stats.AckNS.Observe(rec.AckNS)
	e.stats.CommitNS.Observe(rec.TotalNS)
	if rec, slow := e.rec.record(rec); slow {
		e.events.emit(blackbox.EvCommitSlow, e.shard, rec)
	}
	return true
}

// Trace returns the flight recorder's current contents. Safe on a sealed,
// crashed, or closed engine — the recorder outlives the writer loop.
func (e *Engine) Trace() TraceSnapshot { return e.rec.snapshot() }

func failAll(waiters []*request, err error) {
	for _, w := range waiters {
		w.finish(result{err: err})
	}
}

// loop is the writer: the one goroutine that admits requests, applies them,
// and seals, persists and acks their batches; runBatch lists the seal
// conditions.
func (e *Engine) loop() {
	defer e.wg.Done()
	defer func() {
		if e.SealErr() != nil {
			// Sealed — by a failed commit or a panicking apply. Seal closed
			// stop, so in-flight begins unwind; once they do, nothing can
			// enter the queue anymore — new begins see closed — so this drain
			// is exhaustive and no queued request is left waiting on a dead
			// writer.
			e.inflight.Wait()
			e.drainQueue()
		}
	}()
	for {
		switch req, why := e.wait(e.reqs, nil); why {
		case wakeStop:
			return
		case wakeClosed:
			// Graceful shutdown: every prior batch is already persisted, so
			// one empty batch commits the open epoch — through commit, so the
			// final persist gets the same retry budget and accounting as any
			// group commit. If even that persist fails the engine seals and
			// Close surfaces the error.
			e.commit(&sealedBatch{start: time.Now(), reason: SealDrain})
			return
		case wakeReq:
			if !e.runBatch(req) {
				return
			}
		}
	}
}

// runBatch opens a batch with first, applies whatever is already queued
// without blocking, and commits the batch once one of four conditions seals
// it: the queue is empty (idle), it holds MaxBatch mutations (full), a
// PERSIST forced it (persist), or the engine is closing (drain). It never
// waits for company: the requests that arrive while this commit runs form
// the next batch, so batches grow with the cost of a commit on their own. It
// reports false when the engine crashed or sealed mid-batch.
func (e *Engine) runBatch(first *request) bool {
	b := &sealedBatch{start: time.Now()}
	if first.op == opPersist {
		b.reason = SealPersist
	}
	if !e.applyInto(b, first) {
		return false
	}
	if b.mutations == 0 {
		// A barrier opened the batch: nothing ahead of it is left to
		// commit — every batch is committed before the next one opens — so
		// it is answered here.
		for _, w := range b.waiters {
			w.finish(result{})
		}
		return true
	}
	for b.reason == "" {
		if b.mutations >= e.cfg.MaxBatch {
			b.reason = SealFull
			break
		}
		select {
		case <-e.stop:
			failAll(b.waiters, e.failErr())
			return false
		case req, ok := <-e.reqs:
			if !ok {
				// Closing: seal what we have; loop sees the closed queue
				// next and commits the open epoch.
				b.reason = SealDrain
				break
			}
			if req.op == opPersist {
				b.reason = SealPersist
			}
			if !e.applyInto(b, req) {
				return false
			}
		default:
			b.reason = SealIdle
		}
	}
	b.sealNS = int64(time.Since(b.start))
	return e.commit(b)
}

// applyInto applies one request as part of batch b, collecting its waiter
// and mutation count. A panic out of the pool (an undo log too small for the
// epoch's working set, say) must not take the process — and every other
// shard — down with it: the request and the open batch's waiters fail, and
// this engine seals fail-stop. The half-applied epoch is never persisted, so
// recovery rolls it back; every earlier batch was persisted before this one
// opened, so nothing acked is lost. It reports false after such a seal.
func (e *Engine) applyInto(b *sealedBatch, req *request) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			// Every panic site in apply precedes the request's finish, so
			// this is its one result.
			e.seal(fmt.Errorf("apply panicked: %v", p))
			req.finish(result{err: e.failErr()})
			failAll(b.waiters, e.failErr())
			ok = false
		}
	}()
	w, mutated := e.apply(req)
	if w != nil {
		b.waiters = append(b.waiters, w)
	}
	if mutated {
		b.mutations++
	}
	return true
}

// wake says why wait returned.
type wake uint8

const (
	wakeStop   wake = iota // Crash or seal closed stop
	wakeReq                // a request arrived
	wakeClosed             // the request queue was closed: graceful Close
	wakeTimer              // the caller's timer fired
)

// wait is the writer's one blocking point. It sleeps until the engine stops,
// a request arrives on reqs (nil: not listening) or the caller's timer fires
// (nil: none).
func (e *Engine) wait(reqs <-chan *request, timer <-chan time.Time) (*request, wake) {
	select {
	case <-e.stop:
		return nil, wakeStop
	case req, ok := <-reqs:
		if !ok {
			return nil, wakeClosed
		}
		return req, wakeReq
	case <-timer:
		return nil, wakeTimer
	}
}

// pause waits out d without taking requests — the commit-retry backoff — and
// reports false if the engine stopped first.
func (e *Engine) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	_, why := e.wait(nil, t.C)
	return why == wakeTimer
}
