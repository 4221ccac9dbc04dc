package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pax"
	"pax/internal/epochlog"
	"pax/internal/seglog"
	"pax/internal/stats"
)

// This file is the sharded serving layer: a router that partitions the
// keyspace across N independent (pool, engine) shards so N group commits
// proceed in parallel. Each shard is a separate pool file with its own
// writer goroutine, undo log, and simulated device — the paper's §6
// multi-device scaling, where every accelerator owns a vPM region and
// epochs commit independently. The §3.5 single-mutator rule holds per pool
// by construction: a key deterministically owns one shard, so per-key
// operations stay totally ordered (and read-your-writes) even though
// different keys commit concurrently. Durability ordering is per key, not
// cross-shard: two acked writes to different shards may land in either
// order after a crash, but every individually acked write is durable.
//
// Routing is slot-based (slotmap.go): a key hashes to one of NumSlots fixed
// slots and a published SlotMap assigns slots to shards, so the shard count
// can change live — Split/Rebalance (migrate.go) move individual slots while
// unaffected slots never stall. Each slot has a gate (RWMutex): requests
// take the read side around route-lookup + dispatch, migration takes the
// write side to fence a slot while its keys move.

// shard pairs one pool with the engine that is its only legal mutator.
type shard struct {
	pool *pax.Pool
	eng  *Engine
}

// ShardedEngine routes requests across N single-writer engines, N >= 1. All
// methods are safe for concurrent use. It is what the TCP server serves.
type ShardedEngine struct {
	// shards is the live shard slice, replaced wholesale (copy-on-write)
	// when Split grows the fleet. Loaded once per operation; the slice and
	// its elements are immutable once published.
	shards atomic.Pointer[[]shard]
	// route is the live slot→shard assignment, replaced wholesale per
	// cutover. Publication order matters: a new shards slice is stored
	// before any map referencing the new shard, so a reader that observes
	// the map always observes the shard too.
	route atomic.Pointer[SlotMap]
	// gates fence slots during migration: per-key requests hold the read
	// side across route-lookup + dispatch, so once migration holds the
	// write side no request can still be routing to the slot's old owner.
	gates [NumSlots]sync.RWMutex
	// slotOps counts per-key operations per slot — the load signal Split
	// uses to pick the hottest shard and divide its slots.
	slotOps [NumSlots]atomic.Uint64

	// Logf, when set (before serving starts), receives router-level events:
	// deferred cleanup failures, autopilot decisions. Default: dropped.
	Logf func(format string, args ...any)

	// migrateMu serializes Split/Rebalance/Merge (and the shard-slice growth
	// or shrink they do); routing never takes it.
	migrateMu sync.Mutex
	reshard   reshardCounters

	// autopilot is the policy loop when StartAutopilot is running (autopilot.go).
	// When set, the per-slot load signal is its tracker's windowed rate, not
	// the cumulative counters.
	autopilot atomic.Pointer[Autopilot]

	// Creation-time parameters, kept so Split can open new shard pools with
	// the same geometry and persist the map next to the same path.
	path    string
	opts    pax.Options
	accSlot int
	cfg     Config

	closeOnce sync.Once
	closeErr  error

	// events is the fleet-level lifecycle-event hub: per-engine events are
	// forwarded here (stamped with their shard index at forward time, so
	// relabeling across merges stays correct), and the router emits its own
	// split/merge/policy events directly. AttachBlackbox hangs the journal
	// off this hub's sink.
	events eventHub

	mu          sync.Mutex
	final       stats.Summary // metrics frozen at teardown; guarded by mu
	sealedEpoch uint64        // DurableEpoch frozen at teardown; guarded by mu
}

// reshardCounters are the router's own metrics (the engines know nothing of
// slots): published alongside the merged per-shard metrics.
type reshardCounters struct {
	splits          atomic.Uint64 // completed Split calls
	merges          atomic.Uint64 // completed Merge calls
	movedSlots      atomic.Uint64 // slot cutovers published
	movedKeys       atomic.Uint64 // keys copied to a new owner
	purgedKeys      atomic.Uint64 // misrouted keys removed at open (crash leftovers)
	cleanupFailures atomic.Uint64 // post-cutover source cleanups deferred to next open
}

// logf reports a router-level event to Logf when one is configured.
func (s *ShardedEngine) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// slotLoad is the per-slot load signal Split, Merge, and the shard pickers
// partition by: the autopilot tracker's windowed rate (fixed-point
// milli-ops/sec) when the policy loop is running — a slot that was hot an
// hour ago must not still look hot — else the cumulative since-open counter.
func (s *ShardedEngine) slotLoad(slot int) uint64 {
	if a := s.autopilot.Load(); a != nil {
		return uint64(a.tracker.rate(slot) * 1000)
	}
	return s.slotOps[slot].Load()
}

// ShardPath returns shard k's pool file path, <path>.shard-k — every fleet
// uses this layout, from one shard up.
func ShardPath(path string, k int) string {
	return fmt.Sprintf("%s.shard-%d", path, k)
}

// ErrBarePool is wrapped by the refusal to open a bare <path> pool file (the
// layout one-shard fleets used to keep) as a fleet.
var ErrBarePool = errors.New("server: bare pool file")

// barePoolErr returns the refusal for a bare pool file at path, naming the
// two renames that turn it into a one-shard fleet, or nil when there is none.
func barePoolErr(fs seglog.FS, path string) error {
	if _, err := fs.Stat(path); err != nil {
		return nil
	}
	sp := ShardPath(path, 0)
	return fmt.Errorf("%w %s is not a shard fleet; to serve it as one shard, rename %s -> %s and %s -> %s (if present), or reformat with -overwrite",
		ErrBarePool, path, path, sp, path+epochlog.DirSuffix, sp+epochlog.DirSuffix)
}

// shardFiles lists, through fs, what the pattern <path>.shard-* names: the
// shard pool files beside path, their epoch-log directories and litter.
func shardFiles(fs seglog.FS, path string) ([]string, error) {
	entries, err := fs.ReadDir(filepath.Dir(path))
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	var out []string
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), filepath.Base(path)+".shard-"); ok {
			out = append(out, path+".shard-"+rest)
		}
	}
	return out, err
}

// DiscoverShards inspects the files at path on fs (nil means seglog.OS) and
// reports how many shards a previous run left behind: N for a contiguous
// <path>.shard-0..N-1 set, 0 for nothing. A name ShardPath does not write
// (<path>.shard-01, say) is refused, not read as a shard index. A bare
// <path> pool file is refused
// (see barePoolErr) with nothing on disk touched. A gap in the shard sequence
// is corruption worth refusing to guess at, and so is a slot map that
// references more shards than there are files — those slots' keys would
// have nowhere to live. A slot map referencing *fewer* shards is fine: a
// crash between Split creating a shard file and the first cutover publishing
// it leaves exactly that, and the extra shard simply owns zero slots until
// the next split adopts it.
func DiscoverShards(fs seglog.FS, path string) (int, error) {
	fs = seglog.OrOS(fs)
	if err := barePoolErr(fs, path); err != nil {
		return 0, err
	}
	matches, err := shardFiles(fs, path)
	if err != nil {
		return 0, err
	}
	seen := make(map[int]bool)
	count := 0
	for _, m := range matches {
		// Neither staging litter from a crash while publishing a new shard's
		// zero checkpoint (Open cleans it per shard) nor a shard's epoch-log
		// directory is a shard of its own.
		if strings.HasSuffix(m, seglog.TempSuffix) || strings.HasSuffix(m, epochlog.DirSuffix) {
			continue
		}
		// Only the name ShardPath writes is a shard: kv.pool.shard-01 would
		// parse as shard 1 and leave the real shard 1 to be created beside it.
		k, err := strconv.Atoi(strings.TrimPrefix(m, path+".shard-"))
		if err != nil || k < 0 || m != ShardPath(path, k) {
			return 0, fmt.Errorf("server: unrecognized shard file %q", m)
		}
		seen[k] = true
		count++
	}
	for k := 0; k < count; k++ {
		if !seen[k] {
			return 0, fmt.Errorf("server: shard files are not contiguous: missing %s", ShardPath(path, k))
		}
	}
	m, err := LoadSlotMap(fs, path)
	if err != nil {
		return 0, err
	}
	if m != nil && m.Shards > count {
		return 0, fmt.Errorf("server: slot map references %d shards but only %d shard files exist", m.Shards, count)
	}
	return count, nil
}

// OpenSharded opens (creating or recovering as needed) shards pool files
// rooted at path and starts an engine per shard. Opening and recovery run
// concurrently across shards — recovery cost is paid once per shard, in
// parallel, not summed — and the first error wins: on any failure every
// already-opened shard is closed and the error is returned. opts sizes each
// shard individually (DataSize is per shard, not divided). A bare <path>
// pool file is refused as DiscoverShards refuses it, and so is a path that
// names no file (""): a fleet is its files. With opts.Overwrite set,
// any existing shard files, a bare pool file and the slot-map sidecar are
// removed first, so a reformat never leaves stale higher-numbered shards
// behind.
//
// Every shard persists through the delta epoch store, the only store:
// pmem.Open replays a pool's epoch log, and a pool file without one (a
// legacy full-image pool, or paxrecover's output) opens as a checkpoint
// with an empty log that its first commit starts.
//
// Routing state comes up in one of two ways: a persisted slot map is loaded
// and its routing reconciled (crash leftovers from an interrupted migration
// are purged — see openRoute); anything else gets the default round-robin
// map, refused if existing shard files hold keys it would route elsewhere.
func OpenSharded(path string, shards int, opts pax.Options, slot int, cfg Config) (*ShardedEngine, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("server: shard count %d must be positive", shards)
	}
	if shards > NumSlots {
		return nil, fmt.Errorf("server: shard count %d exceeds the %d-slot routing space", shards, NumSlots)
	}
	if base := filepath.Base(path); base == "." || base == string(filepath.Separator) {
		return nil, fmt.Errorf("server: fleet path %q names no file: a fleet is its shard files", path)
	}
	opts.FS = seglog.OrOS(opts.FS)
	if opts.Overwrite {
		if err := removeShardFiles(opts.FS, path); err != nil {
			return nil, err
		}
	}
	var persisted *SlotMap
	if !opts.Overwrite {
		if err := barePoolErr(opts.FS, path); err != nil {
			return nil, err
		}
		m, err := LoadSlotMap(opts.FS, path)
		if err != nil {
			return nil, err
		}
		if m != nil && m.Shards > shards {
			return nil, fmt.Errorf("server: slot map references %d shards, opening only %d", m.Shards, shards)
		}
		persisted = m
	}
	s := &ShardedEngine{path: path, opts: opts, accSlot: slot, cfg: cfg}
	list := make([]shard, shards)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sp := ShardPath(path, k)
			var pool *pax.Pool
			var err error
			if opts.Overwrite {
				pool, err = pax.CreatePool(sp, opts)
			} else {
				pool, err = pax.MapPool(sp, opts)
			}
			if err != nil {
				fail(fmt.Errorf("server: shard %d: %w", k, err))
				return
			}
			eng, err := New(pool, slot, cfg)
			if err != nil {
				pool.Close()
				fail(fmt.Errorf("server: shard %d: %w", k, err))
				return
			}
			list[k] = shard{pool: pool, eng: eng}
		}(k)
	}
	wg.Wait()
	if firstErr != nil {
		for _, sh := range list {
			if sh.eng != nil {
				sh.eng.Close()
			}
			if sh.pool != nil {
				sh.pool.Close()
			}
		}
		return nil, firstErr
	}
	for _, sh := range list {
		s.forwardEvents(sh.eng)
	}
	s.shards.Store(&list)
	if err := s.openRoute(persisted, opts.Overwrite); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// forwardEvents installs the fleet hub as eng's event sink. The shard index
// is stamped at forward time — engines keep their slice position for life,
// but resolving late keeps the stamp correct for engines forwarded before
// their slice is published (open, addShard).
func (s *ShardedEngine) forwardEvents(eng *Engine) {
	eng.SetEventSink(func(ev Event) {
		ev.Shard = s.shardIndexOf(eng)
		s.events.publish(ev)
	})
}

// shardIndexOf resolves an engine's index in the live shard slice, -1 when
// it is not (yet, or no longer) published. O(shards), and lifecycle events
// are rare.
func (s *ShardedEngine) shardIndexOf(eng *Engine) int {
	if sp := s.shards.Load(); sp != nil {
		for i, sh := range *sp {
			if sh.eng == eng {
				return i
			}
		}
	}
	return -1
}

// Events returns the fleet's recent lifecycle events, oldest first: every
// shard's events plus the router's own split/merge/policy events. Safe on a
// sealed or closed fleet.
func (s *ShardedEngine) Events() EventsSnapshot {
	return EventsSnapshot{Events: s.events.snapshot()}
}

// SetEventSink forwards every subsequent fleet-level event to fn (nil
// clears). AttachBlackbox uses it to journal events persistently.
func (s *ShardedEngine) SetEventSink(fn func(Event)) { s.events.setSink(fn) }

// ShardPools returns the live shards' pools, in shard order. Test and
// benchmark harnesses use it to reach the backing devices; the pools stay
// owned by the engine.
func (s *ShardedEngine) ShardPools() []*pax.Pool {
	sp := s.shards.Load()
	if sp == nil {
		return nil
	}
	out := make([]*pax.Pool, len(*sp))
	for i, sh := range *sp {
		out[i] = sh.pool
	}
	return out
}

// openRoute installs the routing table at open time and reconciles the
// shards' contents with it. Two cases:
//
//  1. A persisted map exists: install it, then purge — every shard deletes
//     the keys the map assigns elsewhere. A crash during migration leaves
//     either orphan copies on the destination (cutover not published: the
//     source is still authoritative) or stale copies on the source (cutover
//     published, cleanup unfinished: the destination is authoritative);
//     owner-wins deletion erases both kinds, and because it runs before
//     serving starts it is idempotent across repeated crashes.
//  2. No map: install and persist the default map. Beside existing shard
//     files that is a legal state — a crash between OpenSharded creating
//     the files and the first Save below leaves exactly it, and a pre-slot-map layout with a
//     power-of-two shard count already sits where the default map routes it
//     — but only if every key is on the shard the default map names. A key
//     anywhere else means the layout predates slot routing with some other
//     hash: refuse, and touch nothing. Purging is not an option here:
//     without a persisted map nothing says the misplaced copy is the stale
//     one.
func (s *ShardedEngine) openRoute(persisted *SlotMap, fresh bool) error {
	shards := *s.shards.Load()
	n := len(shards)
	if persisted != nil {
		m := persisted.clone()
		if m.Shards < n {
			// Extra shard files beyond the map (interrupted Split): they own
			// zero slots; record the true fleet size so the next split may
			// reuse them.
			m.Shards = n
		}
		s.route.Store(m)
		return s.purgeMisrouted()
	}
	m := DefaultSlotMap(n)
	s.route.Store(m)
	if !fresh {
		misplaced := 0
		for k := range shards {
			misplaced += len(s.misrouted(k))
		}
		if misplaced > 0 {
			return fmt.Errorf("server: %s has no slot map and %d key(s) on shards the default map does not route them to: the layout predates slot routing; nothing was moved or deleted", s.path, misplaced)
		}
	}
	return m.Save(s.opts.FS, s.path)
}

// misrouted returns the entries of shard k's read index whose keys the live
// routing table assigns to a different shard. Runs at open, before serving.
func (s *ShardedEngine) misrouted(k int) []indexEntry {
	m := s.route.Load()
	return (*s.shards.Load())[k].eng.idx.collect(func(key []byte) bool {
		return int(m.Assign[SlotFor(key)]) != k
	})
}

// purgeMisrouted deletes, on every shard, the keys the routing table assigns
// to a different shard. Runs at open, before serving.
func (s *ShardedEngine) purgeMisrouted() error {
	shards := *s.shards.Load()
	for k := range shards {
		for _, e := range s.misrouted(k) {
			if _, _, err := shards[k].eng.Delete(e.key); err != nil {
				return fmt.Errorf("server: shard %d: purging misrouted key: %w", k, err)
			}
			s.reshard.purgedKeys.Add(1)
		}
	}
	return nil
}

// removeShardFiles clears the shard files, a bare <path> pool file and the
// slot-map sidecar so an Overwrite reformat never leaves stale files for
// DiscoverShards to trip over. The bare path goes first: a non-empty
// directory there fails the reformat before anything is deleted.
func removeShardFiles(fs seglog.FS, path string) error {
	matches, err := shardFiles(fs, path)
	if err != nil {
		return err
	}
	for _, m := range append([]string{path, SlotMapPath(path)}, matches...) {
		if err := removePool(fs, m); err != nil {
			return fmt.Errorf("server: reformatting: %w", err)
		}
	}
	return nil
}

// removePool removes the pool file at p, then its epoch-log segment
// directory, or stale deltas would replay onto a fresh pool there; a p that
// names an epoch log itself (its pool file may be gone) loses just that. A
// missing file is not an error; a directory at any other p is not removed.
func removePool(fs seglog.FS, p string) error {
	if !strings.HasSuffix(p, epochlog.DirSuffix) {
		if err := fs.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		p += epochlog.DirSuffix
	}
	return fs.RemoveAll(p)
}

// NumShards reports the current shard count (it grows under Split).
func (s *ShardedEngine) NumShards() int { return len(*s.shards.Load()) }

// MediaSize reports the per-shard pool media size in bytes (every shard is
// created with the same geometry).
func (s *ShardedEngine) MediaSize() int { return (*s.shards.Load())[0].pool.MediaSize() }

// Route returns a copy of the live slot→shard assignment.
func (s *ShardedEngine) Route() SlotMap { return *s.route.Load() }

// ShardFor reports which shard currently owns key: the key's slot (a pure
// function of the key bytes, stable forever) looked up in the live
// assignment. With an unchanged assignment the answer is stable across
// restarts — reopening the same shard files routes every key back to the
// pool that holds it; after a Split only keys in the moved slots answer
// differently.
func (s *ShardedEngine) ShardFor(key []byte) int {
	return int(s.route.Load().Assign[SlotFor(key)])
}

// engineForSlot resolves a slot to its owning engine. The route is loaded
// before the shard slice: new slices are published before any map that
// references them, so observing the map implies observing the shard.
func (s *ShardedEngine) engineForSlot(slot int) *Engine {
	m := s.route.Load()
	shards := *s.shards.Load()
	return shards[m.Assign[slot]].eng
}

// begin starts one request without waiting for it; on nil the fleet owns the
// request and delivers exactly one result on req.done. Per-key operations
// route to the owning shard's queue (FIFO per shard, so a connection's
// same-key operations keep their wire order) under the slot's gate; persist
// and stats fan out across every shard and deliver one merged result; split
// and merge run the migration off the dispatch goroutine.
func (s *ShardedEngine) begin(req *request) error {
	switch req.op {
	case opGet, opPut, opDelete:
		slot := SlotFor(req.key)
		s.slotOps[slot].Add(1)
		g := &s.gates[slot]
		// The gate read side brackets route-lookup + dispatch: for writes
		// that is the enqueue (FIFO order then guarantees a later drain
		// barrier on the old owner sees them), for index reads the whole
		// lookup (so a read never lands on a shard whose slot already cut
		// over). Migration's write side therefore fences the slot exactly.
		g.RLock()
		err := s.engineForSlot(slot).begin(req)
		g.RUnlock()
		return err
	case opPersist:
		go func() {
			epoch, err := s.Persist()
			req.finish(result{epoch: epoch, err: err})
		}()
		return nil
	case opStats:
		go func() {
			text, err := s.StatsText()
			req.finish(result{text: text, err: err})
		}()
		return nil
	case opSplit:
		// Migration blocks on drain barriers and bulk copies — never on the
		// dispatch goroutine.
		go func() {
			rep, err := s.Split(req.shard)
			if err != nil {
				req.finish(result{err: err})
				return
			}
			buf, err := json.Marshal(rep)
			req.finish(result{value: buf, err: err})
		}()
		return nil
	case opMerge:
		go func() {
			rep, err := s.Merge(req.shard)
			if err != nil {
				req.finish(result{err: err})
				return
			}
			buf, err := json.Marshal(rep)
			req.finish(result{value: buf, err: err})
		}()
		return nil
	case opTrace:
		// Recorder snapshots never touch the writer loops (each recorder has
		// its own mutex), so this is answered inline — and keeps working with
		// shards sealed or crashed.
		buf, err := json.Marshal(s.Trace())
		req.finish(result{value: buf, err: err})
		return nil
	case opEvents:
		// Same inline contract as TRACE: the hub has its own mutex, so a
		// sealed fleet still serves the events that explain the seal.
		buf, err := json.Marshal(s.Events())
		req.finish(result{value: buf, err: err})
		return nil
	}
	return fmt.Errorf("server: unknown op %d", req.op)
}

// doKey runs one per-key request through begin (slot gate, route, shard
// queue) to completion, recycling the request struct on every path.
func (s *ShardedEngine) doKey(op opKind, key, value []byte) result {
	req := newRequest(op, key, value)
	if err := s.begin(req); err != nil {
		req.release()
		return result{err: err}
	}
	res := <-req.done
	req.release()
	return res
}

// Trace merges every shard's flight recorder into one snapshot: records are
// stamped with their shard index and interleaved oldest-first by batch start
// time. Sequence numbers stay per-shard — (shard, seq) identifies a commit.
func (s *ShardedEngine) Trace() TraceSnapshot {
	shards := *s.shards.Load()
	out := TraceSnapshot{Shards: len(shards)}
	for k, sh := range shards {
		snap := sh.eng.Trace()
		if snap.SlowThresholdNS > out.SlowThresholdNS {
			out.SlowThresholdNS = snap.SlowThresholdNS
		}
		for i := range snap.Recent {
			snap.Recent[i].Shard = k
		}
		for i := range snap.Slow {
			snap.Slow[i].Shard = k
		}
		out.Recent = append(out.Recent, snap.Recent...)
		out.Slow = append(out.Slow, snap.Slow...)
	}
	byStart := func(recs []CommitRecord) func(i, j int) bool {
		return func(i, j int) bool { return recs[i].Start < recs[j].Start }
	}
	sort.SliceStable(out.Recent, byStart(out.Recent))
	sort.SliceStable(out.Slow, byStart(out.Slow))
	if a := s.autopilot.Load(); a != nil {
		out.Autopilot = a.last.Load()
	}
	return out
}

// Get routes to the key's shard and serves from that shard's read index —
// no queue, no waiting behind the shard's commit in flight (read-your-writes
// with respect to acked mutations, like Engine.Get).
func (s *ShardedEngine) Get(key []byte) ([]byte, bool, error) {
	res := s.doKey(opGet, key, nil)
	return res.value, res.found, res.err
}

// Put routes to the key's shard and blocks until that shard's group commit
// makes the write durable.
func (s *ShardedEngine) Put(key, value []byte) (uint64, error) {
	res := s.doKey(opPut, key, value)
	return res.epoch, res.err
}

// PutPolicy is Put; AckDurable is the only policy (see AckPolicy).
func (s *ShardedEngine) PutPolicy(key, value []byte, _ AckPolicy) (uint64, error) {
	return s.Put(key, value)
}

// Delete routes to the key's shard, blocking like Put.
func (s *ShardedEngine) Delete(key []byte) (bool, uint64, error) {
	res := s.doKey(opDelete, key, nil)
	return res.found, res.epoch, res.err
}

// Persist forces a group commit on every shard in parallel and joins. The
// returned epoch is the maximum shard epoch — shards number their epochs
// independently, so it is a watermark, not a global ordering point.
func (s *ShardedEngine) Persist() (uint64, error) {
	shards := *s.shards.Load()
	epochs := make([]uint64, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k := range shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := shards[k].eng.do(opPersist, nil, nil)
			epochs[k], errs[k] = res.epoch, res.err
		}(k)
	}
	wg.Wait()
	var max uint64
	for k := range shards {
		if errs[k] != nil {
			return 0, fmt.Errorf("server: shard %d: %w", k, errs[k])
		}
		if epochs[k] > max {
			max = epochs[k]
		}
	}
	return max, nil
}

// Metrics samples every shard's registry on its writer loop (in parallel)
// and merges them: each metric appears once per shard with a `{shard="K"}`
// suffix and once as the plain-named sum across shards, plus a
// paxserve_shards count and the router's own slot/reshard gauges. After
// Close or Crash it returns the final snapshot frozen at teardown.
func (s *ShardedEngine) Metrics() (stats.Summary, error) {
	s.mu.Lock()
	final := s.final
	s.mu.Unlock()
	if final != nil {
		return final, nil
	}
	shards := *s.shards.Load()
	snaps := make([]stats.Summary, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k := range shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			snaps[k], errs[k] = shards[k].eng.Snapshot()
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", k, err)
		}
	}
	m := mergeSummaries(snaps)
	s.addRouterMetrics(m)
	return m, nil
}

// addRouterMetrics publishes the routing layer's own state into a merged
// summary: the live assignment's sequence number and the reshard counters.
func (s *ShardedEngine) addRouterMetrics(m stats.Summary) {
	m["paxserve_slotmap_seq"] = float64(s.route.Load().Seq)
	m["paxserve_reshard_splits"] = float64(s.reshard.splits.Load())
	m["paxserve_reshard_merges"] = float64(s.reshard.merges.Load())
	m["paxserve_reshard_moved_slots"] = float64(s.reshard.movedSlots.Load())
	m["paxserve_reshard_moved_keys"] = float64(s.reshard.movedKeys.Load())
	m["paxserve_reshard_purged_keys"] = float64(s.reshard.purgedKeys.Load())
	m["paxserve_reshard_cleanup_failures"] = float64(s.reshard.cleanupFailures.Load())
	if a := s.autopilot.Load(); a != nil {
		a.publish(m)
	}
}

// StatsText renders Metrics as `name value` lines — the sharded STATS reply.
func (s *ShardedEngine) StatsText() (string, error) {
	m, err := s.Metrics()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

func mergeSummaries(snaps []stats.Summary) stats.Summary {
	merged := make(stats.Summary)
	seenQuantile := make(map[string]bool)
	for k, snap := range snaps {
		label := fmt.Sprintf("{shard=%q}", strconv.Itoa(k))
		for name, v := range snap {
			if strings.Contains(name, `{q="`) {
				// Histogram quantile line, e.g. name{q="p99"}: the shard tag
				// joins the existing label set instead of forming a second
				// brace group, and the plain name takes the max across shards
				// — the worst shard's tail — because quantiles do not sum.
				withShard := name[:len(name)-1] + `,shard=` + strconv.Quote(strconv.Itoa(k)) + `}`
				merged[withShard] = v
				if !seenQuantile[name] || v > merged[name] {
					merged[name] = v
				}
				seenQuantile[name] = true
				continue
			}
			merged[name+label] = v
			merged[name] += v
		}
	}
	merged["paxserve_shards"] = float64(len(snaps))
	return merged
}

// AggregateStats is the cross-shard rollup of the per-engine counters.
type AggregateStats struct {
	AckedWrites     uint64
	Gets            uint64
	GroupCommits    uint64
	BatchMax        uint64 // largest single-shard batch
	Rejects         uint64
	ReadIndexHits   uint64
	ReadIndexMisses uint64
}

// AggregateStats sums the engine counters across shards (BatchMax is the
// max). Counters are atomic, so this is safe at any time.
func (s *ShardedEngine) AggregateStats() AggregateStats {
	var a AggregateStats
	for _, sh := range *s.shards.Load() {
		st := sh.eng.Stats()
		a.AckedWrites += st.AckedWrites.Load()
		a.Gets += st.Gets.Load()
		a.GroupCommits += st.GroupCommits.Load()
		a.Rejects += st.Rejects.Load()
		a.ReadIndexHits += st.ReadIndexHits.Load()
		a.ReadIndexMisses += st.ReadIndexMisses.Load()
		if b := st.BatchMax.Load(); b > a.BatchMax {
			a.BatchMax = b
		}
	}
	return a
}

// Health reports each shard's seal error, indexed by shard: nil for a shard
// that is serving, the wrapped ErrSealed durability failure for one that
// sealed fail-stop. A sealed shard takes down only its own keyspace — the
// router keeps serving the others — so callers use Health to decide whether
// "some errors" means degraded (a subset sealed) or down (all sealed).
func (s *ShardedEngine) Health() []error {
	shards := *s.shards.Load()
	errs := make([]error, len(shards))
	for k, sh := range shards {
		errs[k] = sh.eng.SealErr()
	}
	return errs
}

// Recoveries reports what opening each shard repaired, indexed by shard.
func (s *ShardedEngine) Recoveries() []pax.RecoveryInfo {
	shards := *s.shards.Load()
	recs := make([]pax.RecoveryInfo, len(shards))
	for k, sh := range shards {
		recs[k] = sh.pool.Recovery()
	}
	return recs
}

// DurableEpoch reports the highest committed epoch across shards. After
// Close or Crash it returns the epoch frozen at teardown: the pools are
// closed, and their media is gone.
func (s *ShardedEngine) DurableEpoch() uint64 {
	s.mu.Lock()
	sealed, epoch := s.final != nil, s.sealedEpoch
	s.mu.Unlock()
	if sealed {
		return epoch
	}
	var max uint64
	for _, sh := range *s.shards.Load() {
		if e := sh.pool.DurableEpoch(); e > max {
			max = e
		}
	}
	return max
}

// Close drains and seals every shard in parallel (each engine commits its
// remaining mutations plus the open epoch), freezes a final metrics
// snapshot, and closes the backing pools. Unlike Engine.Close it owns the
// pools, because it opened them. Every shard is closed regardless of
// individual failures; the first durability error (by shard index) is
// returned so a degraded shutdown is never reported clean.
func (s *ShardedEngine) Close() error {
	s.stopAutopilot()
	shards := *s.shards.Load()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k, sh := range shards {
		wg.Add(1)
		go func(k int, e *Engine) {
			defer wg.Done()
			errs[k] = e.Close()
		}(k, sh.eng)
	}
	wg.Wait()
	var firstErr error
	for k, err := range errs {
		if err != nil {
			firstErr = fmt.Errorf("server: shard %d: %w", k, err)
			break
		}
	}
	if err := s.teardown(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Crash stops every shard's writer loop without committing — the multi-
// device analogue of the machine dying — then closes the pools crash-like
// (no final persist; unacked mutations roll back on reopen).
func (s *ShardedEngine) Crash() error {
	s.stopAutopilot()
	var wg sync.WaitGroup
	for _, sh := range *s.shards.Load() {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.Crash()
		}(sh.eng)
	}
	wg.Wait()
	return s.teardown()
}

// teardown runs once: freeze the merged metrics and the durable epoch (the
// loops are gone, so sampling the registries and pools directly cannot race
// a mutator) and close pools.
func (s *ShardedEngine) teardown() error {
	s.closeOnce.Do(func() {
		shards := *s.shards.Load()
		snaps := make([]stats.Summary, len(shards))
		for k, sh := range shards {
			snaps[k] = sh.eng.reg.Snapshot()
		}
		final := mergeSummaries(snaps)
		s.addRouterMetrics(final)
		epoch := s.DurableEpoch()
		s.mu.Lock()
		s.final, s.sealedEpoch = final, epoch
		s.mu.Unlock()
		for k, sh := range shards {
			if err := sh.pool.Close(); err != nil && s.closeErr == nil {
				s.closeErr = fmt.Errorf("server: shard %d: %w", k, err)
			}
		}
	})
	return s.closeErr
}
