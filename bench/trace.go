package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"pax"
	"pax/internal/blackbox"
	"pax/internal/epochlog"
	"pax/internal/stats"
	"pax/internal/wire"
)

// The traced run peels the stack: the workload's seeded op stream is replayed
// at four levels, each with one layer fewer under it, and what a level costs
// over the one below is what the peeled layer costs.
//
//	tcp      the whole served path over loopback, first untraced (the
//	         registry deltas and host counters come from here), then with
//	         spans, so the difference is what tracing costs
//	backend  ShardedEngine.PutPolicy/Get in-process, as many callers as the
//	         tcp level has requests in flight: no wire, no socket
//	pool     one goroutine, pax.Map.Put x B then pax.Pool.Persist on one
//	         shard-sized pool: no engine, no queue, no second shard
//	iso      fixed-iteration loops over one public function at a time
//
// The tcp and backend levels share -seconds in the proportions below; the
// pool and iso levels run fixed op counts, so their simulated counters are a
// function of the seed alone.
const (
	tcpUntracedShare = 0.35
	tcpTracedShare   = 0.20
	backendShare     = 0.20
)

var perLayer = []metricDef{
	{Name: "wire.encode_put_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_put_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.write_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.read_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.server_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "wire.server_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "wire.transport_us", Unit: "us", Better: "lower"},
	{Name: "server.route_ns", Unit: "ns", Better: "lower"},
	{Name: "server.backend_put_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.backend_put_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.backend_get_ns", Unit: "ns", Better: "lower"},
	{Name: "server.backend_put_allocs", Unit: "count", Better: "lower"},
	{Name: "server.backend_put_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "server.backend_get_allocs", Unit: "count", Better: "lower"},
	{Name: "server.batch_mean", Unit: "count", Better: "higher"},
	{Name: "server.enqueue_wait_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.batch_seal_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.commit_persist_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.commit_ack_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.commit_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.pipeline_stall_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.readindex_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.rejects", Unit: "count", Better: "lower"},
	{Name: "structures.map_put_ns", Unit: "ns", Better: "lower"},
	{Name: "structures.map_put_allocs", Unit: "count", Better: "lower"},
	{Name: "structures.map_get_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.log_appends_per_put", Unit: "count", Better: "lower"},
	{Name: "sim.snoops_per_persist", Unit: "count", Better: "lower"},
	{Name: "sim.lines_written_per_persist", Unit: "count", Better: "lower"},
	{Name: "sim.hbm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.llc_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.log_peak_live", Unit: "count", Better: "lower"},
	{Name: "sim.persist_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "core.persist_ns", Unit: "ns", Better: "lower"},
	{Name: "core.persist_device_mean_us", Unit: "us", Better: "lower"},
	{Name: "core.persist_sync_mean_us", Unit: "us", Better: "lower"},
	{Name: "pax.open_s", Unit: "s", Better: "lower"},
	{Name: "pax.replay_records", Unit: "count", Better: "lower"},
	{Name: "pax.replay_bytes", Unit: "B", Better: "lower"},
	{Name: "pmem.sync_append_mean_us", Unit: "us", Better: "lower"},
	{Name: "pmem.sync_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "pmem.checkpoints", Unit: "count", Better: "lower"},
	{Name: "pmem.checkpoint_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "pmem.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "epochlog.append_ns", Unit: "ns", Better: "lower"},
	{Name: "epochlog.append_allocs", Unit: "count", Better: "lower"},
	{Name: "epochlog.append_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "epochlog.record_overhead_bytes", Unit: "B", Better: "lower"},
	{Name: "epochlog.replay_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "epochlog.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "epochlog.live_bytes_end", Unit: "B", Better: "lower"},
	{Name: "epochlog.segments_end", Unit: "count", Better: "lower"},
	{Name: "blackbox.append_us", Unit: "us", Better: "lower"},
	{Name: "stats.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.summary_us", Unit: "us", Better: "lower"},
	{Name: "e2e.get_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "e2e.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "e2e.put_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.get_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "host.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "host.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "reconcile.put_p50_residual_pct", Unit: "%", Better: "lower"},
}

// traceFile is what the traced run writes to bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Levels   map[string]levelDump `json:"levels"`
}

// ratio is a/b, or 0 when b is 0: a per-layer metric whose layer saw no
// work in this workload reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanUS is the windowed mean of a registry latency histogram, in
// microseconds: its _sum delta over its _count delta.
func meanUS(reg stats.Summary, name string) float64 {
	return ratio(reg[name+"_sum"], reg[name+"_count"]) / 1e3
}

// memDelta runs fn and reports the heap allocations it made.
func memDelta(fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// timed runs fn under a span named name and returns how long it took.
func timed(spans *spanBuf, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	spans.addRoot(name, 0, t0, t0.Add(d))
	return d
}

// runTraced is the traced run of one workload. It reports the per-layer
// metrics and writes the span file to outDir.
func runTraced(w workload, o runOpts, outDir string) (*outcome, error) {
	out := &outcome{Metrics: map[string]value{}}
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	// The backend level has a goroutine per request in flight, the others a
	// handful: the per-goroutine bounds keep each level near 30k spans.
	levels := map[string]*levelTrace{
		"tcp": newLevelTrace(4096), "backend": newLevelTrace(512),
		"pool": newLevelTrace(1 << 15), "iso": newLevelTrace(64),
	}
	dir, err := newPoolDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, vers, err := setUp(dir, w, o)
	if err != nil {
		return nil, err
	}
	// Everything that needs the live fleet: the tcp and backend levels, and
	// the two iso loops over the router and the fleet's registry.
	iso := levels["iso"].buf()
	var putP50US float64
	err = func() error {
		tcp, backend := level{addr: st.addr, eng: st.eng}, level{eng: st.eng}
		untraced, err := runPhases(tcp, w, vers, o.plan(w, tcpUntracedShare, false), o, nil)
		if err != nil {
			return err
		}
		traced, err := runPhases(tcp, w, vers, o.plan(w, tcpTracedShare, true), o, levels["tcp"])
		if err != nil {
			return err
		}
		inProcess, err := runPhases(backend, w, vers, o.plan(w, backendShare, false), o, levels["backend"])
		if err != nil {
			return err
		}
		if putP50US, err = tcpMetrics(out, set, untraced, traced, inProcess); err != nil {
			return err
		}
		keys := make([][]byte, 1024)
		for i := range keys {
			keys[i] = keyBytes(i * w.keys / len(keys))
		}
		n := 1000000 / o.isoScale
		set("server.route_ns", float64(timed(iso, "server.route", func() {
			for i := 0; i < n; i++ {
				sink += st.eng.ShardFor(keys[i%len(keys)])
			}
		}))/float64(n))
		n = max(20/o.isoScale, 2)
		d := timed(iso, "stats.summary", func() {
			for i := 0; i < n && err == nil; i++ {
				_, err = st.eng.StatsText()
			}
		})
		set("stats.summary_us", float64(d.Microseconds())/float64(n))
		return err
	}()
	if serr := st.stopServing(); err == nil {
		err = serr
	}
	if cerr := st.eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()

	pl, err := poolLevel(filepath.Join(dir, "one.pool"), w, o, levels["pool"].buf())
	if err != nil {
		return nil, fmt.Errorf("pool level: %w", err)
	}
	out.Attempted += pl.attempted
	out.Failed += pl.failed
	pl.metrics(set)
	if err := isoLevel(dir, w, o, pl, iso, set); err != nil {
		return nil, fmt.Errorf("iso level: %w", err)
	}
	reconcile(out, set, putP50US)
	set("e2e.peak_rss_mb", procStatusMB("VmHWM"))
	out.Correct = out.Failed == 0

	tf := traceFile{Workload: w.name, Seed: o.seed, Levels: map[string]levelDump{}}
	for n, lt := range levels {
		tf.Levels[n] = lt.dump()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	return out, os.WriteFile(filepath.Join(outDir, "trace_"+w.name+".json"), data, 0o644)
}

// sink keeps the iso loops' results alive so the compiler cannot drop the
// calls being timed.
var sink int

// tcpMetrics derives the metrics that come from the tcp and backend levels:
// registry deltas, host counters, client-side latencies and their
// differences. It returns the PUT ack p50 the untraced tcp level saw, which
// the layer figures are reconciled against.
func tcpMetrics(out *outcome, set func(string, float64), untraced, traced, backend []measured) (putP50US float64, err error) {
	put, get := sides(untraced)
	bput, bget := sides(backend)
	if put == nil || get == nil || bput == nil || bget == nil {
		return 0, fmt.Errorf("a traced phase completed no operations")
	}
	for _, ms := range [][]measured{untraced, traced, backend} {
		for _, m := range ms {
			out.Attempted += m.attempted
			out.Failed += m.failed
		}
	}
	ps, gs := put.put.stats(put.wall), get.get.stats(get.wall)
	bps, bgs := bput.put.stats(bput.wall), bget.get.stats(bget.wall)
	out.extra = append(out.extra,
		line{"tcp.put_ack_p50_us", ps.p50 / 1e3, "us"},
		line{"tcp.get_p50_us", gs.p50 / 1e3, "us"})
	// End-to-end quantities too unsteady on this host to gate on (see
	// watched), reported here so that they are at least recorded.
	set("e2e.get_per_sec", gs.perSec)
	set("e2e.get_p50_us", gs.p50/1e3)
	set("e2e.put_ack_p99_us", ps.p99/1e3)
	set("e2e.get_p99_us", gs.p99/1e3)

	// Backend level. On mixed_rw PUTs and GETs share a phase, so the
	// allocation figures there are the blend of both.
	ops := func(m *measured) float64 { return float64(m.put.ops() + m.get.ops()) }
	set("server.backend_put_p50_us", bps.p50/1e3)
	set("server.backend_put_p99_us", bps.p99/1e3)
	set("server.backend_get_ns", bgs.p50)
	set("server.backend_put_allocs", float64(bput.host1.mallocs-bput.host0.mallocs)/ops(bput))
	set("server.backend_put_alloc_bytes", float64(bput.host1.bytes-bput.host0.bytes)/ops(bput))
	set("server.backend_get_allocs", float64(bget.host1.mallocs-bget.host0.mallocs)/ops(bget))
	set("wire.transport_us", (gs.p50-bgs.p50)/1e3)

	// Registry deltas over the untraced tcp windows.
	reg := put.reg
	set("server.batch_mean", ratio(reg["paxserve_acked_writes"], reg["paxserve_group_commits"]))
	set("server.enqueue_wait_mean_us", meanUS(reg, "paxserve_enqueue_wait_ns"))
	set("server.batch_seal_mean_us", meanUS(reg, "paxserve_batch_seal_ns"))
	set("server.commit_persist_mean_us", meanUS(reg, "paxserve_commit_persist_ns"))
	set("server.commit_ack_mean_us", meanUS(reg, "paxserve_commit_ack_ns"))
	set("server.commit_mean_us", meanUS(reg, "paxserve_commit_ns"))
	set("server.pipeline_stall_mean_us", meanUS(reg, "paxserve_pipeline_stall_ns"))
	hits, misses := get.reg["paxserve_read_index_hits"], get.reg["paxserve_read_index_misses"]
	set("server.readindex_hit_ratio", ratio(hits, hits+misses))
	rejects := 0.0
	for _, m := range untraced {
		rejects += m.reg["paxserve_queue_rejects"]
	}
	set("server.rejects", rejects)
	set("core.persist_device_mean_us", meanUS(reg, "pax_persist_device_ns"))
	set("core.persist_sync_mean_us", meanUS(reg, "pax_persist_sync_ns"))
	set("pmem.sync_append_mean_us", meanUS(reg, "pax_sync_append_ns"))
	set("pmem.sync_bytes_per_commit", ratio(reg["pax_sync_bytes_total"], reg["paxserve_group_commits"]))
	set("pmem.checkpoints", reg["pax_epoch_checkpoints_total"])
	set("pmem.checkpoint_bytes_per_user_byte", ratio(reg["pax_epoch_checkpoint_bytes_total"], float64(put.put.userBytes)))
	end := untraced[len(untraced)-1].regEnd
	set("epochlog.live_bytes_end", end["pax_epoch_log_live_bytes"])
	set("epochlog.segments_end", end["pax_epoch_log_segments"])

	// The whole process over the primary window, generators included.
	prim := &untraced[0]
	set("host.cpu_us_per_op", float64((prim.host1.cpu-prim.host0.cpu).Microseconds())/ops(prim))
	set("host.allocs_per_op", float64(prim.host1.mallocs-prim.host0.mallocs)/ops(prim))
	set("host.alloc_bytes_per_op", float64(prim.host1.bytes-prim.host0.bytes)/ops(prim))
	set("host.gc_cycles", float64(prim.host1.gcCycles-prim.host0.gcCycles))
	set("host.gc_pause_ms", float64((prim.host1.gcPause-prim.host0.gcPause).Microseconds())/1e3)

	var late []uint32
	for _, m := range untraced {
		late = append(late, m.late...)
	}
	slices.Sort(late)
	set("gen.late_p99_us", quantile(late, 0.99)/1e3)

	rate := func(m *measured) float64 { return ops(m) / m.wall.Seconds() }
	set("trace.overhead_pct", 100*(rate(prim)-rate(&traced[0]))/rate(prim))
	return ps.p50 / 1e3, nil
}

// reconcile compares the PUT ack p50 a client saw with the sum of what the
// layers say they spent on a PUT. A wide gap means time is going somewhere
// no layer metric looks; it is reported, not failed on.
func reconcile(out *outcome, set func(string, float64), p50 float64) {
	m := func(name string) float64 { return out.Metrics[name].Value }
	sum := (m("wire.encode_put_ns")+m("wire.decode_put_ns")+m("wire.write_resp_ns")+m("wire.read_resp_ns"))/1e3 +
		m("server.enqueue_wait_mean_us") + m("server.batch_seal_mean_us") +
		m("server.commit_persist_mean_us") + m("server.commit_ack_mean_us")
	res := 100 * ratio(p50-sum, p50)
	set("reconcile.put_p50_residual_pct", res)
	if res > 25 || res < -25 {
		out.findings = append(out.findings, fmt.Sprintf(
			"put ack p50 is %.0f us but the wire codec and server stage means add up to %.0f us (residual %.0f%%)", p50, sum, res))
	}
}

// poolResult is what the pool level measured.
type poolResult struct {
	attempted, failed int64
	puts, persists    int
	putNS, getNS      float64 // mean host ns per Map.Put / Map.Get
	putAllocs         float64
	loopNS            float64 // host ns of the whole PUT loop, persists included
	persistNS         []uint32
	simPersistNS      float64 // mean simulated ns per Persist
	before, after     pax.PoolStats
	openS             float64
	replay            epochlog.Info
	checkpointS       float64
	// What the PUT loop left in the epoch log: the shape the iso level
	// appends with, and how fast it replays.
	records, ranges int
	rangeBytes      int64
	replayMBps      float64
}

// poolLevel replays w's PUT stream on one pool the size of a shard, from one
// goroutine with no engine above it: B Map.Puts, then Persist. Nothing in it
// depends on timing, so for one seed the simulator's counters repeat exactly.
func poolLevel(path string, w workload, o runOpts, spans *spanBuf) (*poolResult, error) {
	r := &poolResult{}
	pool, err := pax.CreatePool(path, o.pool)
	if err != nil {
		return nil, err
	}
	defer func() {
		if pool != nil {
			pool.Close()
		}
	}()
	m, err := pax.NewMap(pool, 0)
	if err != nil {
		return nil, err
	}
	w.keys /= shards
	batch := w.putPhase().batchSize()
	val := make([]byte, w.valueSize)
	vers := make([]uint32, w.keys)
	put := func(idx int) error {
		vers[idx]++
		makeValue(val, o.seed, idx, vers[idx])
		r.attempted++
		return m.Put(keyBytes(idx), val)
	}
	for i := 0; i < w.keys; i++ {
		if err := put(i); err != nil {
			return nil, err
		}
		if i%preloadWindow == preloadWindow-1 || i == w.keys-1 {
			if _, err := pool.Persist(); err != nil {
				return nil, err
			}
		}
	}
	pick := newKeyPicker(w, o.seed, "pool/put", 0, 1)
	const probe = 512
	r.putAllocs, _ = memDelta(func() {
		for i := 0; i < probe && err == nil; i++ {
			err = put(pick.next())
		}
	})
	r.putAllocs /= probe
	if err == nil {
		_, err = pool.Persist()
	}
	if err != nil {
		return nil, err
	}
	pool.Internal().PM().WaitCheckpoint()

	r.before = pool.Stats()
	loopStart := time.Now()
	var putTime, simTime time.Duration
	for r.puts < o.poolOps {
		b0 := time.Now()
		op := uint64(r.persists)
		for i := 0; i < batch && r.puts < o.poolOps; i++ {
			idx := pick.next()
			t0 := time.Now()
			if err := put(idx); err != nil {
				return nil, err
			}
			putTime += time.Since(t0)
			spans.add("structures.map_put", "pool.batch", op, t0)
			r.puts++
		}
		t0 := time.Now()
		ps, err := pool.Persist()
		if err != nil {
			return nil, err
		}
		r.persistNS = append(r.persistNS, uint32(min(time.Since(t0), 1<<32-1)))
		spans.add("core.persist", "pool.batch", op, t0)
		spans.addRoot("pool.batch", op, b0, time.Now())
		simTime += time.Duration(ps.SimulatedLatency.Nanoseconds())
		r.persists++
	}
	r.loopNS = float64(time.Since(loopStart))
	r.after = pool.Stats()
	r.putNS = float64(putTime) / float64(r.puts)
	r.simPersistNS = float64(simTime) / float64(r.persists)
	slices.Sort(r.persistNS)

	gets := newKeyPicker(w, o.seed, "pool/get", 0, 1)
	t0 := time.Now()
	for i := 0; i < o.poolOps; i++ {
		idx := gets.next()
		body, found := m.Get(keyBytes(idx))
		r.attempted++
		if ver, ok := checkValue(body, o.seed, idx, w.valueSize); !found || !ok || ver != vers[idx] {
			r.failed++
		}
	}
	r.getNS = float64(time.Since(t0)) / float64(o.poolOps)
	spans.addRoot("structures.map_get_loop", 0, t0, time.Now())

	// Crash: close without persisting, read the log the loop left behind,
	// then time the recovery a shard would go through, and one checkpoint.
	pool.Internal().PM().WaitCheckpoint()
	err = pool.Close()
	pool = nil
	if err != nil {
		return nil, err
	}
	log, err := epochlog.Open(epochlog.Config{Dir: path + epochlog.DirSuffix, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	d := timed(spans, "epochlog.replay", func() {
		err = log.Replay(func(rec epochlog.Record) error {
			r.records++
			r.ranges += len(rec.Ranges)
			for _, rg := range rec.Ranges {
				r.rangeBytes += int64(len(rg.Data))
			}
			return nil
		})
	})
	log.Close()
	if err != nil {
		return nil, err
	}
	r.replayMBps = ratio(float64(r.rangeBytes)/1e6, d.Seconds())
	d = timed(spans, "pax.open", func() { pool, err = pax.OpenPool(path, o.pool) })
	if err != nil {
		return nil, err
	}
	r.openS = d.Seconds()
	r.replay = pool.Internal().PM().ReplayInfo()
	d = timed(spans, "pmem.checkpoint", func() { err = pool.Internal().PM().Checkpoint() })
	r.checkpointS = d.Seconds()
	return r, err
}

func (r *poolResult) metrics(set func(string, float64)) {
	a, b := r.after, r.before
	fills := float64(a.DeviceFillsServed - b.DeviceFillsServed)
	events := fills + float64(a.HostUpgrades-b.HostUpgrades) + float64(a.DeviceSnoopsSent-b.DeviceSnoopsSent)
	llcHits := float64(a.HostLLCHits - b.HostLLCHits)
	set("structures.map_put_ns", r.putNS)
	set("structures.map_put_allocs", r.putAllocs)
	set("structures.map_get_ns", r.getNS)
	set("sim.host_ns_per_event", ratio(r.loopNS, events))
	set("sim.log_appends_per_put", float64(a.DeviceLogAppends-b.DeviceLogAppends)/float64(r.puts))
	set("sim.snoops_per_persist", float64(a.DeviceSnoopsSent-b.DeviceSnoopsSent)/float64(r.persists))
	set("sim.lines_written_per_persist", float64(a.DeviceLinesWritten-b.DeviceLinesWritten)/float64(r.persists))
	set("sim.hbm_hit_ratio", ratio(float64(a.DeviceHBMHits-b.DeviceHBMHits), fills))
	set("sim.llc_hit_ratio", ratio(llcHits, llcHits+float64(a.HostLLCMisses-b.HostLLCMisses)))
	set("sim.log_peak_live", float64(a.LogPeakLive))
	set("sim.persist_sim_ns", r.simPersistNS)
	set("core.persist_ns", quantile(r.persistNS, 0.5))
	set("pax.open_s", r.openS)
	set("pax.replay_records", float64(r.replay.Records))
	set("pax.replay_bytes", float64(r.replay.Bytes))
	set("pmem.checkpoint_s", r.checkpointS)
	set("epochlog.replay_mb_per_s", r.replayMBps)
}

// isoLevel times single public functions on in-memory buffers or in a
// scratch directory, with the workload's sizes.
func isoLevel(dir string, w workload, o runOpts, pl *poolResult, spans *spanBuf, set func(string, float64)) error {
	val := make([]byte, w.valueSize)
	makeValue(val, o.seed, 1, 1)
	put := wire.Request{Op: wire.OpPut, Key: keyBytes(1), Value: val}
	resp := wire.Response{Status: wire.StatusOK, Body: val}
	n := 200000 / o.isoScale
	const frames = 1000
	n -= n % frames

	var err error
	d := timed(spans, "wire.encode_put", func() {
		for i := 0; i < n && err == nil; i++ {
			var b []byte
			b, err = wire.EncodeRequest(put)
			sink += len(b)
		}
	})
	set("wire.encode_put_ns", float64(d)/float64(n))

	var reqs, resps bytes.Buffer
	for i := 0; i < frames && err == nil; i++ {
		if err = wire.WriteRequest(&reqs, put); err == nil {
			err = wire.WriteResponse(&resps, resp)
		}
	}
	if err != nil {
		return err
	}
	var mallocs, bytesAlloc float64
	m, b := memDelta(func() {
		d = timed(spans, "wire.decode_put", func() {
			for i := 0; i < n/frames && err == nil; i++ {
				br := bufio.NewReader(bytes.NewReader(reqs.Bytes()))
				for j := 0; j < frames && err == nil; j++ {
					var r wire.Request
					r, err = wire.ReadRequest(br)
					sink += len(r.Value)
				}
			}
		})
	})
	mallocs, bytesAlloc = mallocs+m, bytesAlloc+b
	set("wire.decode_put_ns", float64(d)/float64(n))
	bw := bufio.NewWriter(io.Discard)
	m, b = memDelta(func() {
		d = timed(spans, "wire.write_resp", func() {
			for i := 0; i < n && err == nil; i++ {
				err = wire.WriteResponse(bw, resp)
			}
		})
	})
	mallocs, bytesAlloc = mallocs+m, bytesAlloc+b
	set("wire.write_resp_ns", float64(d)/float64(n))
	// What the server's codec allocates to take one PUT off the wire and put
	// one value-sized reply on it.
	set("wire.server_allocs_per_req", mallocs/float64(n))
	set("wire.server_bytes_per_req", bytesAlloc/float64(n))
	d = timed(spans, "wire.read_resp", func() {
		for i := 0; i < n/frames && err == nil; i++ {
			br := bufio.NewReader(bytes.NewReader(resps.Bytes()))
			for j := 0; j < frames && err == nil; j++ {
				var r wire.Response
				r, err = wire.ReadResponse(br)
				sink += len(r.Body)
			}
		}
	})
	set("wire.read_resp_ns", float64(d)/float64(n))
	if err != nil {
		return err
	}

	var h stats.LatencyHistogram
	n = 1000000 / o.isoScale
	d = timed(spans, "stats.observe", func() {
		for i := 0; i < n; i++ {
			h.Observe(int64(i))
		}
	})
	set("stats.observe_ns", float64(d)/float64(n))

	j, err := blackbox.Open(blackbox.Config{Dir: filepath.Join(dir, "iso.blackbox")})
	if err != nil {
		return err
	}
	n = max(200/o.isoScale, 2)
	payload := make([]byte, 256)
	d = timed(spans, "blackbox.append", func() {
		for i := 0; i < n && err == nil; i++ {
			err = j.Append("bench", payload)
		}
	})
	set("blackbox.append_us", float64(d.Microseconds())/float64(n))
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// One Append per commit, shaped like the commits the pool level made:
	// as many ranges of as many bytes as its log records held on average.
	nRanges, rangeLen := w.putPhase().batchSize(), w.valueSize
	if pl.records > 0 {
		nRanges = max(pl.ranges/pl.records, 1)
		rangeLen = max(int(pl.rangeBytes/int64(pl.ranges)), 8)
	}
	ranges := make([]epochlog.Range, nRanges)
	for i := range ranges {
		ranges[i] = epochlog.Range{Addr: uint64(i) << 12, Data: make([]byte, rangeLen)}
	}
	set("epochlog.record_overhead_bytes", float64(epochlog.RecordSize(ranges))-float64(nRanges*rangeLen))
	log, err := epochlog.Open(epochlog.Config{Dir: filepath.Join(dir, "iso.epochlog")})
	if err != nil {
		return err
	}
	defer log.Close()
	n = max(2000/o.isoScale, 2)
	epoch := uint64(0)
	m, b = memDelta(func() {
		d = timed(spans, "epochlog.append", func() {
			for i := 0; i < n && err == nil; i++ {
				epoch++
				_, err = log.Append(epoch, ranges)
			}
		})
	})
	set("epochlog.append_ns", float64(d)/float64(n))
	set("epochlog.append_allocs", m/float64(n))
	set("epochlog.append_alloc_bytes", b/float64(n))
	// Compaction deletes whole segments, so fill a few before timing it.
	filler := []epochlog.Range{{Data: make([]byte, 1<<20)}}
	for i := 0; i < 64 && len(log.Segments()) < 4 && err == nil; i++ {
		epoch++
		_, err = log.Append(epoch, filler)
	}
	if err != nil {
		return err
	}
	d = timed(spans, "epochlog.compact", func() { err = log.CompactThrough(log.LastSeq()) })
	set("epochlog.compact_ms", float64(d.Microseconds())/1e3)
	return err
}
