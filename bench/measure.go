package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pax"
	"pax/internal/server"
	"pax/internal/stats"
)

// metricDef names one metric of the benchmark. The two tables below repeat
// BENCHMARK.json, which is what the driver reads; bench_test.go fails if
// they differ. Bound is the share of the baseline median by which an
// end-to-end metric may worsen before -compare calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"put_per_sec", "1/s", "higher", 0.25},
	{"put_ack_p50_us", "us", "lower", 0.25},
	{"log_bytes_per_user_byte", "ratio", "lower", 0.05},
	{"resident_mb", "MB", "lower", 0.10},
}

// watched are end-to-end quantities the untraced run prints but nothing
// gates on: between identical runs on this host their quartiles lie a
// quarter or more of the median apart, wider than any bound could be. The
// traced run reports them too, as per-layer metrics with an e2e. prefix
// (all but reopen_s: pax.open_s times the recovery of one shard-sized pool).
var watched = []metricDef{
	{Name: "reopen_s", Unit: "s"},
	{Name: "get_per_sec", Unit: "1/s"},
	{Name: "get_p50_us", Unit: "us"},
	{Name: "put_ack_p99_us", Unit: "us"},
	{Name: "get_p99_us", Unit: "us"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload reports. Its JSON form is the last
// line of the run's standard output.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// extra are lines printed for the reader but not gated: sample counts,
	// the failure ratio and the lost-write count behind Correct.
	extra []line
	// findings are remarks on the measurement itself, printed, never fatal.
	findings []string
}

type line struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			o.Metrics[name] = value{v, d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// runOpts are the knobs of one run. Only the seed and the duration come from
// the command line; tests shrink the rest.
type runOpts struct {
	seed    int64
	seconds float64
	// warm is how long each phase runs before its window opens.
	warm time.Duration
	// setups is how many times the stack is set up, and reopens how many
	// times it is crashed and reopened; setup_s and reopen_s are the medians.
	setups, reopens int
	// poolOps is the op count of the pool level; isoScale divides the
	// iteration counts of the iso loops.
	poolOps  int
	isoScale int
	// pool is how every pool is created; tests make it smaller.
	pool pax.Options
	// mangle damages GET bodies (tests only); afterReopen runs on the
	// reopened engine before the durability check (tests only).
	mangle      func([]byte)
	afterReopen func(*server.ShardedEngine)
}

func defaultOpts(seed int64, seconds float64) runOpts {
	return runOpts{
		seed: seed, seconds: seconds, warm: 1500 * time.Millisecond, setups: 3, reopens: 5,
		poolOps: 20000, isoScale: 1, pool: poolOptions(),
	}
}

// secondaryShare is how long a secondary phase runs, as a share of the
// primary's warm-up and measured time.
const secondaryShare = 0.25

// planned is one phase with its times.
type planned struct {
	st        stream
	warm, dur time.Duration
}

// plan lays out w's phases at scale times their full length: the primary
// warms up for o.warm and is measured for o.seconds, the secondary for a
// quarter of each.
func (o runOpts) plan(w workload, scale float64, primaryOnly bool) []planned {
	var out []planned
	for i, st := range w.streams() {
		share := scale
		if i > 0 {
			if primaryOnly {
				break
			}
			share *= secondaryShare
		}
		out = append(out, planned{
			st:   st,
			warm: time.Duration(float64(o.warm) * share),
			dur:  time.Duration(o.seconds * float64(time.Second) * share),
		})
	}
	return out
}

// hostUsage is the process's cumulative CPU and allocator use.
type hostUsage struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readHost() hostUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// measured is one phase's results with what the registry and the process
// did over its window.
type measured struct {
	phaseResult
	reg          stats.Summary // registry, window delta
	regEnd       stats.Summary // registry at the window's end (for gauges)
	host0, host1 hostUsage
}

// runPhases measures each planned phase of w in turn at lv, bracketing each
// window with registry and host snapshots. The registry is sampled on the
// engines' writer loops, so that is safe under traffic; a sample costs one
// queued request per shard.
func runPhases(lv level, w workload, vers *versions, plan []planned, o runOpts, tr *levelTrace) ([]measured, error) {
	var out []measured
	for _, p := range plan {
		win := newWindow(time.Now().Add(p.warm), p.dur)
		type done struct {
			res phaseResult
			err error
		}
		ch := make(chan done, 1)
		go func() {
			res, err := runPhase(lv, w, p.st, o.seed, vers, win, tr, o.mangle)
			ch <- done{res, err}
		}()
		var m measured
		time.Sleep(time.Until(win.start))
		before, err := lv.eng.Metrics()
		if err != nil {
			return nil, err
		}
		m.host0 = readHost()
		time.Sleep(time.Until(win.end))
		m.host1 = readHost()
		if m.regEnd, err = lv.eng.Metrics(); err != nil {
			return nil, err
		}
		m.reg = m.regEnd.Diff(before)
		d := <-ch
		if d.err != nil {
			return nil, d.err
		}
		m.phaseResult = d.res
		out = append(out, m)
	}
	return out, nil
}

// sides picks, from a workload's measured phases, the one that holds its
// PUTs and the one that holds its GETs (the same phase on mixed_rw).
func sides(ms []measured) (put, get *measured) {
	for i := range ms {
		if put == nil && ms[i].put.ops() > 0 {
			put = &ms[i]
		}
		if get == nil && ms[i].get.ops() > 0 {
			get = &ms[i]
		}
	}
	return put, get
}

// quantile returns the q-quantile (nearest rank) of sorted, in the unit of
// its elements.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(rank, 0), len(sorted)-1)])
}

// sideStats are one op kind's figures for a window: the median over the
// window's slices of each slice's rate and latency quantiles.
type sideStats struct {
	n        int     // operations completed in the window
	perSec   float64 // operations a second
	p50, p99 float64 // ns
}

func (s *side) stats(wall time.Duration) sideStats {
	var rate, p50, p99 []float64
	per := wall.Seconds() / float64(max(len(s.lat), 1))
	for _, l := range s.lat {
		slices.Sort(l)
		rate = append(rate, float64(len(l))/per)
		p50 = append(p50, quantile(l, 0.50))
		p99 = append(p99, quantile(l, 0.99))
	}
	return sideStats{n: s.ops(), perSec: median(rate), p50: median(p50), p99: median(p99)}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// procStatusMB reads one of the process's memory figures from
// /proc/self/status: VmRSS, the resident set now, or VmHWM, its high-water
// mark.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// residentMB is what the serving stack holds on to once the load is over:
// the resident set after a forced collection has handed every free page
// back. The high-water mark depends on when the collector happened to run
// while a 700 MB stack was being built; this does not.
func residentMB() float64 {
	debug.FreeOSMemory()
	return procStatusMB("VmRSS")
}

// runWorkload is the untraced run: set the stack up (several times over, for
// a steady setup_s), run the workload's phases over TCP, then crash, reopen
// and check every key. It reports the end-to-end metrics.
func runWorkload(w workload, o runOpts) (*outcome, error) {
	out := &outcome{Metrics: map[string]value{}}
	var (
		st     *stack
		vers   *versions
		dir    string
		setups []float64
	)
	defer func() { os.RemoveAll(dir) }()
	for i := 0; i < o.setups; i++ {
		if st != nil {
			// Only the last stack is measured; earlier ones only time set-up.
			if err := st.stopServing(); err != nil {
				return nil, err
			}
			if err := st.eng.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			// Collect the dead stack so the next one is built in its memory:
			// peak_rss_mb then counts one stack, not every set-up.
			st, vers = nil, nil
			runtime.GC()
		}
		var err error
		if dir, err = newPoolDir(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if st, vers, err = setUp(dir, w, o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ms, err := runPhases(level{addr: st.addr, eng: st.eng}, w, vers, o.plan(w, 1, false), o, nil)
	if err != nil {
		return nil, err
	}
	if err := st.stopServing(); err != nil {
		return nil, err
	}
	resident := residentMB()
	eng, reopen, err := st.crashAndReopen(o.reopens)
	if err != nil {
		return nil, fmt.Errorf("reopen after crash: %w", err)
	}
	defer eng.Close()
	if o.afterReopen != nil {
		o.afterReopen(eng)
	}
	lost, err := lostAckedWrites(eng, w, o.seed, vers)
	if err != nil {
		return nil, err
	}

	put, get := sides(ms)
	if put == nil || get == nil {
		return nil, fmt.Errorf("%s: a phase completed no operations", w.name)
	}
	for _, m := range ms {
		out.Attempted += m.attempted
		out.Failed += m.failed
	}
	out.Correct = out.Failed == 0 && lost == 0
	ps, gs := put.put.stats(put.wall), get.get.stats(get.wall)
	out.set(endToEnd, "setup_s", median(setups))
	out.set(endToEnd, "put_per_sec", ps.perSec)
	out.set(endToEnd, "put_ack_p50_us", ps.p50/1e3)
	out.set(endToEnd, "log_bytes_per_user_byte", put.reg["pax_sync_bytes_total"]/float64(put.put.userBytes))
	out.set(endToEnd, "resident_mb", resident)
	watchedValues := map[string]float64{
		"reopen_s":    reopen,
		"get_per_sec": gs.perSec, "get_p50_us": gs.p50 / 1e3,
		"put_ack_p99_us": ps.p99 / 1e3, "get_p99_us": gs.p99 / 1e3,
		"peak_rss_mb": procStatusMB("VmHWM"),
	}
	for _, d := range watched {
		out.extra = append(out.extra, line{d.Name, watchedValues[d.Name], d.Unit})
	}
	out.extra = append(out.extra, []line{
		{"n_put", float64(ps.n), "count"},
		{"n_get", float64(gs.n), "count"},
		{"failed_op_ratio", float64(out.Failed) / float64(max(out.Attempted, 1)), "ratio"},
		{"lost_acked_writes", float64(lost), "count"},
	}...)
	return out, nil
}
