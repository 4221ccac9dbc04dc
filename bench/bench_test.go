package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"

	"pax/internal/server"
)

// testOpts shrinks a run to a few hundred milliseconds: short phases, one
// set-up, small pools (creating a 64 MiB pool costs more than the rest of a
// test run put together).
func testOpts(seed int64) runOpts {
	o := defaultOpts(seed, 0.3)
	o.warm, o.setups, o.reopens, o.poolOps, o.isoScale = 100*time.Millisecond, 1, 1, 600, 200
	o.pool.DataSize = 8 << 20
	return o
}

func small(w workload) workload {
	w.keys = 500
	return w
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is what the driver reads and the tables in this package are
// what the program prints; they must say the same thing.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", b.PerLayer, perLayer)
	}
	ws := workloads(connections())
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q %q", i, b.Workloads[i], w.name, w.why)
		}
		seen[w.name] = true
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool {
		return d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}) {
		t.Error("no setup_s metric in seconds")
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	slices.Sort(out)
	return out
}

func emitted(out *outcome) []string {
	var names []string
	for name := range out.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Every workload emits exactly the declared end-to-end metrics, none of
// them zero, and checks out as correct. Two of the runs double as the proof
// that the checks can fail: put_sync1 has an acked key deleted behind its
// back after the reopen, get_hot has one GET body damaged in flight.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads(connections()) {
		t.Run(w.name, func(t *testing.T) {
			o := testOpts(1)
			switch w.name {
			case "put_sync1":
				o.afterReopen = func(eng *server.ShardedEngine) {
					if _, _, err := eng.Delete(keyBytes(7)); err != nil {
						t.Error(err)
					}
				}
			case "get_hot":
				var once sync.Once // the GET lanes check bodies concurrently
				o.mangle = func(body []byte) {
					once.Do(func() { body[len(body)-1] ^= 1 })
				}
			}
			out, err := runWorkload(small(w), o)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := emitted(out), metricNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			for name, v := range out.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v", name, v.Value)
				}
			}
			extra := map[string]float64{}
			for _, l := range out.extra {
				extra[l.name] = l.value
			}
			switch w.name {
			case "put_sync1":
				if out.Correct || extra["lost_acked_writes"] < 1 {
					t.Errorf("a deleted acked key went unnoticed: correct=%v lost=%v", out.Correct, extra["lost_acked_writes"])
				}
			case "get_hot":
				if out.Correct || out.Failed != 1 || extra["failed_op_ratio"] <= 0 {
					t.Errorf("a damaged GET body went unnoticed: correct=%v failed=%d", out.Correct, out.Failed)
				}
			default:
				if !out.Correct || out.Failed != 0 || extra["lost_acked_writes"] != 0 {
					t.Errorf("correct=%v failed=%d lost=%v", out.Correct, out.Failed, extra["lost_acked_writes"])
				}
			}
		})
	}
}

// The traced run emits exactly the declared per-layer metrics and writes the
// span file, with spans at every level of the peel.
func TestTracedRunEmitsDeclaredMetrics(t *testing.T) {
	w, _ := findWorkload("mixed_rw")
	dir := t.TempDir()
	out, err := runTraced(small(w), testOpts(1), dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emitted(out), metricNames(perLayer); !slices.Equal(got, want) {
		t.Errorf("metrics %v, want %v", got, want)
	}
	if !out.Correct || out.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace_mixed_rw.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"tcp", "backend", "pool", "iso"} {
		if len(tf.Levels[level].Spans) == 0 {
			t.Errorf("no spans at the %s level", level)
		}
	}
	if s := tf.Levels["tcp"].Summary["tcp.put"]; s.Count == 0 || s.SelfNS > s.TotalNS {
		t.Errorf("tcp.put summary %+v", s)
	}
}

// The pool level is deterministic: one seed, one set of simulated counts.
func TestPoolLevelRepeatsExactly(t *testing.T) {
	w, _ := findWorkload("put_batch")
	run := func(seed int64) map[string]float64 {
		r, err := poolLevel(filepath.Join(t.TempDir(), "one.pool"), small(w), testOpts(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Errorf("%d pool-level reads failed", r.failed)
		}
		sim := map[string]float64{}
		r.metrics(func(name string, v float64) {
			if regexp.MustCompile(`^sim\.`).MatchString(name) && name != "sim.host_ns_per_event" {
				sim[name] = v
			}
		})
		return sim
	}
	a, b, c := run(3), run(3), run(4)
	if len(a) < 7 || !maps.Equal(a, b) {
		t.Errorf("same seed, different simulated counts:\n%v\n%v", a, b)
	}
	if maps.Equal(a, c) {
		t.Errorf("seeds 3 and 4 gave the same simulated counts: %v", a)
	}
}

// opStreamHash digests the first n operations every generator of w's phases
// would issue for seed: the identity of the generated input.
func opStreamHash(w workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	emit := func(stream string, conns int, write bool) {
		for c := 0; c < conns; c++ {
			owners := 1
			if write {
				owners = conns
			}
			p := newKeyPicker(w, seed, stream, c, owners)
			for k := 0; k < n; k++ {
				binary.LittleEndian.PutUint64(b[:], uint64(p.next()))
				h.Write(b[:])
			}
		}
	}
	for _, s := range w.streams() {
		fmt.Fprintf(h, "%s:", s.name)
		emit(s.name+"/put", s.ph.putConns, true)
		emit(s.name+"/get", s.ph.getConns, false)
	}
	return h.Sum64()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	seen := map[uint64]string{}
	for _, w := range workloads(connections()) {
		h := opStreamHash(w, 1, 1000)
		if h != opStreamHash(w, 1, 1000) {
			t.Errorf("%s: same seed, different op stream", w.name)
		}
		if h == opStreamHash(w, 2, 1000) {
			t.Errorf("%s: seeds 1 and 2 give the same op stream", w.name)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%s and %s share an op stream", prev, w.name)
		}
		seen[h] = w.name
	}
}

func TestValuesDescribeThemselves(t *testing.T) {
	buf := make([]byte, 131) // not a multiple of 8: the fill has a tail
	makeValue(buf, 5, 42, 9)
	if ver, ok := checkValue(buf, 5, 42, len(buf)); !ok || ver != 9 {
		t.Fatalf("intact value rejected: ver=%d ok=%v", ver, ok)
	}
	if _, ok := checkValue(buf, 5, 43, len(buf)); ok {
		t.Error("value accepted for the wrong key")
	}
	if _, ok := checkValue(buf, 6, 42, len(buf)); ok {
		t.Error("value accepted for the wrong seed")
	}
	for _, i := range []int{0, 8, 16, 64, len(buf) - 1} {
		buf[i] ^= 0x40
		if _, ok := checkValue(buf, 5, 42, len(buf)); ok {
			t.Errorf("byte %d damaged, value still accepted", i)
		}
		buf[i] ^= 0x40
	}
}

func TestWriterLanesOwnDisjointKeys(t *testing.T) {
	w, _ := findWorkload("mixed_rw")
	w.keys = 501
	owner := map[int]int{}
	for g := 0; g < 3; g++ {
		p := newKeyPicker(w, 1, "t", g, 3)
		for i := 0; i < 5000; i++ {
			k := p.next()
			if k < 0 || k >= w.keys {
				t.Fatalf("key %d out of range", k)
			}
			if o, ok := owner[k]; ok && o != g {
				t.Fatalf("key %d drawn by lanes %d and %d", k, o, g)
			}
			owner[k] = g
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 3, 2, 5, 4, 7, 6, 9, 8}
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		d         metricDef
		base, cur []float64
		want      string
	}{
		{lower, []float64{100, 101, 102}, []float64{103, 104, 102}, "ok"},
		{lower, []float64{100, 101, 102}, []float64{110, 111, 109}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{110, 111, 109}, "ok"},
		{higher, []float64{100, 101, 102}, []float64{90, 91, 89}, "worse"},
		{lower, []float64{80, 100, 120}, []float64{85, 104, 126}, "unresolved"},
		{lower, []float64{80, 100, 120}, []float64{60, 70, 79}, "ok"},
		{lower, []float64{80, 100, 120}, []float64{130, 160, 190}, "worse"},
		{lower, []float64{100}, nil, "missing"},
	} {
		if got := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Better, c.base, c.cur, got, c.want)
		}
	}
}
