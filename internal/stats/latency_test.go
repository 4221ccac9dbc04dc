package stats

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestLatencyHistogramBasics(t *testing.T) {
	var h LatencyHistogram // zero value must be ready
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %d, want 5050", h.Sum())
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean = %g, want 50.5", got)
	}
	s := h.Snapshot()
	if s.Min != 1 {
		t.Fatalf("min = %d, want 1", s.Min)
	}
	// 100 falls in the first log-linear bucket [100, 101]; Max is its upper
	// bound.
	if s.Max < 100 || s.Max > 103 {
		t.Fatalf("max = %d, want ≈100", s.Max)
	}
	if p50 := s.Quantile(0.5); p50 < 50 || p50 > 53 {
		t.Fatalf("p50 = %d, want ≈50", p50)
	}
}

func TestLatencyHistogramNegativeClamped(t *testing.T) {
	var h LatencyHistogram
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("count=%d sum=%d after negative sample, want 1, 0", h.Count(), h.Sum())
	}
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("max after clamped negative = %d, want 0", got)
	}
}

func TestLatencyHistogramEmpty(t *testing.T) {
	var h LatencyHistogram
	s := h.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot not all-zero: %+v", s)
	}
}

// TestLatencyHistogramQuantileAccuracy checks the log-linear error bound: the
// quantile estimate must be within one bucket (≤ 1/latSubCount relative, +1
// for the upper-bound convention) of the true order statistic, across six
// decades of magnitude.
func TestLatencyHistogramQuantileAccuracy(t *testing.T) {
	var h LatencyHistogram
	var samples []int64
	v := int64(1)
	for len(samples) < 20000 {
		samples = append(samples, v)
		// Deterministic spread from 1 ns to ~3 ms.
		v = v*21/20 + 1
		if v > 3_000_000 {
			v = 1
		}
		h.Observe(samples[len(samples)-1])
	}
	// Samples were generated in repeating ascending ramps; sort-free exact
	// quantiles need a sorted copy.
	sorted := append([]int64(nil), samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := s.Quantile(q)
		exact := sorted[int(q*float64(len(sorted)))]
		relErr := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if relErr > 1.0/latSubCount+0.001 {
			t.Errorf("q=%g: estimate %d vs exact %d, rel err %.4f > %.4f",
				q, got, exact, relErr, 1.0/latSubCount)
		}
	}
}

// TestLatencyBucketRoundTrip verifies the bucket geometry: every sample maps
// into a bucket whose [lower, upper] range contains it, indices are monotone,
// and the largest int64 stays in range.
func TestLatencyBucketRoundTrip(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 31, 63, 64, 65, 127, 128, 1000, 4096, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := latBucket(v)
		if idx < 0 || idx >= latBuckets {
			t.Fatalf("latBucket(%d) = %d out of range [0, %d)", v, idx, latBuckets)
		}
		if idx < prev {
			t.Fatalf("latBucket not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if lo, hi := latLower(idx), latUpper(idx); int64(v) < lo || int64(v) > hi {
			t.Fatalf("sample %d outside its bucket %d range [%d, %d]", v, idx, lo, hi)
		}
	}
}

// Property: quantile estimates lie within the snapshot's [Min, Max] and are
// monotone in q.
func TestLatencyHistogramQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h LatencyHistogram
		for _, v := range raw {
			h.Observe(int64(v))
		}
		s := h.Snapshot()
		prev := int64(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			est := s.Quantile(q)
			if est < s.Min || est > s.Max || est < prev {
				return false
			}
			prev = est
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyHistogramConcurrent hammers one histogram from many recorders
// while snapshots run — the -race check that the lock-free claim holds, plus
// an exact count/sum check once the dust settles.
func TestLatencyHistogramConcurrent(t *testing.T) {
	var h LatencyHistogram
	const goroutines = 8
	const perG = 5000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader: snapshots must stay internally sane
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count > 0 && (s.Quantile(0.99) < s.Min || s.Quantile(0.99) > s.Max) {
				t.Error("snapshot quantile outside [min, max]")
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
}

func TestRegisterLatencyHistogram(t *testing.T) {
	r := NewRegistry()
	var h LatencyHistogram
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i))
	}
	r.RegisterLatencyHistogram("commit_ns", &h)
	text := render(r)
	for _, want := range []string{
		`commit_ns{q="p50"} `, `commit_ns{q="p90"} `, `commit_ns{q="p99"} `,
		`commit_ns{q="p999"} `, "commit_ns_count 1000\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry text missing %q:\n%s", want, text)
		}
	}
	// Every line must still be the plain two-field `name value` format.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if got := len(strings.Fields(line)); got != 2 {
			t.Errorf("line %q has %d fields, want 2", line, got)
		}
	}
}

func TestSummaryWriteToClampsNaNInf(t *testing.T) {
	s := Summary{
		"ok":       3,
		"bad_nan":  math.NaN(),
		"bad_pinf": math.Inf(1),
		"bad_ninf": math.Inf(-1),
	}
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{"bad_nan 0\n", "bad_pinf 0\n", "bad_ninf 0\n", "ok 3\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	for i, line := range strings.Split(strings.TrimSpace(text), "\n") {
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err != nil {
			t.Errorf("line %d %q does not parse as `name value`: %v", i, line, err)
		}
	}
}
