package stats

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// This file is the repo's one histogram. It is recorded from many goroutines
// on hot paths — every GET, every group commit — so it is lock-free end to
// end: an Observe is a handful of atomic adds, and a Snapshot reads the
// buckets without stopping writers. The simulator's per-op latency table
// records into it too.

// Log-linear bucket geometry: values below latPrecise get an exact bucket;
// above that, each power of two is split into latSubCount linear sub-buckets,
// so the relative bucket width is at most 1/latSubCount ≈ 3% — about two
// significant digits, enough for latency reporting where the sample noise is
// far wider than the bucket.
const (
	latSubBits   = 5
	latSubCount  = 1 << latSubBits // linear sub-buckets per power of two
	latPrecise   = latSubCount * 2 // values below this are bucketed exactly
	latNumMajors = 64 - (latSubBits + 1)
	latBuckets   = latPrecise + latNumMajors*latSubCount
)

// latBucket maps a non-negative sample to its bucket index.
func latBucket(v uint64) int {
	if v < latPrecise {
		return int(v)
	}
	b := bits.Len64(v)               // ≥ latSubBits+2
	top := v >> uint(b-latSubBits-1) // top latSubBits+1 bits, in [latSubCount, 2*latSubCount)
	return latPrecise + (b-latSubBits-2)*latSubCount + int(top) - latSubCount
}

// latUpper is the largest sample that maps to bucket idx — the value a
// quantile estimate reports for it (the bucket's upper bound).
func latUpper(idx int) int64 {
	if idx < latPrecise {
		return int64(idx)
	}
	major := (idx - latPrecise) / latSubCount
	top := uint64(latSubCount + (idx-latPrecise)%latSubCount)
	return int64((top+1)<<uint(major+1) - 1)
}

// latLower is the smallest sample that maps to bucket idx.
func latLower(idx int) int64 {
	if idx < latPrecise {
		return int64(idx)
	}
	major := (idx - latPrecise) / latSubCount
	top := uint64(latSubCount + (idx-latPrecise)%latSubCount)
	return int64(top << uint(major+1))
}

// LatencyHistogram is a lock-free log-linear histogram of non-negative int64
// samples (nanosecond latencies by convention). The zero value is ready to
// use; all methods are safe for concurrent use. Negative samples are clamped
// to zero: on live serving paths a latency can come out of a clock that
// stepped, and panicking a writer loop over a telemetry sample would invert
// the priority of the two.
type LatencyHistogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [latBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *LatencyHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[latBucket(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Since records the nanoseconds elapsed since t0 — the idiomatic hot-path
// call: defer-free, one time.Since.
func (h *LatencyHistogram) Since(t0 time.Time) {
	h.Observe(time.Since(t0).Nanoseconds())
}

// Count reports the number of samples recorded.
func (h *LatencyHistogram) Count() uint64 { return h.count.Load() }

// Sum reports the sample total.
func (h *LatencyHistogram) Sum() int64 { return h.sum.Load() }

// Mean reports the average sample, 0 when empty.
func (h *LatencyHistogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket holding it — within one bucket width (≈3%) of the true value. It
// scans the buckets once; concurrent Observes may or may not be included.
func (h *LatencyHistogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

// LatencySnapshot is a point-in-time copy of a LatencyHistogram, from which
// any number of quantiles can be computed consistently (all against the same
// bucket counts).
type LatencySnapshot struct {
	Count uint64
	Sum   int64
	// Min and Max are bucket-resolution bounds on the smallest and largest
	// samples (lower bound of the first occupied bucket, upper bound of the
	// last), 0 when empty.
	Min, Max int64

	buckets [latBuckets]uint64
}

// Snapshot copies the bucket counts. The copy is not atomic with respect to
// concurrent Observes — a sample landing mid-scan may be missed — but every
// quantile computed from one snapshot answers against the same counts, and
// Count is the copied total, so the snapshot is internally consistent.
func (h *LatencyHistogram) Snapshot() LatencySnapshot {
	var s LatencySnapshot
	first, last := -1, -1
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.buckets[i] = n
		s.Count += n
		if first < 0 {
			first = i
		}
		last = i
	}
	s.Sum = h.sum.Load()
	if first >= 0 {
		s.Min = latLower(first)
		s.Max = latUpper(last)
	}
	return s
}

// Quantile estimates the q-quantile from the snapshot's buckets (upper-bound
// convention, clamped to the snapshot's Max).
func (s *LatencySnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := uint64(q * float64(s.Count))
	var cum uint64
	for i, n := range s.buckets {
		cum += n
		if cum > target {
			v := latUpper(i)
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Sub returns the samples recorded between prev and s: the bucket-wise
// difference of two snapshots of the same histogram, with s the newer one —
// a windowed view over a cumulative histogram, from which windowed quantiles
// answer. Buckets that appear to shrink (prev taken mid-Observe) clamp to
// zero rather than going negative.
func (s *LatencySnapshot) Sub(prev *LatencySnapshot) LatencySnapshot {
	var d LatencySnapshot
	first, last := -1, -1
	for i := range s.buckets {
		if s.buckets[i] <= prev.buckets[i] {
			continue
		}
		n := s.buckets[i] - prev.buckets[i]
		d.buckets[i] = n
		d.Count += n
		if first < 0 {
			first = i
		}
		last = i
	}
	if d.Sum = s.Sum - prev.Sum; d.Sum < 0 {
		d.Sum = 0
	}
	if first >= 0 {
		d.Min = latLower(first)
		d.Max = latUpper(last)
	}
	return d
}

// Mean reports the snapshot's average sample, 0 when empty.
func (s *LatencySnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Reset zeroes the histogram. Concurrent Observes may survive a reset
// partially (count without bucket, or vice versa); reset between runs, not
// under load.
func (h *LatencyHistogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// String summarizes the histogram.
func (h *LatencyHistogram) String() string {
	s := h.Snapshot()
	return fmt.Sprintf("n=%d mean=%.1f min=%d p50=%d p99=%d max=%d",
		s.Count, s.Mean(), s.Min, s.Quantile(0.5), s.Quantile(0.99), s.Max)
}

// histogramQuantiles are the quantile views RegisterLatencyHistogram exposes.
var histogramQuantiles = []struct {
	Label string
	Q     float64
}{
	{"p50", 0.5},
	{"p90", 0.9},
	{"p99", 0.99},
	{"p999", 0.999},
}

// RegisterLatencyHistogram registers h's quantile, count, and sum views:
//
//	name{q="p50"} … name{q="p999"}   quantile estimates
//	name_count                       samples recorded
//	name_sum                         sample total
//
// The label syntax rides inside the metric name, so the registry's plain
// `name value` text format — and every consumer that splits on whitespace —
// is unchanged. Aggregators must not sum quantile lines across sources (the
// sharded router takes the max, the worst tail; counts and sums add).
func (r *Registry) RegisterLatencyHistogram(name string, h *LatencyHistogram) {
	for _, hq := range histogramQuantiles {
		q := hq.Q
		r.Register(fmt.Sprintf("%s{q=%q}", name, hq.Label),
			func() float64 { return float64(h.Quantile(q)) })
	}
	r.Register(name+"_count", func() float64 { return float64(h.Count()) })
	r.Register(name+"_sum", func() float64 { return float64(h.Sum()) })
}
