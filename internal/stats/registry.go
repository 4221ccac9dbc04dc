package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry aggregates named metrics from many components into one sampled
// view. Components register gauge functions (sampled at read time), counters,
// or ratios under stable snake_case names; consumers take a Snapshot or
// render the whole registry as text with WriteTo. Registration and sampling
// are safe for concurrent use, and a sample is safe at any time, including
// after the component behind it is closed, so long as every gauge function
// reads an atomic or a mutex-guarded value (counters, ratios and latency
// histograms do) — never a writer's plain fields or a closed resource.
type Registry struct {
	mu     sync.Mutex
	gauges map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[string]func() float64)}
}

// Register adds a gauge sampled by fn. Names must be non-empty, contain no
// whitespace (they become `name value` text lines), and be unique; violations
// panic — metric names are compile-time decisions, not runtime input.
func (r *Registry) Register(name string, fn func() float64) {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		panic(fmt.Sprintf("stats: invalid metric name %q", name))
	}
	if fn == nil {
		panic(fmt.Sprintf("stats: nil gauge func for %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.gauges[name]; dup {
		panic(fmt.Sprintf("stats: duplicate metric name %q", name))
	}
	r.gauges[name] = fn
}

// RegisterCounter registers c's live value under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.Register(name, func() float64 { return float64(c.Load()) })
}

// Snapshot samples every gauge into a Summary.
func (r *Registry) Snapshot() Summary {
	r.mu.Lock()
	fns := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		fns[k] = v
	}
	r.mu.Unlock()
	s := make(Summary, len(fns))
	for k, fn := range fns {
		s[k] = fn()
	}
	return s
}

// WriteTo renders the registry as Prometheus-style `name value` lines,
// sorted by name, one metric per line. Integral values print without a
// decimal point. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	return r.Snapshot().WriteTo(w)
}

// WriteTo renders the summary as Prometheus-style `name value` lines, sorted
// by name — the same text format Registry.WriteTo emits, available for
// summaries assembled away from a live registry (e.g. merged multi-shard
// snapshots). It implements io.WriterTo.
func (s Summary) WriteTo(w io.Writer) (int64, error) {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	var n int64
	for _, name := range names {
		v := s[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A gauge dividing by a zero denominator yields NaN/±Inf, which
			// the plain `name value` consumers (strconv.ParseFloat callers,
			// the bench JSON) choke on — clamp to 0 rather than emit an
			// unparseable (or platform-defined, via the int64 conversion
			// below) line.
			v = 0
		}
		var line string
		if v == float64(int64(v)) {
			line = fmt.Sprintf("%s %d\n", name, int64(v))
		} else {
			line = fmt.Sprintf("%s %g\n", name, v)
		}
		m, err := io.WriteString(w, line)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
