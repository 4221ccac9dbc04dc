// Package stats provides the counters, histograms, and rate trackers shared
// by the simulator components and the benchmark harness.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load reports the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// StoreMax raises the counter to n if n is larger, atomically — for
// gauge-style high-water marks sampled concurrently with updates (a
// Reset+Add pair would expose a transient 0 to readers).
func (c *Counter) StoreMax(n uint64) {
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Ratio is a hit/miss style two-way counter.
type Ratio struct {
	Hits, Misses Counter
}

// Total reports hits+misses.
func (r *Ratio) Total() uint64 { return r.Hits.Load() + r.Misses.Load() }

// HitRate reports hits / (hits+misses); zero total reports 0.
func (r *Ratio) HitRate() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return float64(r.Hits.Load()) / float64(t)
}

// MissRate reports 1 - HitRate for a non-empty ratio, else 0.
func (r *Ratio) MissRate() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return float64(r.Misses.Load()) / float64(t)
}

// Reset zeroes both sides.
func (r *Ratio) Reset() { r.Hits.Reset(); r.Misses.Reset() }

// Table accumulates named numeric results and renders them as an aligned
// text table — the benchmark harness uses it to print paper-style rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row of formatted values: each argument is rendered with
// %v for strings and %.4g for floats.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		widths[i] = len(hd)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first).
// Cells containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Summary holds a set of named scalar metrics collected from one experiment
// run, rendered deterministically (sorted by key).
type Summary map[string]float64

// Diff returns the per-key difference s - prev for counter-like series: the
// windowed delta a rate computation or telemetry snapshot wants. Keys missing
// from prev count as zero (a counter that appeared mid-window), and keys that
// vanished from s are dropped (the series' owner is gone — a retired shard's
// gauge has no meaningful delta). Quantile series — keys carrying a `{q="..."}`
// label — are skipped entirely: a histogram quantile is a distribution
// statistic, not a cumulative counter, and subtracting two of them yields
// nothing meaningful (window a histogram via LatencySnapshot.Sub instead).
func (s Summary) Diff(prev Summary) Summary {
	out := make(Summary, len(s))
	for k, v := range s {
		if strings.Contains(k, `{q="`) || strings.Contains(k, `,q="`) {
			continue
		}
		out[k] = v - prev[k]
	}
	return out
}

// Rate divides every entry by the window length in seconds, turning a Diff
// result into per-second rates. A non-positive window returns an empty
// summary rather than infinities.
func (s Summary) Rate(window time.Duration) Summary {
	if window <= 0 {
		return Summary{}
	}
	secs := window.Seconds()
	out := make(Summary, len(s))
	for k, v := range s {
		out[k] = v / secs
	}
	return out
}

// String renders the summary sorted by key.
func (s Summary) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%.4g ", k, s[k])
	}
	return strings.TrimSpace(b.String())
}
