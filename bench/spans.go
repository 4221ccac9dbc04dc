package main

import (
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer: the
// program itself is not instrumented. They stay in memory until the run
// ends. Each goroutine appends to a buffer of its own, so recording takes no
// lock; a nil buffer (the untraced run) records nothing and reads no clock.

type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"` // name of the enclosing span of the same op
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"` // since the level began
	End    int64  `json:"end_ns"`
}

type spanBuf struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func (b *spanBuf) now() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

// add records a child span that began at start and ends now.
func (b *spanBuf) add(name, parent string, op uint64, start time.Time) {
	if b == nil {
		return
	}
	b.put(span{Name: name, Parent: parent, Op: op, Start: int64(start.Sub(b.epoch)), End: int64(time.Since(b.epoch))})
}

// addRoot records an op's outermost span from times the caller already took.
func (b *spanBuf) addRoot(name string, op uint64, start, end time.Time) {
	if b == nil {
		return
	}
	b.put(span{Name: name, Op: op, Start: int64(start.Sub(b.epoch)), End: int64(end.Sub(b.epoch))})
}

func (b *spanBuf) put(s span) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// levelTrace collects the span buffers of one level of the peel. A nil
// levelTrace hands out nil buffers.
type levelTrace struct {
	epoch time.Time
	// perBuf bounds what one goroutine keeps. A saturated GET lane completes
	// 100k requests a second; the first few thousand are enough to see where
	// a request's time goes, and keep the span file to a few MB. Spans past
	// the bound are counted, not kept.
	perBuf int
	mu     sync.Mutex
	bufs   []*spanBuf
}

func newLevelTrace(perBuf int) *levelTrace {
	return &levelTrace{epoch: time.Now(), perBuf: perBuf}
}

func (t *levelTrace) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch, spans: make([]span, 0, t.perBuf)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// spanSummary is one span name's totals. Self time is a span's duration
// minus the part its children cover.
type spanSummary struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

type levelDump struct {
	Spans   []span                 `json:"spans"`
	Dropped int                    `json:"dropped"`
	Summary map[string]spanSummary `json:"summary"`
}

// dump merges the level's buffers, oldest span first, and totals them.
func (t *levelTrace) dump() levelDump {
	d := levelDump{Spans: []span{}, Summary: map[string]spanSummary{}}
	for _, b := range t.bufs {
		d.Spans = append(d.Spans, b.spans...)
		d.Dropped += b.dropped
	}
	sort.SliceStable(d.Spans, func(i, j int) bool { return d.Spans[i].Start < d.Spans[j].Start })
	type opSpan struct {
		op   uint64
		name string
	}
	covered := map[opSpan]int64{}
	for _, s := range d.Spans {
		if s.Parent != "" {
			covered[opSpan{s.Op, s.Parent}] += s.End - s.Start
		}
	}
	for _, s := range d.Spans {
		sum := d.Summary[s.Name]
		dur := s.End - s.Start
		sum.Count++
		sum.TotalNS += dur
		sum.SelfNS += max(dur-covered[opSpan{s.Op, s.Name}], 0)
		d.Summary[s.Name] = sum
	}
	return d
}
