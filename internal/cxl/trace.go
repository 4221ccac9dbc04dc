package cxl

import (
	"fmt"
	"strings"

	"pax/internal/sim"
)

// Direction labels which way a traced message traveled.
type Direction uint8

// Message directions.
const (
	H2D Direction = iota // host → device
	D2H                  // device → host
)

// String names the direction.
func (d Direction) String() string {
	if d == H2D {
		return "H2D"
	}
	return "D2H"
}

// TraceEvent is one recorded message.
type TraceEvent struct {
	Seq int64 // global sequence number, starts at 0
	Dir Direction
	Msg Message
	At  sim.Time // send time
}

// String renders one event, e.g. "#42 12.5us H2D RdOwn{addr=0x1040}".
func (e TraceEvent) String() string {
	return fmt.Sprintf("#%d %v %v %v", e.Seq, e.At, e.Dir, e.Msg)
}

// Tracer is a bounded ring of recent link messages, attachable to a Link for
// debugging and protocol tests.
type Tracer struct {
	ring  []TraceEvent
	next  int
	total int64
}

// NewTracer builds a tracer retaining the most recent capacity messages.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		panic("cxl: tracer capacity must be positive")
	}
	return &Tracer{ring: make([]TraceEvent, 0, capacity)}
}

func (t *Tracer) record(dir Direction, m Message, at sim.Time) {
	ev := TraceEvent{Seq: t.total, Dir: dir, Msg: m, At: at}
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % cap(t.ring)
}

// Total reports how many messages were ever recorded.
func (t *Tracer) Total() int64 { return t.total }

// Events returns the retained messages, oldest first.
func (t *Tracer) Events() []TraceEvent {
	out := make([]TraceEvent, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Dump renders the retained messages one per line.
func (t *Tracer) Dump() string {
	var b strings.Builder
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CountByOp tallies retained messages per opcode — protocol tests assert on
// these (e.g. "one ItoMWr per first store per epoch").
func (t *Tracer) CountByOp() map[Opcode]int {
	out := make(map[Opcode]int)
	for _, e := range t.Events() {
		out[e.Msg.Op]++
	}
	return out
}

// AttachTracer installs tr on the link; pass nil to detach.
func (l *Link) AttachTracer(tr *Tracer) { l.tracer = tr }

// Tracer returns the attached tracer, if any.
func (l *Link) Tracer() *Tracer { return l.tracer }
