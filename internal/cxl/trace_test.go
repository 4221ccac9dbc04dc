package cxl

import (
	"strings"
	"testing"

	"pax/internal/sim"
)

func TestTracerRecordsBothDirections(t *testing.T) {
	l := NewLink(sim.CXLLink)
	tr := NewTracer(16)
	l.AttachTracer(tr)

	l.ToDevice(Message{Op: RdOwn, Addr: 64}, sim.NS(10))
	l.ToHost(Message{Op: GO, Addr: 64}, sim.NS(20))

	evs := tr.Events()
	if len(evs) != 2 || tr.Total() != 2 {
		t.Fatalf("events %d total %d", len(evs), tr.Total())
	}
	if evs[0].Dir != H2D || evs[0].Msg.Op != RdOwn || evs[0].Seq != 0 {
		t.Fatalf("first event %+v", evs[0])
	}
	if evs[1].Dir != D2H || evs[1].Msg.Op != GO {
		t.Fatalf("second event %+v", evs[1])
	}
	if l.Tracer() != tr {
		t.Fatal("Tracer accessor wrong")
	}
}

func TestTracerRingWraps(t *testing.T) {
	l := NewLink(sim.CXLLink)
	tr := NewTracer(4)
	l.AttachTracer(tr)
	for i := 0; i < 10; i++ {
		l.ToDevice(Message{Op: RdShared, Addr: uint64(i) * 64}, 0)
	}
	evs := tr.Events()
	if len(evs) != 4 || tr.Total() != 10 {
		t.Fatalf("retained %d, total %d", len(evs), tr.Total())
	}
	// Oldest-first: sequences 6,7,8,9.
	for i, e := range evs {
		if e.Seq != int64(6+i) {
			t.Fatalf("event %d seq %d", i, e.Seq)
		}
	}
}

func TestTracerDumpAndCounts(t *testing.T) {
	l := NewLink(sim.CXLLink)
	tr := NewTracer(8)
	l.AttachTracer(tr)
	l.ToDevice(Message{Op: RdOwn, Addr: 0}, 0)
	l.ToDevice(Message{Op: ItoMWr, Addr: 64}, 0)
	l.ToDevice(Message{Op: ItoMWr, Addr: 128}, 0)

	counts := tr.CountByOp()
	if counts[RdOwn] != 1 || counts[ItoMWr] != 2 {
		t.Fatalf("counts %v", counts)
	}
	dump := tr.Dump()
	if !strings.Contains(dump, "ItoMWr") || !strings.Contains(dump, "#0") {
		t.Fatalf("dump:\n%s", dump)
	}
	if strings.Count(dump, "\n") != 3 {
		t.Fatalf("dump lines:\n%s", dump)
	}
}

func TestTracerDetach(t *testing.T) {
	l := NewLink(sim.CXLLink)
	tr := NewTracer(4)
	l.AttachTracer(tr)
	l.ToDevice(Message{Op: RdShared, Addr: 0}, 0)
	l.AttachTracer(nil)
	l.ToDevice(Message{Op: RdShared, Addr: 64}, 0)
	if tr.Total() != 1 {
		t.Fatalf("detached tracer recorded %d", tr.Total())
	}
}

func TestTracerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracer(0)
}
