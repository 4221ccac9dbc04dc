package cxl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"pax/internal/sim"
)

func TestOpcodeDirections(t *testing.T) {
	h2d := []Opcode{RdShared, RdOwn, ItoMWr, CleanEvict, DirtyEvict, RspData, RspMiss}
	d2h := []Opcode{SnpData, SnpInv, GO}
	for _, o := range h2d {
		if !o.IsH2D() || o.IsD2H() {
			t.Errorf("%v direction wrong", o)
		}
	}
	for _, o := range d2h {
		if !o.IsD2H() || o.IsH2D() {
			t.Errorf("%v direction wrong", o)
		}
	}
	if OpInvalid.IsH2D() || OpInvalid.IsD2H() {
		t.Error("OpInvalid has a direction")
	}
}

func TestOpcodePayloads(t *testing.T) {
	withData := []Opcode{DirtyEvict, RspData, GO}
	for _, o := range withData {
		if !o.CarriesData() {
			t.Errorf("%v must carry data", o)
		}
	}
	for _, o := range []Opcode{RdShared, RdOwn, ItoMWr, CleanEvict, SnpData, SnpInv, RspMiss} {
		if o.CarriesData() {
			t.Errorf("%v must not carry data", o)
		}
	}
}

func TestMessageValidateAndWireBytes(t *testing.T) {
	ok := Message{Op: RdOwn, Addr: 128}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.WireBytes() != HeaderBytes {
		t.Fatalf("WireBytes = %d", ok.WireBytes())
	}
	data := Message{Op: DirtyEvict, Addr: 64}
	if err := data.Validate(); err != nil {
		t.Fatal(err)
	}
	if data.WireBytes() != HeaderBytes+DataBytes {
		t.Fatalf("WireBytes = %d", data.WireBytes())
	}
	bad := []Message{
		{Op: RdOwn, Addr: 3},     // misaligned
		{Op: OpInvalid, Addr: 0}, // no direction
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("message %v validated", m)
		}
	}
	if !strings.Contains(data.String(), "DirtyEvict") {
		t.Fatalf("String() = %q", data.String())
	}
}

func TestLinkLatencyAndSerialization(t *testing.T) {
	l := NewLink(sim.CXLLink)
	m := Message{Op: RdOwn, Addr: 0}
	arrive := l.ToDevice(m, 0)
	// Header transfer at 63 GB/s is sub-ns; latency dominates.
	if arrive < sim.CXLLink.Latency || arrive > sim.CXLLink.Latency+sim.NS(2) {
		t.Fatalf("arrival %v, want ~%v", arrive, sim.CXLLink.Latency)
	}
	if l.H2DBandwidth().Transfers() != 1 || l.D2HBandwidth().Transfers() != 0 {
		t.Fatal("transfer counters wrong")
	}
	resp := Message{Op: GO, Addr: 0}
	back := l.ToHost(resp, arrive)
	if back <= arrive {
		t.Fatal("response arrived before request")
	}
	if l.H2DBandwidth().Transfers() != 1 || l.D2HBandwidth().Transfers() != 1 {
		t.Fatal("D2H message counted as H2D")
	}
}

func TestLinkPipelineBottleneck(t *testing.T) {
	l := NewLink(sim.EnzianLink)
	// Saturate the 300 MHz pipeline: messages arriving faster than one per
	// cycle must queue.
	var last sim.Time
	for i := 0; i < 1000; i++ {
		last = l.DeviceProcess(0)
	}
	cycle := sim.Time(float64(sim.Second) / sim.EnzianLink.DeviceHz)
	wantMin := 999 * cycle
	if last < wantMin {
		t.Fatalf("1000 msgs done at %v, want ≥ %v", last, wantMin)
	}
	if l.PipelineServed() != 1000 {
		t.Fatalf("pipeline served %d", l.PipelineServed())
	}
	// An ASIC-class CXL pipeline must be much faster.
	fast := NewLink(sim.CXLLink)
	var fastLast sim.Time
	for i := 0; i < 1000; i++ {
		fastLast = fast.DeviceProcess(0)
	}
	if fastLast >= last {
		t.Fatal("CXL pipeline not faster than Enzian pipeline")
	}
}

// TestRequestResponseRoundTrip drives a host request the way the device
// serves one — to the device, through its pipeline, GO back to the host —
// and checks that ResetStats clears both channels and the pipeline.
func TestRequestResponseRoundTrip(t *testing.T) {
	l := NewLink(sim.CXLLink)
	arrive := l.ToDevice(Message{Op: RdOwn, Addr: 0}, 0)
	done := l.ToHost(Message{Op: GO, Addr: 0}, l.DeviceProcess(arrive))
	if done < sim.CXLLink.RoundTrip() {
		t.Fatalf("round trip %v < link RTT %v", done, sim.CXLLink.RoundTrip())
	}
	l.ResetStats()
	if l.H2DBandwidth().Transfers() != 0 || l.D2HBandwidth().Transfers() != 0 || l.PipelineServed() != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestAdapterTranslations(t *testing.T) {
	var a Adapter
	cases := []struct {
		in   NativeOp
		want Opcode
		data bool
	}{
		{NativeLoadShared, RdShared, false},
		{NativeLoadExclusive, RdOwn, false},
		{NativeUpgrade, ItoMWr, false},
		{NativeVictimClean, CleanEvict, false},
		{NativeVictimDirty, DirtyEvict, true},
		{NativeSnoopShared, SnpData, false},
		{NativeSnoopInvalidate, SnpInv, false},
	}
	for _, c := range cases {
		n := NativeMessage{Op: c.in, Addr: 192}
		if c.data {
			n.Data = make([]byte, 64)
		}
		m, err := a.Translate(n)
		if err != nil {
			t.Fatalf("%v: %v", c.in, err)
		}
		if m.Op != c.want {
			t.Errorf("%v → %v, want %v", c.in, m.Op, c.want)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%v: translated message invalid: %v", c.in, err)
		}
	}
	if a.Translated != uint64(len(cases)) {
		t.Fatalf("translated = %d", a.Translated)
	}
}

func TestAdapterFiltersMicroarchMessages(t *testing.T) {
	var a Adapter
	for _, op := range []NativeOp{NativePrefetchHint, NativeBarrier} {
		_, err := a.Translate(NativeMessage{Op: op, Addr: 0})
		if !errors.Is(err, ErrFiltered) {
			t.Errorf("%v: err = %v, want ErrFiltered", op, err)
		}
	}
	if a.Filtered != 2 {
		t.Fatalf("filtered = %d", a.Filtered)
	}
}

func TestAdapterRejectsMalformed(t *testing.T) {
	var a Adapter
	if _, err := a.Translate(NativeMessage{Op: NativeLoadShared, Addr: 7}); err == nil {
		t.Error("misaligned address accepted")
	}
	if _, err := a.Translate(NativeMessage{Op: NativeVictimDirty, Addr: 0, Data: make([]byte, 8)}); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := a.Translate(NativeMessage{Op: NativeOp(99), Addr: 0}); err == nil {
		t.Error("unknown op accepted")
	}
	// Stray payloads on non-data messages are dropped, not rejected.
	m, err := a.Translate(NativeMessage{Op: NativeLoadShared, Addr: 0, Data: make([]byte, 64)})
	if err != nil || m != (Message{Op: RdShared, Addr: 0}) {
		t.Errorf("stray payload rejected: %v %v", m, err)
	}
}

func TestAdapterBatch(t *testing.T) {
	var a Adapter
	msgs := []NativeMessage{
		{Op: NativeLoadShared, Addr: 0},
		{Op: NativePrefetchHint, Addr: 64}, // filtered
		{Op: NativeUpgrade, Addr: 128},
	}
	out, err := a.TranslateBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Op != RdShared || out[1].Op != ItoMWr {
		t.Fatalf("batch = %v", out)
	}
	// A malformed message stops the batch with an error.
	msgs = append(msgs, NativeMessage{Op: NativeLoadShared, Addr: 5})
	if _, err := a.TranslateBatch(msgs); err == nil {
		t.Fatal("malformed message accepted in batch")
	}
}

// Property: every translated message validates, and translation never
// produces a D2H opcode from a host-originated native request.
func TestAdapterProperty(t *testing.T) {
	hostOps := []NativeOp{NativeLoadShared, NativeLoadExclusive, NativeUpgrade, NativeVictimClean, NativeVictimDirty}
	f := func(opIdx uint8, lineIdx uint16) bool {
		var a Adapter
		op := hostOps[int(opIdx)%len(hostOps)]
		n := NativeMessage{Op: op, Addr: uint64(lineIdx) * 64}
		if op == NativeVictimDirty {
			n.Data = make([]byte, 64)
		}
		m, err := a.Translate(n)
		if err != nil {
			return false
		}
		return m.Validate() == nil && m.Op.IsH2D()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
