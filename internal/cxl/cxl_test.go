package cxl

import (
	"testing"

	"pax/internal/sim"
)

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

func TestMessageWireBytes(t *testing.T) {
	ok := Message{Op: RdOwn, Addr: 128}
	if ok.WireBytes() != HeaderBytes {
		t.Fatalf("WireBytes = %d", ok.WireBytes())
	}
	data := Message{Op: DirtyEvict, Addr: 64}
	if data.WireBytes() != HeaderBytes+DataBytes {
		t.Fatalf("WireBytes = %d", data.WireBytes())
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
	if l.H2DBandwidth().Bytes() != HeaderBytes || l.D2HBandwidth().Bytes() != 0 {
		t.Fatal("byte counters wrong")
	}
	resp := Message{Op: GO, Addr: 0}
	back := l.ToHost(resp, arrive)
	if back <= arrive {
		t.Fatal("response arrived before request")
	}
	if l.H2DBandwidth().Bytes() != HeaderBytes || l.D2HBandwidth().Bytes() != HeaderBytes+DataBytes {
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
	if l.H2DBandwidth().Bytes() != 0 || l.D2HBandwidth().Bytes() != 0 || l.PipelineServed() != 0 {
		t.Fatal("ResetStats incomplete")
	}
}
