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
	for _, o := range []Opcode{RdShared, RdOwn, ItoMWr, SnpData, RspMiss, CfgWr} {
		if o.CarriesData() {
			t.Errorf("%v must not carry data", o)
		}
	}
}

func TestMessageWireBytes(t *testing.T) {
	if got := RdOwn.WireBytes(); got != HeaderBytes {
		t.Fatalf("RdOwn.WireBytes = %d", got)
	}
	if got := DirtyEvict.WireBytes(); got != HeaderBytes+DataBytes {
		t.Fatalf("DirtyEvict.WireBytes = %d", got)
	}
}

func TestLinkLatencyAndSerialization(t *testing.T) {
	l := NewLink(sim.CXLLink)
	arrive := l.ToDevice(RdOwn, 0)
	// Header transfer at 63 GB/s is sub-ns; latency dominates.
	if arrive < sim.CXLLink.Latency || arrive > sim.CXLLink.Latency+sim.NS(2) {
		t.Fatalf("arrival %v, want ~%v", arrive, sim.CXLLink.Latency)
	}
	if l.H2DBandwidth().Bytes() != HeaderBytes || l.D2HBandwidth().Bytes() != 0 {
		t.Fatal("byte counters wrong")
	}
	back := l.ToHost(GO, arrive)
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
	arrive := l.ToDevice(RdOwn, 0)
	done := l.ToHost(GO, l.DeviceProcess(arrive))
	if done < sim.CXLLink.RoundTrip() {
		t.Fatalf("round trip %v < link RTT %v", done, sim.CXLLink.RoundTrip())
	}
	l.ResetStats()
	if l.H2DBandwidth().Bytes() != 0 || l.D2HBandwidth().Bytes() != 0 || l.PipelineServed() != 0 {
		t.Fatal("ResetStats incomplete")
	}
}
