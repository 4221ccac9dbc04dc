package device

import (
	"testing"

	"pax/internal/cxl"
)

// TestProtocolMessageSequence checks the §3 wire protocol end to end through
// the link's byte meters and the device pipeline, one host action at a time:
// a read miss is RdShared, a first store is ItoMWr or RdOwn, each answered by
// a GO with data, and persist() sends one SnpData per modified line and takes
// one RspData back for each.
func TestProtocolMessageSequence(t *testing.T) {
	d, pm, snooper := testDevice(t, cfgCXL())
	pm.Write(dataBase, []byte{1}, 0)
	l := d.Link()
	const header, withData = cxl.HeaderBytes, cxl.HeaderBytes + cxl.DataBytes
	step := func(what string, act func(), h2d, d2h, served uint64) {
		t.Helper()
		h0, d0, s0 := l.H2DBandwidth().Bytes(), l.D2HBandwidth().Bytes(), l.PipelineServed()
		act()
		if got := l.H2DBandwidth().Bytes() - h0; got != h2d {
			t.Errorf("%s: %d bytes host→device, want %d", what, got, h2d)
		}
		if got := l.D2HBandwidth().Bytes() - d0; got != d2h {
			t.Errorf("%s: %d bytes device→host, want %d", what, got, d2h)
		}
		if got := l.PipelineServed() - s0; got != served {
			t.Errorf("%s: %d messages through the device pipeline, want %d", what, got, served)
		}
	}

	var buf [LineSize]byte
	step("read miss (RdShared, GO)", func() { d.FetchLine(hostBase, false, buf[:], 0) }, header, withData, 1)
	step("upgrade (ItoMWr, GO)", func() { d.UpgradeLine(hostBase, 0) }, header, withData, 1)
	step("store miss (RdOwn, GO)", func() { d.FetchLine(hostBase+64, true, buf[:], 0) }, header, withData, 1)

	// The host keeps both lines dirty.
	var dirty [LineSize]byte
	dirty[0] = 9
	snooper.dirty[hostBase] = dirty
	snooper.dirty[hostBase+64] = dirty
	step("persist (2 × SnpData, 2 × RspData)", func() { d.Persist(0) }, 2*withData, 2*header, 2)

	if d.Stats.FillsServed.Load() != 2 || d.Stats.SnoopsSent.Load() != 2 || d.Stats.SnoopsDirty.Load() != 2 {
		t.Fatalf("fills %d, snoops %d, dirty snoops %d; want 2, 2, 2",
			d.Stats.FillsServed.Load(), d.Stats.SnoopsSent.Load(), d.Stats.SnoopsDirty.Load())
	}
}
