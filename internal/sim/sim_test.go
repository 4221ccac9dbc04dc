package sim

import "testing"

func TestTimeConversions(t *testing.T) {
	if NS(1) != Nanosecond {
		t.Fatalf("NS(1) = %d, want %d", NS(1), Nanosecond)
	}
	if NS(1.5) != 1500*Picosecond {
		t.Fatalf("NS(1.5) = %d, want 1500", NS(1.5))
	}
	if US(1.2) != 1200*Nanosecond {
		t.Fatalf("US(1.2) = %d, want %d", US(1.2), 1200*Nanosecond)
	}
	if got := (305 * Nanosecond).Nanoseconds(); got != 305 {
		t.Fatalf("Nanoseconds = %g, want 305", got)
	}
	if got := Second.Seconds(); got != 1 {
		t.Fatalf("Seconds = %g, want 1", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{305 * Nanosecond, "305.00ns"},
		{1200 * Nanosecond, "1.20us"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.000s"},
		{-305 * Nanosecond, "-305.00ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v", c.Now())
	}
	c.Advance(NS(10))
	c.Advance(NS(5))
	if c.Now() != NS(15) {
		t.Fatalf("clock = %v, want 15ns", c.Now())
	}
	c.AdvanceTo(NS(12)) // earlier: no-op
	if c.Now() != NS(15) {
		t.Fatalf("AdvanceTo moved clock backward to %v", c.Now())
	}
	c.AdvanceTo(NS(20))
	if c.Now() != NS(20) {
		t.Fatalf("AdvanceTo = %v, want 20ns", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset left clock at %v", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	NewClock(0).Advance(-1)
}

func TestPipelineRateAndDepth(t *testing.T) {
	p := NewPipeline(300e6, 6) // 300 MHz: 3333ps cycle
	hz := 300e6
	cycle := Time(float64(Second) / hz)
	// Back-to-back arrivals issue one per cycle, complete depth cycles later.
	d0 := p.Serve(0)
	d1 := p.Serve(0)
	if d0 != 6*cycle {
		t.Fatalf("d0 = %v, want %v", d0, 6*cycle)
	}
	if d1 != 7*cycle {
		t.Fatalf("d1 = %v, want %v", d1, 7*cycle)
	}
	p.Reset()
	if p.Served() != 0 {
		t.Fatal("Reset did not clear pipeline")
	}
}

func TestPipelineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive clock")
		}
	}()
	NewPipeline(0, 1)
}

func TestBandwidthMeterSerialization(t *testing.T) {
	b := NewBandwidthMeter("pm-write", GBs(14))
	// 64 bytes at 14 GB/s = 64/14e9 s ≈ 4571 ps.
	tt := b.TransferTime(64)
	want := Time(float64(64) / GBs(14) * float64(Second))
	if tt != want {
		t.Fatalf("TransferTime = %v, want %v", tt, want)
	}
	d0 := b.Transfer(0, 64)
	d1 := b.Transfer(0, 64)
	if d1 != 2*d0 {
		t.Fatalf("second transfer = %v, want %v (serialized)", d1, 2*d0)
	}
	if b.Bytes() != 128 {
		t.Fatalf("bytes = %d, want 128", b.Bytes())
	}
	if got := b.Transfer(Second, 0); got != Second {
		t.Fatalf("zero-byte transfer took time: %v", got)
	}
	b.Reset()
	if b.Bytes() != 0 || b.Transfer(0, 64) != d0 {
		t.Fatal("Reset did not clear the meter")
	}
}

func TestLinkProfiles(t *testing.T) {
	if CXLLink.RoundTrip() != NS(50) {
		t.Fatalf("CXL round trip = %v", CXLLink.RoundTrip())
	}
	if EnzianLink.RoundTrip() <= CXLLink.RoundTrip() {
		t.Fatal("Enzian must be slower than CXL")
	}
	if EnzianLink.DeviceHz >= CXLLink.DeviceHz {
		t.Fatal("Enzian FPGA clock must be below ASIC-class clock")
	}
}

func TestHostProfiles(t *testing.T) {
	h := DefaultHost()
	if h.L1.SizeBytes != 32<<10 || h.LLC.SizeBytes != 22<<20 || h.Cores != 32 {
		t.Fatalf("unexpected default host: %+v", h)
	}
	s := SmallHost()
	if s.L1.SizeBytes >= h.L1.SizeBytes {
		t.Fatal("SmallHost not smaller than DefaultHost")
	}
	for _, g := range []CacheGeometry{s.L1, s.L2, s.LLC} {
		if g.SizeBytes%(g.Ways*CacheLineSize) != 0 {
			t.Fatalf("geometry %+v not divisible into sets", g)
		}
	}
}

func TestMaxTime(t *testing.T) {
	if MaxTime(1, 2) != 2 || MaxTime(2, 1) != 2 {
		t.Fatal("MaxTime wrong")
	}
}
