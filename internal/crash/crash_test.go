package crash

import (
	"encoding/binary"
	"testing"

	"pax/internal/core"
	"pax/internal/device"
	"pax/internal/hbm"
	"pax/internal/sim"
)

func testOptions() core.Options {
	return core.Options{
		DataSize: 256 << 10,
		LogSize:  256 << 10,
		Device:   device.Config{Link: sim.CXLLink, HBMSize: 16 << 10, HBMWays: 4, Policy: hbm.PreferDurable},
		Host:     sim.SmallHost(),
	}
}

func TestExhaustiveCrashPointsSimpleWrites(t *testing.T) {
	h, err := NewHarness(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := h.Pool.Allocator().Alloc(1024)
	m := h.Pool.Mem(0)
	for epoch := 0; epoch < 3; epoch++ {
		for i := uint64(0); i < 16; i++ {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(epoch)*1000+i)
			m.Store(addr+i*64, b[:])
		}
		h.Persist()
	}
	if h.CrashPoints() == 0 {
		t.Fatal("no writes recorded")
	}
	// Exhaustive: every crash point, clean and torn.
	if err := h.VerifyAll(1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrashDuringEvictionPressure(t *testing.T) {
	// HBM is 16 KiB; touch 128 KiB per epoch so mid-epoch write-backs hit
	// the media continuously — the §3.3 "no working set limit" path.
	h, err := NewHarness(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := h.Pool.Allocator().Alloc(128 << 10)
	m := h.Pool.Mem(0)
	for epoch := 0; epoch < 2; epoch++ {
		for off := uint64(0); off < 128<<10; off += 64 {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(epoch)<<32|off)
			m.Store(addr+off, b[:])
		}
		h.Persist()
	}
	if err := h.VerifyAll(17, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerDetectsMisplacedSnapshotBoundary(t *testing.T) {
	// The checker itself must be sensitive: if a snapshot boundary is
	// misplaced to before the epoch's write-backs completed, the golden
	// image diverges from what recovery actually produces and VerifyAll
	// must fail.
	h, err := NewHarness(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := h.Pool.Allocator().Alloc(1024)
	m := h.Pool.Mem(0)
	for i := uint64(0); i < 16; i++ {
		m.Store(addr+i*64, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	}
	h.Persist()
	for i := uint64(0); i < 16; i++ {
		m.Store(addr+i*64, []byte{2, 2, 2, 2, 2, 2, 2, 2})
	}
	h.Persist()

	if err := h.VerifyAll(1, nil); err != nil {
		t.Fatalf("sanity: untampered history must verify: %v", err)
	}
	// Misplace the final boundary into the middle of its epoch's
	// write-back phase.
	last := len(h.persistMarks) - 1
	h.persistMarks[last] -= 10
	if err := h.VerifyAll(1, nil); err == nil {
		t.Fatal("checker accepted a misplaced snapshot boundary")
	}
}
