package pmem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"pax/internal/epochlog"
	"pax/internal/faultfs"
	"pax/internal/sim"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(DefaultConfig(4096))
	data := []byte("hello persistent world")
	d.Write(100, data, 0)
	buf := make([]byte, len(data))
	d.Read(100, buf, 0)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q, want %q", buf, data)
	}
	if d.Reads.Load() != 1 || d.Writes.Load() != 1 {
		t.Fatalf("counters reads=%d writes=%d", d.Reads.Load(), d.Writes.Load())
	}
	if d.BytesWritten.Load() != uint64(len(data)) {
		t.Fatalf("bytes written = %d", d.BytesWritten.Load())
	}
}

func TestLatencyModel(t *testing.T) {
	d := New(DefaultConfig(4096))
	buf := make([]byte, 64)
	done := d.Read(0, buf, 0)
	// 64 B at 40 GB/s = 1.6 ns transfer + 305 ns latency.
	if done < sim.PMReadLatency || done > sim.PMReadLatency+sim.NS(5) {
		t.Fatalf("read completion %v, want ~%v", done, sim.PMReadLatency)
	}
	wdone := d.Write(0, buf, 0)
	if wdone < sim.PMWriteLatency || wdone > sim.PMWriteLatency+sim.NS(10) {
		t.Fatalf("write completion %v, want ~%v", wdone, sim.PMWriteLatency)
	}
	// Writes serialize on the write channel: issuing many at t=0 queues them.
	var last sim.Time
	for i := 0; i < 100; i++ {
		last = d.Write(0, buf, 0)
	}
	transfer := sim.Time(float64(64) / sim.PMWriteBandwidth * float64(sim.Second))
	wantMin := 100 * transfer
	if last < wantMin {
		t.Fatalf("100 writes completed at %v, want ≥ %v (bandwidth serialization)", last, wantMin)
	}
}

func TestDRAMFasterThanPM(t *testing.T) {
	pm := New(DefaultConfig(1024))
	dram := New(DRAMConfig(1024))
	buf := make([]byte, 64)
	if dram.Read(0, buf, 0) >= pm.Read(0, buf, 0) {
		t.Fatal("DRAM read must be faster than PM read")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := New(DefaultConfig(128))
	for _, f := range []func(){
		func() { d.Read(128, make([]byte, 1), 0) },
		func() { d.Write(120, make([]byte, 16), 0) },
		func() { d.Read(^uint64(0), make([]byte, 1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestWriteAtomicValidation(t *testing.T) {
	d := New(DefaultConfig(128))
	d.WriteAtomic(8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0) // ok
	for _, f := range []func(){
		func() { d.WriteAtomic(4, make([]byte, 8), 0) }, // misaligned
		func() { d.WriteAtomic(8, make([]byte, 4), 0) }, // wrong size
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInjectTear(t *testing.T) {
	d := New(DefaultConfig(128))
	line := bytes.Repeat([]byte{0xAA}, 64)
	d.Write(0, line, 0)
	d.InjectTear(0, 64, 16)
	buf := make([]byte, 64)
	d.Read(0, buf, 0)
	for i := 0; i < 16; i++ {
		if buf[i] != 0xAA {
			t.Fatalf("byte %d corrupted inside valid prefix", i)
		}
	}
	for i := 16; i < 64; i++ {
		if buf[i] != 0xCD {
			t.Fatalf("byte %d = %#x, want poison", i, buf[i])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on misaligned tear prefix")
			}
		}()
		d.InjectTear(0, 64, 7)
	}()
}

func TestFileBacking(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.pool")
	cfg := DefaultConfig(1024)

	d, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(10, []byte("survive me"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	// Reopen: contents must survive.
	d2, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	d2.Read(10, buf, 0)
	if string(buf) != "survive me" {
		t.Fatalf("reopened contents %q", buf)
	}

	// Size mismatch must be rejected.
	if _, err := Open(path, DefaultConfig(2048)); err == nil {
		t.Fatal("expected size-mismatch error")
	}

	// No stray temp file after sync.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestInMemorySyncIsNil(t *testing.T) {
	if err := New(DefaultConfig(64)).Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCleansStaleTemp is the crash-mid-Sync recovery path: a crash
// between staging and rename leaves <path>.tmp next to an intact image; Open
// must discard the temp and load the image untouched.
func TestOpenCleansStaleTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.pool")
	cfg := DefaultConfig(1024)

	d, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(10, []byte("intact"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Plant a half-written staging file, as a crash mid-Sync would leave.
	if err := os.WriteFile(path+".tmp", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temp not cleaned: %v", err)
	}
	buf := make([]byte, 6)
	d2.Read(10, buf, 0)
	if string(buf) != "intact" {
		t.Fatalf("image corrupted by temp cleanup: %q", buf)
	}
}

// TestSyncFaultLeavesOldImage: a failed Sync must not become durable,
// whether its record's write or its fsync failed — a reopen recovers the
// previous Sync's image.
func TestSyncFaultLeavesOldImage(t *testing.T) {
	injected := errors.New("injected EIO")
	for _, step := range []struct {
		stage string
		kind  faultfs.Kind
	}{{"append", faultfs.WriteAt}, {"fsync", faultfs.Sync}} {
		stage := step.stage
		t.Run(stage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.pool")
			cfg, ffs := faulty(DefaultConfig(1024))
			d, err := Open(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.Write(0, []byte("old image"), 0)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}

			d.Write(0, []byte("new image"), 0)
			inLog := faultfs.In(path + epochlog.DirSuffix)
			ffs.Set(func(op faultfs.Op) error {
				if op.Kind == step.kind && inLog(op.Path) {
					return injected
				}
				return nil
			})
			if err := d.Sync(); !errors.Is(err, injected) {
				t.Fatalf("stage %s: got %v, want injected fault", stage, err)
			}
			d.Close()

			re, err := Open(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Snapshot()[:9]; string(got) != "old image" {
				t.Fatalf("stage %s: a failed sync became durable: %q", stage, got)
			}
		})
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := New(DefaultConfig(256))
	d.Write(0, []byte("before"), 0)
	snap := d.Snapshot()
	d.Write(0, []byte("after!"), 0)
	d.Restore(snap)
	buf := make([]byte, 6)
	d.Read(0, buf, 0)
	if string(buf) != "before" {
		t.Fatalf("restored %q", buf)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on wrong-size restore")
			}
		}()
		d.Restore(make([]byte, 1))
	}()
}

func TestResetStats(t *testing.T) {
	d := New(DefaultConfig(256))
	d.Write(0, make([]byte, 64), 0)
	d.Read(0, make([]byte, 64), 0)
	d.ResetStats()
	if d.Reads.Load() != 0 || d.Writes.Load() != 0 || d.BytesRead.Load() != 0 {
		t.Fatal("stats not reset")
	}
	if d.WriteBandwidthMeter().Bytes() != 0 {
		t.Fatal("write meter not reset")
	}
	// Media preserved.
	buf := make([]byte, 1)
	d.Read(0, buf, 0)
}

// Property: any sequence of writes then reads behaves like a flat byte array.
func TestDeviceMatchesByteArray(t *testing.T) {
	type op struct {
		Addr uint16
		Data []byte
	}
	f := func(ops []op) bool {
		const size = 1 << 16
		d := New(DefaultConfig(size))
		model := make([]byte, size)
		for _, o := range ops {
			n := len(o.Data)
			if int(o.Addr)+n > size {
				n = size - int(o.Addr)
			}
			d.Write(uint64(o.Addr), o.Data[:n], 0)
			copy(model[o.Addr:], o.Data[:n])
		}
		got := d.Snapshot()
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
