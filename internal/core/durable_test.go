package core

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"pax/internal/faultfs"
	"pax/internal/pmem"
)

// TestDurableEpochMirrorsTheCell holds DurableEpoch to its definition: the
// 8-byte durable-epoch cell on media at EpochCellOffset. The device keeps the
// value in an atomic so that readers never touch media; after every Persist
// — one whose media sync fails included — and after a reopen, the mirror and
// the cell must agree. After Close the media is gone and the mirror still
// answers.
func TestDurableEpochMirrorsTheCell(t *testing.T) {
	opts := fileOptions(1 << 20)
	path := filepath.Join(t.TempDir(), "mirror.pool")
	ffs := faultfs.New(nil)
	openPM := func() *pmem.Device {
		t.Helper()
		cfg := pmem.DefaultConfig(int(HeaderSize + opts.LogSize + opts.DataSize))
		cfg.EpochCellOffset = EpochCellOffset
		cfg.FS = ffs
		pm, err := pmem.Open(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	check := func(p *Pool, when string) {
		t.Helper()
		var cell [8]byte
		p.PM().Read(EpochCellOffset, cell[:], 0)
		if got, want := p.DurableEpoch(), binary.LittleEndian.Uint64(cell[:]); got != want {
			t.Fatalf("%s: DurableEpoch %d, media cell %d", when, got, want)
		}
	}

	p, err := Create(openPM(), opts)
	if err != nil {
		t.Fatal(err)
	}
	check(p, "after Create")
	injected := errors.New("injected media failure")
	for i := uint64(0); i < 6; i++ {
		addr, err := p.Allocator().Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		storeU64(p.Mem(0), addr, i)
		if i == 3 {
			ffs.Set(faultfs.FailSyncs(func(string) bool { return true }, 1, injected))
		}
		_, err = p.Persist()
		if i == 3 && !errors.Is(err, injected) {
			t.Fatalf("persist with a failing sync: %v, want the injected error", err)
		}
		if i != 3 && err != nil {
			t.Fatal(err)
		}
		check(p, "after a Persist")
	}
	last := p.DurableEpoch()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.DurableEpoch(); got != last {
		t.Fatalf("after Close: DurableEpoch %d, want %d", got, last)
	}
	re, err := Open(openPM(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "after reopen")
	if got := re.DurableEpoch(); got != last {
		t.Fatalf("reopen recovers epoch %d, closed pool reported %d", got, last)
	}
}
