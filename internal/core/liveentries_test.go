package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"pax/internal/cache"
	"pax/internal/device"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/undolog"
)

// A commit record leaves out the undo entries the log has truncated
// (pmem.Discard), and only those. The tests here hold the other half of
// that rule: entries still live at a Sync — the open epoch's, when Close
// syncs mid-epoch — reach the file, because the reopened pool needs them to
// roll back lines the host already wrote back to media.

// fileOptions is a pool with no device cache on the small host, so a dirty
// line the LLC evicts is written through to media as soon as its undo entry
// is durable.
func fileOptions(logSize uint64) Options {
	return Options{
		DataSize: 1 << 20,
		LogSize:  logSize,
		Device:   device.Config{Link: sim.CXLLink},
		Host:     sim.SmallHost(),
	}
}

func openFilePM(t *testing.T, path string, opts Options) *pmem.Device {
	t.Helper()
	cfg := pmem.DefaultConfig(int(HeaderSize + opts.LogSize + opts.DataSize))
	cfg.EpochCellOffset = EpochCellOffset
	pm, err := pmem.Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func reopenFilePool(t *testing.T, path string, opts Options) *Pool {
	t.Helper()
	p, err := Open(openFilePM(t, path, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCloseMidEpochKeepsLiveUndoEntries(t *testing.T) {
	const lines = 1024 // 64 KiB: four times the small host's LLC
	opts := fileOptions(1 << 20)
	path := filepath.Join(t.TempDir(), "live.pool")
	p, err := Create(openFilePM(t, path, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Allocator().Alloc(lines * cache.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Mem(0)
	for i := uint64(0); i < lines; i++ {
		storeU64(m, base+i*cache.LineSize, 1000+i)
	}
	if _, err := p.Persist(); err != nil {
		t.Fatal(err)
	}

	before := p.Device().Stats.LinesPersisted.Load()
	for i := uint64(0); i < lines; i++ {
		storeU64(m, base+i*cache.LineSize, 2000+i)
	}
	if p.Device().Stats.LinesPersisted.Load() == before {
		t.Fatal("no line of the open epoch reached media: the test exercises nothing")
	}
	if err := p.Close(); err != nil { // syncs the open epoch's entries, no Persist
		t.Fatal(err)
	}

	p = reopenFilePool(t, path, opts)
	defer p.Close()
	if p.Recovery().LinesRolledBack == 0 {
		t.Fatal("reopen rolled nothing back although the open epoch wrote lines back")
	}
	m = p.Mem(0)
	for i := uint64(0); i < lines; i++ {
		if got := loadU64(m, base+i*cache.LineSize); got != 1000+i {
			t.Fatalf("line %d = %d after reopen, want its persisted value %d", i, got, 1000+i)
		}
	}
}

// TestUndoRingWrapsAcrossReopens drives a small undo ring through three
// laps, reopening after Persists and after mid-epoch Closes, and checks
// after every reopen that the log recovered exactly the entries live at the
// Sync, that nothing past its head validates, and that the lines hold the
// last persisted values.
func TestUndoRingWrapsAcrossReopens(t *testing.T) {
	const lines = 2048
	opts := fileOptions(1600 * cache.LineSize) // 1 066 entries
	path := filepath.Join(t.TempDir(), "ring.pool")
	p, err := Create(openFilePM(t, path, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Allocator().Alloc(lines * cache.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Persist(); err != nil {
		t.Fatal(err)
	}
	ring := uint64(p.Device().Log().CapacityEntries()) * undolog.EntrySize
	start := p.Device().Log().Head()

	rng := rand.New(rand.NewSource(1))
	model := make([]uint64, lines) // the last persisted value of each line
	for round := 0; round < 6 || p.Device().Log().Head()-start < 3*ring; round++ {
		written := make(map[int]uint64)
		m := p.Mem(0)
		for n := 300 + rng.Intn(500); n > 0; n-- {
			i, v := rng.Intn(lines), rng.Uint64()
			storeU64(m, base+uint64(i)*cache.LineSize, v)
			written[i] = v
		}
		live := 0
		if round%3 == 2 {
			// Close mid-epoch: the open epoch's entries are live at the sync.
			live = p.Device().Log().Live()
		} else {
			if _, err := p.Persist(); err != nil {
				t.Fatal(err)
			}
			for i, v := range written {
				model[i] = v
			}
			if round%3 == 1 {
				continue // no reopen after this Persist
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		p = reopenFilePool(t, path, opts)

		if got := p.Recovery().EntriesScanned; got != live {
			t.Fatalf("round %d: reopen recovered %d live entries, %d were live at the sync", round, got, live)
		}
		log := p.Device().Log()
		for virt := log.Head(); virt < log.Head()+ring; virt += undolog.EntrySize {
			if _, ok := log.EntryAt(virt); ok {
				t.Fatalf("round %d: slot at %d validates past the recovered head %d", round, virt, log.Head())
			}
		}
		m = p.Mem(0)
		for i, want := range model {
			if got := loadU64(m, base+uint64(i)*cache.LineSize); got != want {
				t.Fatalf("round %d: line %d = %d after reopen, want %d", round, i, got, want)
			}
		}
	}
	p.Close()
}
