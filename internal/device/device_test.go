package device

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"pax/internal/coherence"
	"pax/internal/hbm"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/undolog"
)

const (
	epochCell = 0  // media address of the epoch cell
	logBase   = 64 // undo log region
	logSize   = 256 << 10
	dataBase  = uint64(logBase + logSize)
	dataSize  = uint64(1 << 20)
	hostBase  = uint64(1 << 30) // deliberately different from dataBase
)

// fakeSnooper plays the host: it answers snoops from a scripted set of
// dirty lines.
type fakeSnooper struct {
	dirty map[uint64][LineSize]byte
}

func (f *fakeSnooper) SnoopLine(addr uint64, op coherence.SnoopOp, at sim.Time) coherence.SnoopResult {
	if data, ok := f.dirty[addr]; ok {
		if op == coherence.SnpData || op == coherence.SnpInv {
			delete(f.dirty, addr)
		}
		return coherence.SnoopResult{Present: true, Dirty: true, Data: data, Done: at + sim.LLCLatency}
	}
	return coherence.SnoopResult{Present: false, Done: at + sim.LLCLatency}
}

func testDevice(t *testing.T, cfg Config) (*Device, *pmem.Device, *fakeSnooper) {
	t.Helper()
	pm := pmem.New(pmem.DefaultConfig(int(dataBase + dataSize)))
	log := undolog.Create(pm, logBase, logSize)
	d := New(cfg, pm, hostBase, dataBase, dataSize, log, epochCell, 1)
	snooper := &fakeSnooper{dirty: make(map[uint64][LineSize]byte)}
	d.AttachHost(snooper)
	return d, pm, snooper
}

func cfgCXL() Config {
	return Config{Link: sim.CXLLink, HBMSize: 32 << 10, HBMWays: 4, Policy: hbm.PreferDurable}
}

func TestFetchGrantsSharedOnRead(t *testing.T) {
	d, pm, _ := testDevice(t, cfgCXL())
	pm.Write(dataBase, []byte{0xAB}, 0)
	var buf [LineSize]byte
	res := d.FetchLine(hostBase, false, buf[:], 0)
	if res.State != coherence.Shared {
		t.Fatalf("read fetch granted %v, want Shared (device must see first store)", res.State)
	}
	if buf[0] != 0xAB {
		t.Fatalf("data %#x", buf[0])
	}
	if res.Done < sim.CXLLink.RoundTrip() {
		t.Fatalf("fill faster than link RTT: %v", res.Done)
	}
	if d.Log().Appends() != 0 {
		t.Fatal("read fetch logged")
	}
}

func TestExclusiveFetchLogsPreImage(t *testing.T) {
	d, pm, _ := testDevice(t, cfgCXL())
	pm.Write(dataBase, []byte{0xCD}, 0)
	var buf [LineSize]byte
	res := d.FetchLine(hostBase, true, buf[:], 0)
	if res.State != coherence.Exclusive {
		t.Fatalf("RdOwn granted %v", res.State)
	}
	if d.Log().Appends() != 1 {
		t.Fatalf("log appends = %d", d.Log().Appends())
	}
	entries := d.Log().Entries()
	if len(entries) != 1 || entries[0].Addr != dataBase || entries[0].Old[0] != 0xCD || entries[0].Epoch != 1 {
		t.Fatalf("entry = %+v", entries[0])
	}
}

func TestFirstModificationOnlyPerEpoch(t *testing.T) {
	d, _, _ := testDevice(t, cfgCXL())
	d.UpgradeLine(hostBase, 0)
	d.UpgradeLine(hostBase, 0) // re-upgrade after host silently dropped
	d.UpgradeLine(hostBase+64, 0)
	if d.Log().Appends() != 2 {
		t.Fatalf("appends = %d, want 2", d.Log().Appends())
	}
	if d.Stats.LogSkips.Load() != 1 {
		t.Fatalf("skips = %d, want 1", d.Stats.LogSkips.Load())
	}
	if len(d.modified) != 2 {
		t.Fatalf("modified = %d", len(d.modified))
	}
}

func TestUpgradeAcksWithoutWaitingForLog(t *testing.T) {
	d, _, _ := testDevice(t, cfgCXL())
	done := d.UpgradeLine(hostBase, 0)
	// The ack must not include the PM write latency of the log append
	// (~94 ns); it should be roughly link RTT + pipeline.
	budget := sim.CXLLink.RoundTrip() + sim.NS(20)
	if done > budget {
		t.Fatalf("upgrade ack at %v, want ≤ %v (async logging)", done, budget)
	}
}

func TestWriteBackBuffersUntilPersist(t *testing.T) {
	d, pm, _ := testDevice(t, cfgCXL())
	pm.Write(dataBase, []byte{0x01}, 0)
	d.UpgradeLine(hostBase, 0)
	line := make([]byte, LineSize)
	line[0] = 0x99
	d.WriteBackLine(hostBase, line, 0)
	// Buffered in HBM, not yet on PM.
	var got [1]byte
	pm.Read(dataBase, got[:], 0)
	if got[0] != 0x01 {
		t.Fatal("write-back hit PM before persist/eviction")
	}
	if ln := d.HBM().Peek(hostBase); ln == nil || !ln.Dirty {
		t.Fatal("write-back not buffered dirty in HBM")
	}
	d.Persist(0)
	pm.Read(dataBase, got[:], 0)
	if got[0] != 0x99 {
		t.Fatal("persist did not write the line back")
	}
	if d.HBM().Peek(hostBase).Dirty {
		t.Fatal("persist left the written-back line dirty")
	}
}

func TestWriteBackUnloggedPanics(t *testing.T) {
	d, _, _ := testDevice(t, cfgCXL())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.WriteBackLine(hostBase, make([]byte, LineSize), 0)
}

func TestPersistProtocol(t *testing.T) {
	d, pm, snooper := testDevice(t, cfgCXL())
	// Host modifies two lines: one still dirty in host caches, one evicted
	// to the device already.
	d.UpgradeLine(hostBase, 0)
	d.UpgradeLine(hostBase+64, 0)
	var hostDirty [LineSize]byte
	hostDirty[0] = 0xAA
	snooper.dirty[hostBase] = hostDirty
	evicted := make([]byte, LineSize)
	evicted[0] = 0xBB
	d.WriteBackLine(hostBase+64, evicted, 0)

	dirty0 := d.Stats.SnoopsDirty.Load()
	rep := d.Persist(0)
	if dirty := d.Stats.SnoopsDirty.Load() - dirty0; rep.Epoch != 1 || rep.LinesSnooped != 2 || dirty != 1 {
		t.Fatalf("report %+v, %d dirty snoops", rep, dirty)
	}
	if rep.LinesWritten < 2 {
		t.Fatalf("wrote %d lines", rep.LinesWritten)
	}
	var b [1]byte
	pm.Read(dataBase, b[:], 0)
	if b[0] != 0xAA {
		t.Fatalf("snooped line not persisted: %#x", b[0])
	}
	pm.Read(dataBase+64, b[:], 0)
	if b[0] != 0xBB {
		t.Fatalf("evicted line not persisted: %#x", b[0])
	}
	// Epoch cell written atomically.
	var cell [8]byte
	pm.Read(epochCell, cell[:], 0)
	if got := binary.LittleEndian.Uint64(cell[:]); got != 1 {
		t.Fatalf("durable epoch = %d", got)
	}
	// Log truncated; next epoch open.
	if d.Log().Live() != 0 {
		t.Fatalf("log live = %d", d.Log().Live())
	}
	if d.Epoch() != 2 || len(d.modified) != 0 {
		t.Fatalf("epoch %d, modified %d", d.Epoch(), len(d.modified))
	}
}

func TestLoggingResumesAfterPersist(t *testing.T) {
	d, _, _ := testDevice(t, cfgCXL())
	d.UpgradeLine(hostBase, 0)
	d.Persist(0)
	d.UpgradeLine(hostBase, 0) // same line, new epoch: logged again
	if d.Log().Appends() != 2 {
		t.Fatalf("appends = %d", d.Log().Appends())
	}
	if e := d.Log().Entries(); len(e) != 1 || e[0].Epoch != 2 {
		t.Fatalf("entries = %+v", e)
	}
}

func TestHBMHitAvoidsPM(t *testing.T) {
	d, pm, _ := testDevice(t, cfgCXL())
	var buf [LineSize]byte
	d.FetchLine(hostBase, false, buf[:], 0)
	read := pm.BytesRead.Load()
	res := d.FetchLine(hostBase, false, buf[:], 0) // HBM hit
	if pm.BytesRead.Load() != read {
		t.Fatal("second fetch read PM despite HBM")
	}
	if d.HBM().Ratio.Hits.Load() != 1 {
		t.Fatalf("HBM hits = %d", d.HBM().Ratio.Hits.Load())
	}
	// An HBM hit must be faster than a PM fetch.
	first := d.FetchLine(hostBase+128, false, buf[:], res.Done)
	hit := d.FetchLine(hostBase+128, false, buf[:], first.Done)
	if hit.Done-first.Done >= first.Done-res.Done {
		t.Fatal("HBM hit not faster than PM fetch")
	}
}

func TestNoHBMWritesThrough(t *testing.T) {
	cfg := cfgCXL()
	cfg.HBMSize = 0
	d, pm, _ := testDevice(t, cfg)
	if d.HBM() != nil {
		t.Fatal("HBM present despite size 0")
	}
	d.UpgradeLine(hostBase, 0)
	line := make([]byte, LineSize)
	line[0] = 0x77
	d.WriteBackLine(hostBase, line, 0)
	var b [1]byte
	pm.Read(dataBase, b[:], 0)
	if b[0] != 0x77 {
		t.Fatal("bufferless device did not write through")
	}
}

func TestEnzianSlowerThanCXL(t *testing.T) {
	fast, _, _ := testDevice(t, cfgCXL())
	slowCfg := cfgCXL()
	slowCfg.Link = sim.EnzianLink
	slow, _, _ := testDevice(t, slowCfg)
	var buf [LineSize]byte
	f := fast.FetchLine(hostBase, false, buf[:], 0)
	s := slow.FetchLine(hostBase, false, buf[:], 0)
	if s.Done <= f.Done {
		t.Fatalf("Enzian fill %v not slower than CXL %v", s.Done, f.Done)
	}
}

func TestOutOfRangeHostAddressPanics(t *testing.T) {
	d, _, _ := testDevice(t, cfgCXL())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var buf [LineSize]byte
	d.FetchLine(hostBase+dataSize, false, buf[:], 0)
}

func TestGeometryValidation(t *testing.T) {
	pm := pmem.New(pmem.DefaultConfig(1 << 20))
	log := undolog.Create(pm, 0, 64<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(cfgCXL(), pm, 7, 0, 4096, log, 0, 1) // misaligned host base
}

// TestPersistSteadyStateAllocatesNothing pins an epoch's device work at zero
// allocations once Persist's buffers and the epoch's logged table have their
// size: upgrades that undo-log lines, dirty write-backs into HBM, snoops
// that return dirty data, and the commit. A set-up-sized epoch comes first,
// so the small epochs run on a table grown past their size, and each of
// them must log its lines afresh.
func TestPersistSteadyStateAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{cfgCXL(), {Link: sim.CXLLink}} {
		d, _, snooper := testDevice(t, cfg)
		var data [LineSize]byte
		at := sim.Time(0)
		const setUpLines = 2048
		for i := uint64(0); i < setUpLines; i++ {
			at = d.UpgradeLine(hostBase+i*LineSize, at)
		}
		if rep := d.Persist(at); rep.LinesSnooped != setUpLines || len(d.modified) != 0 {
			t.Fatalf("HBM %d B: set-up epoch snooped %d lines and left %d logged, want %d and 0",
				cfg.HBMSize, rep.LinesSnooped, len(d.modified), setUpLines)
		}
		appends := d.Log().Appends()
		epoch := func() {
			for i := uint64(0); i < 8; i++ {
				at = d.UpgradeLine(hostBase+i*LineSize, at)
			}
			data[0]++
			at = d.WriteBackLine(hostBase, data[:], at)
			snooper.dirty[hostBase+LineSize] = data
			at = d.Persist(at).Done
		}
		if avg := testing.AllocsPerRun(100, epoch); avg != 0 {
			t.Errorf("HBM %d B: a steady-state epoch allocates %v times", cfg.HBMSize, avg)
		}
		// AllocsPerRun runs epoch once more than it measures.
		if got := d.Log().Appends() - appends; got != 101*8 {
			t.Errorf("HBM %d B: 101 epochs of 8 lines made %d undo appends, want %d", cfg.HBMSize, got, 101*8)
		}
	}
}

// Persist writes back the dirty HBM lines by walking the epoch's modified
// lines, which holds only if every dirty HBM line is one of them. A seeded
// schedule of fills, upgrades, write-backs and persists over four times the
// lines the test HBM holds, so that dirty lines are evicted, refilled and
// written back again, drives a device with HBM and one without: the two PM
// images must be byte-equal after every persist.
func TestHBMPersistMatchesWriteThrough(t *testing.T) {
	const lines = 4 * (32 << 10) / LineSize
	type op struct {
		kind byte // 'r' read fill, 'o' RdOwn + store, 'u' upgrade + store, 'w' write-back, 'p' persist
		addr uint64
		data [LineSize]byte
	}
	rng := rand.New(rand.NewSource(48))
	var ops []op
	var dirty []uint64 // lines the host holds modified, in the order stored
	held := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		o := op{addr: hostBase + uint64(rng.Intn(lines))*LineSize}
		binary.LittleEndian.PutUint64(o.data[:], uint64(i+1))
		switch r := rng.Intn(100); {
		case r < 30:
			o.kind = 'r'
		case r < 55:
			o.kind = 'o'
		case r < 80:
			o.kind = 'u'
		case r < 99:
			if len(dirty) == 0 {
				continue
			}
			k := rng.Intn(len(dirty))
			o.kind, o.addr = 'w', dirty[k]
			dirty[k] = dirty[len(dirty)-1]
			dirty = dirty[:len(dirty)-1]
			delete(held, o.addr)
		default:
			o.kind = 'p'
			dirty, held = dirty[:0], map[uint64]bool{}
		}
		if (o.kind == 'o' || o.kind == 'u') && !held[o.addr] {
			held[o.addr] = true
			dirty = append(dirty, o.addr)
		}
		ops = append(ops, o)
	}
	ops = append(ops, op{kind: 'p'})

	type rig struct {
		d       *Device
		pm      *pmem.Device
		snooper *fakeSnooper
		at      sim.Time
	}
	var rigs [2]rig
	for i, cfg := range []Config{cfgCXL(), {Link: sim.CXLLink}} {
		d, pm, snooper := testDevice(t, cfg)
		rigs[i] = rig{d: d, pm: pm, snooper: snooper}
	}
	persists, written := 0, uint64(0)
	var buf [LineSize]byte
	for _, o := range ops {
		for i := range rigs {
			r := &rigs[i]
			switch o.kind {
			case 'r':
				r.at = r.d.FetchLine(o.addr, false, buf[:], r.at).Done
			case 'o':
				r.at = r.d.FetchLine(o.addr, true, buf[:], r.at).Done
				r.snooper.dirty[o.addr] = o.data
			case 'u':
				r.at = r.d.UpgradeLine(o.addr, r.at)
				r.snooper.dirty[o.addr] = o.data
			case 'w':
				data := r.snooper.dirty[o.addr]
				delete(r.snooper.dirty, o.addr)
				r.at = r.d.WriteBackLine(o.addr, data[:], r.at)
			case 'p':
				rep := r.d.Persist(r.at)
				r.at = rep.Done
				if i == 0 {
					written += uint64(rep.LinesWritten)
				}
			}
		}
		if o.kind == 'p' {
			persists++
			if !bytes.Equal(rigs[0].pm.Snapshot(), rigs[1].pm.Snapshot()) {
				t.Fatalf("persist %d: the HBM device's PM image differs from the write-through device's", persists)
			}
		}
	}
	// Some dirty lines must have left HBM by eviction, not at a persist.
	if persists < 50 || rigs[0].d.Stats.LinesPersisted.Load() <= written {
		t.Fatalf("%d persists, %d lines written at persist of %d written in all; want ≥ 50 persists and some dirty evictions",
			persists, written, rigs[0].d.Stats.LinesPersisted.Load())
	}
}
