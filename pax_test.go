package pax_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"pax"
)

func smallOpts() pax.Options {
	return pax.Options{DataSize: 2 << 20, LogSize: 2 << 20, Profile: pax.ProfileCXL, HBMSize: 64 << 10}
}

func TestListing1Workflow(t *testing.T) {
	// The paper's Listing 1, in Go.
	pool, err := pax.MapPool("", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	m, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Put([]byte("1"), []byte("100"))
	if v, ok := m.Get([]byte("1")); !ok || string(v) != "100" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	m.Put([]byte("2"), []byte("200"))
	st, err := pool.Persist()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch == 0 || st.SimulatedLatency <= 0 {
		t.Fatalf("persist stats %+v", st)
	}
}

func TestFileBackedRestartRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "restart.pool")
	opts := smallOpts()

	pool, err := pax.MapPool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := pax.NewMap(pool, 0)
	for i := 0; i < 100; i++ {
		m.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	pool.Persist()
	m.Put([]byte("unpersisted"), []byte("dies"))
	if err := pool.Close(); err != nil { // close without persist = crash
		t.Fatal(err)
	}

	// "Restart the process": map the same pool file.
	pool2, err := pax.MapPool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if pool2.Recovery().DurableEpoch == 0 {
		t.Fatal("no recovery info after reopen")
	}
	m2, err := pax.NewMap(pool2, 0) // same call as construction (§3.4)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 100 {
		t.Fatalf("recovered %d entries, want 100", m2.Len())
	}
	if v, ok := m2.Get([]byte("k042")); !ok || string(v) != "v042" {
		t.Fatalf("k042 = %q %v", v, ok)
	}
	if _, ok := m2.Get([]byte("unpersisted")); ok {
		t.Fatal("unpersisted entry survived restart")
	}
}

// TestNewPoolCommitsOnlyItsFormat: a new pool file is born zero (its zero
// checkpoint is published before formatting), so formatting a 64 MiB pool
// commits only what formatting wrote — the header, undo-log header,
// allocator and root table — and leaves no log for a checkpoint to fold.
func TestNewPoolCommitsOnlyItsFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.pool")
	opts := smallOpts()
	opts.DataSize = 64 << 20
	pool, err := pax.CreatePool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm := pool.Internal().PM()
	if n := pm.LastSyncBytes(); n >= 64<<10 {
		t.Fatalf("format commit persisted %d bytes, want < 64 KiB", n)
	}
	pm.WaitCheckpoint()
	if n := pm.Checkpoints.Load(); n != 0 {
		t.Fatalf("%d checkpoints after formatting, want 0", n)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	// The format alone reopens: every root unset, the allocator serving.
	if pool, err = pax.OpenPool(path, opts); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 16; slot++ {
		if r := pool.Root(slot); r != 0 {
			t.Fatalf("root %d = %#x on a new pool", slot, r)
		}
	}
	addr, err := pool.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	pool.Store(addr, []byte("born zero"))
	pool.SetRoot(3, addr)
	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	if pool, err = pax.OpenPool(path, opts); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	got := make([]byte, len("born zero"))
	pool.Load(addr, got)
	if pool.Root(3) != addr || string(got) != "born zero" {
		t.Fatalf("root 3 = %#x holding %q, want %#x holding %q", pool.Root(3), got, addr, "born zero")
	}
	if next, err := pool.Alloc(64); err != nil || next == addr {
		t.Fatalf("Alloc after reopen = %#x, %v: the allocator forgot %#x", next, err, addr)
	}
}

func TestAllStructureFacades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "structs.pool")
	pool, err := pax.MapPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}

	m, _ := pax.NewMap(pool, 0)
	q, _ := pax.NewQueue(pool, 2)
	v, _ := pax.NewVector(pool, 3, 8)

	m.Put([]byte("hash"), []byte("map"))
	q.Push([]byte("first"))
	q.Push([]byte("second"))
	v.Push([]byte("elem0001"))
	v.Push([]byte("elem0002"))
	pool.Persist()
	pool.Close()

	pool2, err := pax.MapPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	m2, _ := pax.NewMap(pool2, 0)
	q2, _ := pax.NewQueue(pool2, 2)
	v2, _ := pax.NewVector(pool2, 3, 8)

	if val, ok := m2.Get([]byte("hash")); !ok || string(val) != "map" {
		t.Fatal("map lost")
	}
	if got, ok := q2.Peek(); !ok || string(got) != "first" {
		t.Fatal("queue order lost")
	}
	if got, ok, _ := q2.Pop(); !ok || string(got) != "first" {
		t.Fatal("queue pop wrong")
	}
	if v2.Len() != 2 || v2.ElemSize() != 8 {
		t.Fatalf("vector len=%d elem=%d", v2.Len(), v2.ElemSize())
	}
	buf := make([]byte, 8)
	v2.Get(1, buf)
	if !bytes.Equal(buf, []byte("elem0002")) {
		t.Fatalf("vector[1] = %q", buf)
	}
}

func TestIndexFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.pool")
	pool, err := pax.MapPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pax.NewIndex(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if err := ix.Put(i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete(0)
	pool.Persist()
	pool.Close()

	pool2, err := pax.MapPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	ix2, err := pax.NewIndex(pool2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 499 {
		t.Fatalf("recovered %d entries", ix2.Len())
	}
	if k, v, ok := ix2.Min(); !ok || k != 3 || v != 1 {
		t.Fatalf("min = %d/%d %v", k, v, ok)
	}
	var scanned int
	prev := uint64(0)
	ix2.Scan(0, func(k, v uint64) bool {
		if scanned > 0 && k <= prev {
			t.Fatalf("scan out of order at %d", k)
		}
		prev = k
		scanned++
		return true
	})
	if scanned != 499 {
		t.Fatalf("scan visited %d", scanned)
	}
}

func TestPersistAsync(t *testing.T) {
	pool, err := pax.MapPool("", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	m, _ := pax.NewMap(pool, 0)
	for round := 0; round < 5; round++ {
		m.Put([]byte{byte(round)}, []byte{byte(round)})
		st, err := pool.PersistAsync()
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch == 0 {
			t.Fatal("no epoch in async persist stats")
		}
	}
	if pool.DurableEpoch() < 5 {
		t.Fatalf("durable epoch %d after 5 async persists", pool.DurableEpoch())
	}
}

// TestSimulatedLatencyIsTheEpochsOwn pins what PersistStats.SimulatedLatency
// means: the device's commit time for this epoch's dirty lines. Equal epochs
// report equal latency however much the pool simulated before them, and an
// N-line epoch costs what the epoch experiment's avg_persist_us column
// reports for N lines per persist (0.4 / 2.2 / 20.0 µs at 1 / 10 / 100).
func TestSimulatedLatencyIsTheEpochsOwn(t *testing.T) {
	pool, err := pax.MapPool("", pax.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const lines = 4096
	base, err := pool.Alloc(lines * 64)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0) // line index of the next store, so every epoch dirties fresh lines
	epoch := func(n int) pax.PersistStats {
		t.Helper()
		for i := 0; i < n; i++ {
			pool.Store(base+next*64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			next++
		}
		st, err := pool.Persist()
		if err != nil {
			t.Fatal(err)
		}
		if st.LinesSnooped != n {
			t.Fatalf("%d-line epoch snooped %d lines", n, st.LinesSnooped)
		}
		return st
	}
	if _, err := pool.Persist(); err != nil { // the allocation's own epoch
		t.Fatal(err)
	}

	first := epoch(1)
	for i := 0; i < 20; i++ {
		epoch(100) // traffic the device simulates between the two 1-line epochs
	}
	if again := epoch(1); again.SimulatedLatency != first.SimulatedLatency {
		t.Fatalf("1-line epochs report %v and, after 2000 lines of traffic, %v; want equal", first.SimulatedLatency, again.SimulatedLatency)
	}
	for _, c := range []struct {
		lines  int
		wantUS float64
	}{{1, 0.4}, {10, 2.2}, {100, 20.0}} {
		got := epoch(c.lines).SimulatedLatency.Nanoseconds() / 1000
		if got < c.wantUS*0.95 || got > c.wantUS*1.05 {
			t.Errorf("%d-line epoch: %.3f µs, want %.1f µs ± 5%% (epoch experiment)", c.lines, got, c.wantUS)
		}
	}
}

func TestEnzianProfile(t *testing.T) {
	opts := smallOpts()
	opts.Profile = pax.ProfileEnzian
	pool, err := pax.MapPool("", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	m, _ := pax.NewMap(pool, 0)
	m.Put([]byte("e"), []byte("nzian"))
	pool.Persist()
	if v, ok := m.Get([]byte("e")); !ok || string(v) != "nzian" {
		t.Fatal("enzian-profile pool broken")
	}
}

func TestOptionValidation(t *testing.T) {
	bad := smallOpts()
	bad.Profile = "quantum"
	if _, err := pax.MapPool("", bad); err == nil {
		t.Fatal("bogus profile accepted")
	}
	if _, err := pax.OpenPool(filepath.Join(t.TempDir(), "missing.pool"), smallOpts()); err == nil {
		t.Fatal("opened nonexistent pool")
	}
	pool, _ := pax.MapPool("", smallOpts())
	defer pool.Close()
	if _, err := pax.NewMap(pool, 99); err == nil {
		t.Fatal("root slot 99 accepted")
	}
}

func TestOddHBMSizeNormalized(t *testing.T) {
	// Arbitrary (non-power-of-two) HBM sizes must be rounded to a valid
	// geometry, not panic.
	for _, size := range []int{0, 1, 63, 100_000, 1 << 20, 3<<20 + 7} {
		opts := smallOpts()
		opts.HBMSize = size
		pool, err := pax.MapPool("", opts)
		if err != nil {
			t.Fatalf("HBMSize %d: %v", size, err)
		}
		m, _ := pax.NewMap(pool, 0)
		m.Put([]byte("k"), []byte("v"))
		pool.Persist()
		pool.Close()
	}
}

func TestRawAllocLoadStore(t *testing.T) {
	pool, err := pax.MapPool("", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	addr, err := pool.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	pool.Store(addr, []byte("raw vPM access"))
	buf := make([]byte, 14)
	pool.Load(addr, buf)
	if string(buf) != "raw vPM access" {
		t.Fatalf("got %q", buf)
	}
	pool.SetRoot(5, addr)
	if pool.Root(5) != addr {
		t.Fatal("root round trip failed")
	}
	if err := pool.Free(addr, 128); err != nil {
		t.Fatal(err)
	}
}

func TestEpochAccounting(t *testing.T) {
	pool, _ := pax.MapPool("", smallOpts())
	defer pool.Close()
	e0 := pool.Epoch()
	d0 := pool.DurableEpoch()
	if e0 != d0+1 {
		t.Fatalf("epoch %d, durable %d", e0, d0)
	}
	m, _ := pax.NewMap(pool, 0)
	m.Put([]byte("x"), []byte("y"))
	pool.Persist()
	if pool.DurableEpoch() != d0+1 || pool.Epoch() != e0+1 {
		t.Fatalf("epochs after persist: durable %d epoch %d", pool.DurableEpoch(), pool.Epoch())
	}
}

// TestMapPutAllocations pins the garbage of a 128-byte Map.Put on a default
// pool, through the allocator, the simulated caches and the device: a new
// key, and an overwrite of a key stored and persisted before. Both are zero:
// field accesses cross the vPM seam as words, and nothing below the map
// allocates per access. AllocsPerRun truncates the mean, so the hash map's
// occasional growth (a zeroed bucket array) is in it unseen. A change that
// adds an allocation per Put fails here.
func TestMapPutAllocations(t *testing.T) {
	pool, err := pax.CreatePool("", pax.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	m, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	keys := make([][]byte, runs+1) // AllocsPerRun makes one warm-up call
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	val := bytes.Repeat([]byte("v"), 128)
	next := 0
	put := func() {
		if err := m.Put(keys[next%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		next++
	}
	insert := testing.AllocsPerRun(runs, put)
	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	overwrite := testing.AllocsPerRun(runs, put)
	for _, c := range []struct {
		name         string
		got, ceiling float64
	}{
		{"Put of a new key", insert, 0},
		{"Put over a persisted key", overwrite, 0},
	} {
		if c.got > c.ceiling {
			t.Errorf("%s: %v allocs, ceiling %v", c.name, c.got, c.ceiling)
		}
	}
}
