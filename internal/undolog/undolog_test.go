package undolog

import (
	"errors"
	"testing"
	"testing/quick"

	"pax/internal/coherence"
	"pax/internal/pmem"
)

func testDev(size int) *pmem.Device { return pmem.New(pmem.DefaultConfig(size)) }

func line(b byte) (out [coherence.LineSize]byte) {
	for i := range out {
		out[i] = b
	}
	return out
}

func TestAppendAndScan(t *testing.T) {
	dev := testDev(64 << 10)
	l := Create(dev, 0, 64<<10)
	for i := 0; i < 10; i++ {
		off, done, err := l.Append(1, uint64(i*64), line(byte(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i*EntrySize) {
			t.Fatalf("entry %d at offset %d", i, off)
		}
		if done <= 0 {
			t.Fatal("append reported zero durability time")
		}
	}
	es := l.Entries()
	if len(es) != 10 {
		t.Fatalf("got %d entries", len(es))
	}
	for i, e := range es {
		if e.Epoch != 1 || e.Addr != uint64(i*64) || e.Old[0] != byte(i) || e.Seq != uint64(i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if l.Live() != 10 {
		t.Fatalf("live = %d", l.Live())
	}
}

func TestOpenRecoversHeadAndTail(t *testing.T) {
	dev := testDev(64 << 10)
	l := Create(dev, 0, 64<<10)
	for i := 0; i < 7; i++ {
		l.Append(3, uint64(i*64), line(0xAB), 0)
	}
	l.Truncate(2*EntrySize, 0)

	l2, err := Open(dev, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Tail() != 2*EntrySize || l2.Head() != 7*EntrySize {
		t.Fatalf("recovered tail=%d head=%d", l2.Tail(), l2.Head())
	}
	if l2.Live() != 5 {
		t.Fatalf("live = %d", l2.Live())
	}
}

func TestTornEntryRejectedOnRecovery(t *testing.T) {
	dev := testDev(64 << 10)
	l := Create(dev, 0, 64<<10)
	for i := 0; i < 5; i++ {
		l.Append(1, uint64(i*64), line(1), 0)
	}
	// Tear the last entry: only 16 of its 96 bytes persisted.
	lastSlot := l.SlotAddr(4 * EntrySize)
	dev.InjectTear(lastSlot, EntrySize, 16)

	l2, err := Open(dev, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Live() != 4 {
		t.Fatalf("torn entry not rejected: live = %d", l2.Live())
	}
}

func TestEntriesAfterEpoch(t *testing.T) {
	dev := testDev(64 << 10)
	l := Create(dev, 0, 64<<10)
	for e := uint64(1); e <= 3; e++ {
		for i := 0; i < 3; i++ {
			l.Append(e, uint64(i*64), line(byte(e)), 0)
		}
	}
	after := l.EntriesAfterEpoch(2)
	if len(after) != 3 {
		t.Fatalf("entries after epoch 2: %d", len(after))
	}
	for _, e := range after {
		if e.Epoch != 3 {
			t.Fatalf("entry %+v leaked", e)
		}
	}
	if n := len(l.EntriesAfterEpoch(0)); n != 9 {
		t.Fatalf("after epoch 0: %d", n)
	}
	if n := len(l.EntriesAfterEpoch(3)); n != 0 {
		t.Fatalf("after epoch 3: %d", n)
	}
}

func TestRingWraparound(t *testing.T) {
	// Region sized for exactly 8 entries.
	size := uint64(headerSize + 8*EntrySize)
	dev := testDev(int(size))
	l := Create(dev, 0, size)

	// Fill, truncate half, refill across the wrap point — several laps.
	seq := uint64(0)
	for lap := 0; lap < 5; lap++ {
		for l.Live() < 8 {
			if _, _, err := l.Append(uint64(lap+1), seq*64, line(byte(seq)), 0); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		l.Truncate(l.Tail()+4*EntrySize, 0)
		es := l.Entries()
		if len(es) != 4 {
			t.Fatalf("lap %d: live = %d", lap, len(es))
		}
		// Reopen mid-lap and verify identical state.
		l2, err := Open(dev, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if l2.Head() != l.Head() || l2.Tail() != l.Tail() {
			t.Fatalf("lap %d: reopen head/tail %d/%d want %d/%d", lap, l2.Head(), l2.Tail(), l.Head(), l.Tail())
		}
	}
}

func TestErrFull(t *testing.T) {
	size := uint64(headerSize + 4*EntrySize)
	l := Create(testDev(int(size)), 0, size)
	for i := 0; i < 4; i++ {
		if _, _, err := l.Append(1, uint64(i*64), line(0), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.Append(1, 0, line(0), 0); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	// Truncation frees space.
	l.Truncate(l.Tail()+EntrySize, 0)
	if _, _, err := l.Append(1, 0, line(0), 0); err != nil {
		t.Fatal(err)
	}
}

func TestStaleLapEntriesRejected(t *testing.T) {
	// After wraparound, a slot holds an old entry with a smaller seq; if the
	// tail were corrupted backwards, validation must reject the stale entry.
	size := uint64(headerSize + 4*EntrySize)
	dev := testDev(int(size))
	l := Create(dev, 0, size)
	for i := 0; i < 4; i++ {
		l.Append(1, uint64(i*64), line(1), 0)
	}
	l.Truncate(4*EntrySize, 0)
	for i := 0; i < 2; i++ {
		l.Append(2, uint64(i*64), line(2), 0)
	}
	// Live entries are seq 4,5 at physical slots 0,1; slots 2,3 hold stale
	// lap-1 entries (seq 2,3). A fresh Open must find head exactly at seq 6.
	l2, err := Open(dev, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != 6*EntrySize {
		t.Fatalf("head = %d entries, want 6", l2.Head()/EntrySize)
	}
	if l2.Live() != 2 {
		t.Fatalf("live = %d", l2.Live())
	}
}

func TestTruncateValidation(t *testing.T) {
	l := Create(testDev(64<<10), 0, 64<<10)
	l.Append(1, 0, line(0), 0)
	for _, bad := range []uint64{EntrySize * 2, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("truncate to %d did not panic", bad)
				}
			}()
			l.Truncate(bad, 0)
		}()
	}
	// No-op truncate is fine.
	l.Truncate(l.Tail(), 0)
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	dev := testDev(64 << 10)
	Create(dev, 0, 64<<10)
	dev.Write(0, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0)
	if _, err := Open(dev, 0, 64<<10); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

func TestTooSmallRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Create(testDev(128), 0, 128)
}

// Property: append/truncate/reopen in any interleaving preserves the exact
// live entry sequence.
func TestLogMatchesModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		size := uint64(headerSize + 16*EntrySize)
		dev := testDev(int(size))
		l := Create(dev, 0, size)
		var model []Entry
		nextSeq := uint64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // append
				addr := uint64(op) * 64
				if _, _, err := l.Append(uint64(op), addr, line(op), 0); err == nil {
					model = append(model, Entry{Epoch: uint64(op), Seq: nextSeq, Addr: addr, Old: line(op)})
					nextSeq++
				}
			case 2: // truncate one
				if len(model) > 0 {
					l.Truncate(l.Tail()+EntrySize, 0)
					model = model[1:]
				}
			case 3: // reopen
				var err error
				l, err = Open(dev, 0, size)
				if err != nil {
					return false
				}
			}
		}
		got := l.Entries()
		if len(got) != len(model) {
			return false
		}
		for i := range got {
			if got[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAllocatesNothing pins the undo append, which the device makes
// on every line a host first modifies in an epoch, at zero allocations.
func TestAppendAllocatesNothing(t *testing.T) {
	const runs = 100
	l := Create(testDev(1<<16), 0, MinRegionSize+(runs+1)*EntrySize)
	var old [coherence.LineSize]byte
	addr := uint64(0)
	if avg := testing.AllocsPerRun(runs, func() {
		old[0]++
		if _, _, err := l.Append(1, addr, old, 0); err != nil {
			t.Fatal(err)
		}
		addr += coherence.LineSize
	}); avg != 0 {
		t.Fatalf("Append allocates %v times", avg)
	}
}

// TestEntryAtAllocatesNothing pins the read an open scan makes per entry at
// zero allocations. Entries Append wrote validate through the log's shared
// buffer, and one with a flipped byte does not.
func TestEntryAtAllocatesNothing(t *testing.T) {
	const runs = 100
	l := Create(testDev(1<<16), 0, MinRegionSize+(runs+1)*EntrySize)
	for i := 0; i <= runs; i++ {
		if _, _, err := l.Append(1, uint64(i)*coherence.LineSize, line(byte(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	virt := uint64(0)
	if avg := testing.AllocsPerRun(runs, func() {
		if e, ok := l.EntryAt(virt); !ok || e.Old[0] != byte(virt/EntrySize) {
			t.Fatalf("entry at %d = %+v, %v", virt, e, ok)
		}
		virt += EntrySize
	}); avg != 0 {
		t.Fatalf("EntryAt allocates %v times", avg)
	}
	addr := l.SlotAddr(0) + 30
	var b [1]byte
	l.dev.Read(addr, b[:], 0)
	b[0] ^= 1
	l.dev.Write(addr, b[:], 0)
	if _, ok := l.EntryAt(0); ok {
		t.Fatal("an entry with a flipped byte validates")
	}
}
