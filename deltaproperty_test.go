package pax_test

// Recovery-equivalence property tests for the epoch store: a pool driven
// through random ops, persists and crashes must recover, after every
// restart, to media byte-identical to the image captured in memory right
// after its last acknowledged Persist — (checkpoint + replayed deltas) IS
// that image — everywhere but the undo ring's dead slots. Those are the one
// exception: a commit record leaves out the entries the log truncated before
// it (pmem.Discard), so a dead slot holds whatever an older commit left
// there. A torn final append must recover to the previous committed epoch.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pax"
	"pax/internal/epochlog"
	"pax/internal/undolog"
)

// copyPoolState clones a pool's on-disk durable state (checkpoint file plus
// segment directory) — the image a crash at this instant would leave.
func copyPoolState(t *testing.T, src, dst string) {
	t.Helper()
	img, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, img, 0o644); err != nil {
		t.Fatal(err)
	}
	srcDir := src + epochlog.DirSuffix
	entries, err := os.ReadDir(srcDir)
	if errors.Is(err, os.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst+epochlog.DirSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst+epochlog.DirSuffix, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// zeroDeadSlots zeroes, in a copy of img, every undo-ring slot outside the
// live window [tail, head) of log, the only bytes a recovered image may hold
// differently from the image at the last acknowledged Persist.
func zeroDeadSlots(img []byte, log *undolog.Log) []byte {
	out := bytes.Clone(img)
	ring := uint64(log.CapacityEntries()) * undolog.EntrySize
	for virt := log.Head(); virt < log.Tail()+ring; virt += undolog.EntrySize {
		clear(out[log.SlotAddr(virt):][:undolog.EntrySize])
	}
	return out
}

// checkNoEntryPastHead fails if any slot of the ring's next lap validates:
// Open's head scan must stop where the recovered log says it does.
func checkNoEntryPastHead(t *testing.T, log *undolog.Log) {
	t.Helper()
	ring := uint64(log.CapacityEntries()) * undolog.EntrySize
	for virt := log.Head(); virt < log.Head()+ring; virt += undolog.EntrySize {
		if _, ok := log.EntryAt(virt); ok {
			t.Fatalf("slot at virtual offset %d validates past the recovered head %d", virt, log.Head())
		}
	}
}

func TestEpochLogMatchesFullImageAcrossRestarts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "delta.pool")
			pool, err := pax.MapPool(path, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			// The reference: the full media image as of the last acknowledged
			// Persist (CreatePool's format commit is the first).
			snapshot := func() []byte {
				return zeroDeadSlots(pool.Internal().PM().Snapshot(), pool.Internal().Device().Log())
			}
			want := snapshot()
			m, err := pax.NewMap(pool, 0)
			if err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 5; round++ {
				ops := 10 + rng.Intn(40)
				for i := 0; i < ops; i++ {
					k := []byte(fmt.Sprintf("k%03d", rng.Intn(60)))
					if rng.Intn(4) == 0 {
						_, err = m.Delete(k)
					} else {
						err = m.Put(k, []byte(fmt.Sprintf("v%06d", rng.Intn(1_000_000))))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(2) == 0 {
					if _, err := pool.Persist(); err != nil {
						t.Fatal(err)
					}
					want = snapshot()
				}
				if rng.Intn(3) == 0 {
					// Crash — drop the device without syncing anything more —
					// and reopen: the recovered media must equal the image at
					// the last acknowledged Persist, byte for byte.
					pool.Internal().PM().Close()
					pool, err = pax.MapPool(path, smallOpts())
					if err != nil {
						t.Fatal(err)
					}
					checkNoEntryPastHead(t, pool.Internal().Device().Log())
					got := snapshot()
					if !bytes.Equal(got, want) {
						off := 0
						for got[off] == want[off] {
							off++
						}
						t.Fatalf("round %d: recovered media diverges at offset %#x (want=%x got=%x)",
							round, off, want[off], got[off])
					}
					if m, err = pax.NewMap(pool, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			pool.Close()
		})
	}
}

// TestEpochLogTornTailRecoversPreviousCommit cuts the final delta append
// mid-record — the crash the commit marker exists to catch — and verifies
// the pool recovers to the previous committed epoch, not to garbage and not
// to the torn epoch.
func TestEpochLogTornTailRecoversPreviousCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.pool")
	pool, err := pax.CreatePool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Committed state: batch A.
	for i := 0; i < 16; i++ {
		if err := m.Put([]byte(fmt.Sprintf("a%02d", i)), []byte("committed")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	epochA := pool.DurableEpoch()

	// Batch B commits too — and then its append is torn.
	for i := 0; i < 16; i++ {
		if err := m.Put([]byte(fmt.Sprintf("b%02d", i)), []byte("torn")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}

	torn := filepath.Join(dir, "torn.pool")
	copyPoolState(t, path, torn)
	pool.Close()

	// Cut into the newest segment's trailer: the last record loses its
	// commit marker, exactly as if the crash hit mid-append.
	segs, err := filepath.Glob(filepath.Join(torn+epochlog.DirSuffix, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in torn copy: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	re, err := pax.OpenPool(torn, smallOpts())
	if err != nil {
		t.Fatalf("opening torn pool: %v", err)
	}
	defer re.Close()
	if !re.Internal().PM().ReplayInfo().TornTail {
		t.Fatal("replay did not report the torn tail")
	}
	if got := re.DurableEpoch(); got != epochA {
		t.Fatalf("recovered durable epoch = %d, want %d (previous commit)", got, epochA)
	}
	rm, err := pax.NewMap(re, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		v, ok := rm.Get([]byte(fmt.Sprintf("a%02d", i)))
		if !ok || string(v) != "committed" {
			t.Fatalf("committed key a%02d lost: %q %v", i, v, ok)
		}
		if _, ok := rm.Get([]byte(fmt.Sprintf("b%02d", i))); ok {
			t.Fatalf("torn key b%02d survived the cut append", i)
		}
	}
}

// TestRawImagePoolGainsALog: a pool file with no epoch log — a full-image
// pool an older build wrote, or paxrecover's output — opens through
// OpenPool as a checkpoint, keeps its keys, and its first commit starts the
// log that a crash then recovers from.
func TestRawImagePoolGainsALog(t *testing.T) {
	mem, err := pax.CreatePool("", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := pax.NewMap(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put([]byte("old"), []byte("in the image")); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Persist(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "raw.pool")
	if err := os.WriteFile(path, mem.Internal().PM().Snapshot(), 0o644); err != nil {
		t.Fatal(err)
	}

	pool, err := pax.OpenPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if m, err = pax.NewMap(pool, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Put([]byte("new"), []byte("in the log")); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	if has, err := epochlog.HasSegments(path + epochlog.DirSuffix); err != nil || !has {
		t.Fatalf("first commit started no epoch log: %v %v", has, err)
	}
	pool.Internal().PM().Close() // crash: nothing more reaches the disk

	re, err := pax.OpenPool(path, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rm, err := pax.NewMap(re, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"old": "in the image", "new": "in the log"} {
		if v, ok := rm.Get([]byte(k)); !ok || string(v) != want {
			t.Fatalf("%s after the crash = %q %v, want %q", k, v, ok, want)
		}
	}
}
