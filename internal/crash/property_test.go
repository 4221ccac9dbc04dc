package crash

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pax/internal/structures"
)

// TestPipelinedPersistCrashProperty drives the §6 non-blocking persist
// through crash exploration: with overlapping epochs, every crash point must
// still recover to the most recent epoch whose commit-cell write landed.
// The harness marks snapshot boundaries at the epoch-cell write itself, so
// pipelined commits are handled with no special cases.
func TestPipelinedPersistCrashProperty(t *testing.T) {
	h, err := NewHarness(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := h.Pool.Allocator().Alloc(4096)
	m := h.Pool.Mem(0)
	for epoch := 0; epoch < 6; epoch++ {
		for i := uint64(0); i < 24; i++ {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(epoch)<<32|i)
			m.Store(addr+i*64, b[:])
		}
		h.Pool.PersistPipelined()
	}
	h.Pool.Persist() // final barrier
	if err := h.VerifyAll(1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRandomWorkloadCrashProperty runs several random hash-map workloads
// with a random persist cadence, longer than TestStructureCrashProperty's
// scripts, and checks every 7th crash point, clean and torn, against the
// last committed snapshot's bytes.
func TestRandomWorkloadCrashProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h, err := NewHarness(testOptions())
			if err != nil {
				t.Fatal(err)
			}
			hm, err := structures.NewHashMap(h.Pool.Arena(), 16)
			if err != nil {
				t.Fatal(err)
			}
			h.Pool.SetRoot(0, hm.Addr())

			key := func(i int) []byte {
				b := make([]byte, 8)
				binary.LittleEndian.PutUint64(b, uint64(i))
				return b
			}
			ops := 60 + rng.Intn(60)
			sincePersist := 0
			for i := 0; i < ops; i++ {
				switch rng.Intn(4) {
				case 0, 1, 2:
					if err := hm.Put(key(rng.Intn(40)), key(rng.Intn(1000))); err != nil {
						t.Fatal(err)
					}
				case 3:
					hm.Delete(key(rng.Intn(40)))
				}
				sincePersist++
				if sincePersist >= 5+rng.Intn(20) {
					h.Persist()
					sincePersist = 0
				}
			}
			h.Persist()
			if err := h.VerifyAll(7, nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}
