package server

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

func TestSlotForRangeAndDeterminism(t *testing.T) {
	seen := make(map[int]int)
	for i := 0; i < 20_000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		s := SlotFor(key)
		if s < 0 || s >= NumSlots {
			t.Fatalf("SlotFor(%q) = %d, out of [0,%d)", key, s, NumSlots)
		}
		if again := SlotFor(key); again != s {
			t.Fatalf("SlotFor(%q) not deterministic: %d then %d", key, s, again)
		}
		seen[s]++
	}
	// FNV over a realistic keyspace should touch every slot; an unhit slot
	// means the hash or the modulus is wrong.
	if len(seen) != NumSlots {
		t.Fatalf("20k keys hit only %d/%d slots", len(seen), NumSlots)
	}
}

// The slot hash must be FNV-1a — the same hash the pre-slot-map router used —
// so DefaultSlotMap(n) with n dividing NumSlots reproduces the legacy
// FNV-mod-n routing exactly and power-of-two layouts adopt with zero
// movement.
func TestSlotForMatchesLegacyFNVRouting(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		m := DefaultSlotMap(n)
		for i := 0; i < 2_000; i++ {
			key := []byte(fmt.Sprintf("legacy-%d", i))
			h := fnv.New64a()
			h.Write(key)
			legacy := int(h.Sum64() % uint64(n))
			if got := int(m.Assign[SlotFor(key)]); got != legacy {
				t.Fatalf("n=%d key %q: slot route %d, legacy FNV-mod route %d", n, key, got, legacy)
			}
		}
	}
}

func TestSlotMapSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.pool")

	m := DefaultSlotMap(3)
	m.Seq = 17
	m.Assign[9] = 2
	if err := m.Save(nil, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSlotMap(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("LoadSlotMap returned nil for a saved map")
	}
	if got.Seq != 17 || got.Shards != 3 || got.Assign != m.Assign {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}

	// No file is not an error — it is the legacy layout.
	if m2, err := LoadSlotMap(nil, filepath.Join(dir, "absent.pool")); m2 != nil || err != nil {
		t.Fatalf("missing slot map: %+v %v", m2, err)
	}

	// Corruption and invalid contents are refused, not guessed at.
	if err := os.WriteFile(SlotMapPath(path), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSlotMap(nil, path); err == nil {
		t.Fatal("corrupt slot map accepted")
	}
	bad := DefaultSlotMap(2)
	bad.Assign[0] = 7 // points past Shards
	if err := bad.Save(nil, path); err == nil {
		t.Fatal("Save accepted an assignment past the shard count")
	}
}

// A saved slot map must survive a process restart bit-for-bit: the key→shard
// route is a pure function of the persisted assignment, never of the open
// order or shard-count flag.
func TestSlotMapRouteStableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, 3, Config{MaxBatch: 8})

	route := make(map[string]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("stable-%04d", i)
		route[key] = eng.ShardFor([]byte(key))
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	seq := eng.Route().Seq
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := newSharded(t, pool, 3, Config{})
	defer re.Close()
	if got := re.Route().Seq; got != seq {
		t.Fatalf("slot map seq changed across reopen: %d -> %d", seq, got)
	}
	for key, shard := range route {
		if got := re.ShardFor([]byte(key)); got != shard {
			t.Fatalf("key %s rerouted %d -> %d across reopen", key, shard, got)
		}
	}
}
