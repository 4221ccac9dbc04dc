package workload

import (
	"encoding/binary"
	"testing"
)

func TestUniformCoversKeyspace(t *testing.T) {
	u := NewUniform(16, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		k := u.Next()
		if k >= 16 {
			t.Fatalf("key %d outside keyspace", k)
		}
		seen[k] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform covered %d/16 keys in 1000 draws", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.5, 1)
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		k := z.Next()
		if k >= 1000 {
			t.Fatalf("key %d outside keyspace", k)
		}
		counts[k]++
	}
	// Key 0 must be far more popular than the median key.
	if counts[0] < 20*counts[500]+20 {
		t.Fatalf("no zipf skew: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestSequentialWraps(t *testing.T) {
	s := NewSequential(3)
	got := []uint64{s.Next(), s.Next(), s.Next(), s.Next()}
	want := []uint64{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v", got)
		}
	}
}

func TestDistributionValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewUniform(0, 1) },
		func() { NewZipf(0, 1.5, 1) },
		func() { NewZipf(10, 1.0, 1) },
		func() { NewSequential(0) },
		func() { NewGenerator(Config{Keys: 10, KeySize: 4, ValueSize: 8}) },
		func() { NewGenerator(Config{Keys: 10, KeySize: 8, ValueSize: 8, ReadFraction: 2}) },
		func() { NewGenerator(Config{Keys: 10, KeySize: 8, ValueSize: 8, Dist: "bogus"}) },
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

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(Fig2bConfig(100))
	g2 := NewGenerator(Fig2bConfig(100))
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Kind != b.Kind || string(a.Key) != string(b.Key) || string(a.Value) != string(b.Value) {
			t.Fatalf("op %d diverged", i)
		}
	}
}

func TestFig2Configs(t *testing.T) {
	ga := NewGenerator(Fig2aConfig(1000))
	for _, op := range ops(ga, 100) {
		if op.Kind != Get {
			t.Fatal("fig2a must be read-only")
		}
		if len(op.Key) != 8 {
			t.Fatalf("key size %d", len(op.Key))
		}
	}
	gb := NewGenerator(Fig2bConfig(1000))
	for _, op := range ops(gb, 100) {
		if op.Kind != Put {
			t.Fatal("fig2b must be write-only")
		}
		if len(op.Value) != 8 {
			t.Fatalf("value size %d", len(op.Value))
		}
	}
}

func TestMakeKeyValueShape(t *testing.T) {
	g := NewGenerator(Config{Keys: 10, KeySize: 16, ValueSize: 24, Seed: 3})
	k := g.MakeKey(7)
	if len(k) != 16 || binary.LittleEndian.Uint64(k) != 7 {
		t.Fatalf("key %v", k)
	}
	v1, v2 := g.MakeValue(7), g.MakeValue(7)
	if len(v1) != 24 || string(v1) != string(v2) {
		t.Fatal("values not deterministic")
	}
	if string(g.MakeValue(8)) == string(v1) {
		t.Fatal("distinct keys share a value")
	}
}

func TestMixedReadFraction(t *testing.T) {
	g := NewGenerator(Config{Keys: 100, KeySize: 8, ValueSize: 8, ReadFraction: 0.5, Seed: 9})
	gets := 0
	for _, op := range ops(g, 2000) {
		if op.Kind == Get {
			gets++
		}
	}
	if gets < 800 || gets > 1200 {
		t.Fatalf("gets = %d of 2000 at 50%% read fraction", gets)
	}
}

// ops draws the generator's next n operations.
func ops(g *Generator, n int) []Op {
	out := make([]Op, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
