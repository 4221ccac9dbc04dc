// Package workload generates the key streams and operation mixes behind the
// paper's benchmarks: uniform and zipfian key distributions over fixed-size
// keyspaces, read/write mixes, and the specific workloads Figure 2 uses
// (single-thread uniform gets with 8 B keys/values; write-only puts).
//
// Generators are deterministic per seed, which the simulator requires for
// reproducible timings.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// OpKind is a workload operation type.
type OpKind uint8

const (
	// Get reads a key.
	Get OpKind = iota
	// Put writes a key/value pair.
	Put
)

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte // nil unless Kind == Put
}

// KeyDist draws key indexes in [0, n).
type KeyDist interface {
	Next() uint64
}

// Uniform draws keys uniformly at random.
type Uniform struct {
	n   uint64
	rng *rand.Rand
}

// NewUniform builds a uniform distribution over [0, n).
func NewUniform(n uint64, seed int64) *Uniform {
	if n == 0 {
		panic("workload: empty keyspace")
	}
	return &Uniform{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Next draws a key index.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// Zipf draws keys with a zipfian popularity skew (s > 1), the standard
// hot-set model for cache-friendliness experiments (the hbmsize ablation).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a zipfian distribution over [0, n) with parameter s.
func NewZipf(n uint64, s float64, seed int64) *Zipf {
	if n == 0 {
		panic("workload: empty keyspace")
	}
	if s <= 1 {
		panic("workload: zipf s must exceed 1")
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Next draws a key index.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Sequential walks the keyspace in order (the wamp experiment's dense
// pattern).
type Sequential struct {
	n, next uint64
}

// NewSequential builds a sequential walker over [0, n).
func NewSequential(n uint64) *Sequential {
	if n == 0 {
		panic("workload: empty keyspace")
	}
	return &Sequential{n: n}
}

// Next returns the next index, wrapping at n.
func (s *Sequential) Next() uint64 {
	v := s.next
	s.next = (s.next + 1) % s.n
	return v
}

// Config describes a generated workload.
type Config struct {
	// Keys is the keyspace size.
	Keys uint64
	// KeySize and ValueSize are payload sizes in bytes (8 B each in the
	// paper's Figure 2 benchmarks).
	KeySize, ValueSize int
	// ReadFraction in [0,1]: fraction of operations that are Gets; the rest
	// are Puts (Figure 2b uses 0 — write-only).
	ReadFraction float64
	// Dist selects the key distribution: "uniform", "zipf", "sequential".
	Dist string
	// ZipfS is the zipf parameter when Dist == "zipf".
	ZipfS float64
	// Seed drives all randomness.
	Seed int64
}

// Fig2aConfig is the paper's AMAT workload: single-threaded uniform random
// gets, 8 B keys and values, table much larger than the LLC.
func Fig2aConfig(keys uint64) Config {
	return Config{Keys: keys, KeySize: 8, ValueSize: 8, ReadFraction: 1.0, Dist: "uniform", Seed: 42}
}

// Fig2bConfig is the paper's throughput workload: write-only puts, 8 B keys
// and values, uniform.
func Fig2bConfig(keys uint64) Config {
	return Config{Keys: keys, KeySize: 8, ValueSize: 8, ReadFraction: 0.0, Dist: "uniform", Seed: 42}
}

// Generator produces a deterministic op stream from a Config.
type Generator struct {
	cfg  Config
	dist KeyDist
	rng  *rand.Rand
}

// NewGenerator builds a generator; invalid configs panic (harness bugs, not
// runtime conditions).
func NewGenerator(cfg Config) *Generator {
	if cfg.KeySize < 8 {
		panic("workload: key size must be ≥ 8 (holds the key index)")
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		panic("workload: read fraction outside [0,1]")
	}
	var dist KeyDist
	switch cfg.Dist {
	case "uniform", "":
		dist = NewUniform(cfg.Keys, cfg.Seed)
	case "zipf":
		s := cfg.ZipfS
		if s == 0 {
			s = 1.2
		}
		dist = NewZipf(cfg.Keys, s, cfg.Seed)
	case "sequential":
		dist = NewSequential(cfg.Keys)
	default:
		panic(fmt.Sprintf("workload: unknown distribution %q", cfg.Dist))
	}
	return &Generator{cfg: cfg, dist: dist, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x1E3779B97F4A7C15))}
}

// MakeKey encodes key index i as a cfg.KeySize-byte key.
func (g *Generator) MakeKey(i uint64) []byte {
	k := make([]byte, g.cfg.KeySize)
	binary.LittleEndian.PutUint64(k, i)
	return k
}

// MakeValue builds a deterministic cfg.ValueSize-byte value for key i.
func (g *Generator) MakeValue(i uint64) []byte {
	v := make([]byte, g.cfg.ValueSize)
	for off := 0; off < len(v); off += 8 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], i^math.Float64bits(float64(off+1)))
		copy(v[off:], b[:])
	}
	return v
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	i := g.dist.Next()
	r := g.rng.Float64()
	if r < g.cfg.ReadFraction {
		return Op{Kind: Get, Key: g.MakeKey(i)}
	}
	return Op{Kind: Put, Key: g.MakeKey(i), Value: g.MakeValue(i)}
}
