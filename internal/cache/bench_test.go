package cache

import (
	"testing"

	"pax/internal/coherence"
	"pax/internal/sim"
)

// sinkHome serves zero lines and drops write-backs, so a benchmark times the
// hierarchy alone.
type sinkHome struct{}

func (sinkHome) FetchLine(addr uint64, excl bool, buf []byte, at sim.Time) coherence.FillResult {
	clear(buf)
	return coherence.FillResult{State: coherence.Exclusive, Done: at}
}

func (sinkHome) UpgradeLine(addr uint64, at sim.Time) sim.Time { return at }

func (sinkHome) WriteBackLine(addr uint64, data []byte, at sim.Time) sim.Time { return at }

// benchCore returns core 0 of a default hierarchy whose one home spans
// `lines` lines from address 0.
func benchCore(lines int) *Core {
	h := NewHierarchy(sim.DefaultHost())
	h.AddRange(0, uint64(lines)*LineSize, sinkHome{})
	return h.Core(0)
}

var benchTime sim.Time

// BenchmarkCoreLoadHit times an 8-byte load that hits core 0's L1.
func BenchmarkCoreLoadHit(b *testing.B) {
	c := benchCore(1)
	var buf [8]byte
	c.Load(0, buf[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTime = c.Load(0, buf[:])
	}
}

// BenchmarkCoreStoreMiss times an 8-byte store that misses every level:
// core 0 stores to lines in order over twice the LLC's capacity, so each
// store fills from the home and evicts a dirty LLC line and an L2 line. One
// pass before the timer fills every way, so the slab has warmed up.
func BenchmarkCoreStoreMiss(b *testing.B) {
	span := 2 * sim.DefaultHost().LLC.SizeBytes / LineSize
	c := benchCore(span)
	var val [8]byte
	for i := 0; i < span; i++ {
		c.Store(uint64(i)*LineSize, val[:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTime = c.Store(uint64(i%span)*LineSize, val[:])
	}
}
