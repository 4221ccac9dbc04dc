package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pax/internal/device"
	"pax/internal/hbm"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/undolog"
)

// The word differential runs over sim.SmallHost in front of a PAX device
// with a 4 KiB HBM cache: vPM is twice the LLC and eight times the HBM, so
// most steps evict, upgrade, recall or write back somewhere.
const (
	wordSpace    = 1 << 15
	wordLogBase  = 64
	wordLogSize  = 64 << 10
	wordDataBase = wordLogBase + wordLogSize
)

// paxSide is one hierarchy over a PAX device home.
type paxSide struct {
	h   *Hierarchy
	dev *device.Device
}

func newPAXSide() *paxSide {
	pm := pmem.New(pmem.DefaultConfig(wordDataBase + wordSpace))
	log := undolog.Create(pm, wordLogBase, wordLogSize)
	cfg := device.Config{Link: sim.CXLLink, HBMSize: 4 << 10, HBMWays: 2, Policy: hbm.PreferDurable}
	dev := device.New(cfg, pm, 0, wordDataBase, wordSpace, log, 0, 1)
	h := NewHierarchy(sim.SmallHost())
	h.AddRange(0, wordSpace, dev)
	dev.AttachHost(h)
	return &paxSide{h: h, dev: dev}
}

// counts is everything the model counts that a word access could change.
type counts struct {
	clocks                    [4]sim.Time
	l1, l2                    [4][2]uint64
	llc                       [2]uint64
	upgrades, fills, wbs      uint64
	appends, h2dB, d2hB, sent uint64
}

func (s *paxSide) counts() counts {
	var c counts
	for i := range c.clocks {
		core := s.h.Core(i)
		c.clocks[i] = core.Now()
		c.l1[i] = [2]uint64{core.l1.Ratio.Hits.Load(), core.l1.Ratio.Misses.Load()}
		c.l2[i] = [2]uint64{core.l2.Ratio.Hits.Load(), core.l2.Ratio.Misses.Load()}
	}
	c.llc = [2]uint64{s.h.LLCRatio.Hits.Load(), s.h.LLCRatio.Misses.Load()}
	c.upgrades, c.fills, c.wbs = s.h.Upgrades.Load(), s.dev.Stats.FillsServed.Load(), s.h.WriteBacks.Load()
	c.appends = s.dev.Log().Appends()
	c.h2dB, c.d2hB = s.dev.Link().H2DBandwidth().Bytes(), s.dev.Link().D2HBandwidth().Bytes()
	c.sent = s.dev.Stats.SnoopsSent.Load()
	return c
}

// wordStep is one step of the differential: a 4- or 8-byte access by a
// core, or a persist.
type wordStep struct {
	core    int
	persist bool
	store   bool
	addr    uint64
	n       int
	v       uint64
}

func (st wordStep) String() string {
	if st.persist {
		return fmt.Sprintf("core %d persist", st.core)
	}
	op := "load"
	if st.store {
		op = "store"
	}
	return fmt.Sprintf("core %d %s%d %#x (line offset %d)", st.core, op, 8*st.n, st.addr, st.addr%LineSize)
}

// randomWordSteps draws n steps over cores 0 and 1, one in four of them on
// a word that straddles two lines.
func randomWordSteps(seed int64, n int) []wordStep {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]wordStep, n)
	for i := range steps {
		st := wordStep{core: rng.Intn(2), n: 4 << rng.Intn(2)}
		switch r := rng.Intn(100); {
		case r < 2:
			st.persist = true
		default:
			st.store = r < 50
		}
		la := uint64(rng.Intn(wordSpace/LineSize-1)) * LineSize
		if rng.Intn(4) == 0 {
			st.addr = la + LineSize - uint64(1+rng.Intn(st.n-1)) // straddles
		} else {
			st.addr = la + uint64(rng.Intn(LineSize-st.n+1))
		}
		st.v = rng.Uint64()
		steps[i] = st
	}
	return steps
}

// byteStep runs st through Load and Store of the word's bytes. It returns
// the word loaded, or a persist's completion time.
func byteStep(s *paxSide, st wordStep) uint64 {
	c := s.h.Core(st.core)
	var b [8]byte
	switch {
	case st.persist:
		return uint64(s.dev.Persist(c.Now()).Done)
	case st.store:
		binary.LittleEndian.PutUint64(b[:], st.v)
		c.Store(st.addr, b[:st.n])
	default:
		c.Load(st.addr, b[:st.n])
	}
	return binary.LittleEndian.Uint64(b[:])
}

// wordStepOn runs st through the word accessors.
func wordStepOn(s *paxSide, st wordStep) uint64 {
	c := s.h.Core(st.core)
	switch {
	case st.persist:
		return uint64(s.dev.Persist(c.Now()).Done)
	case st.store && st.n == 8:
		c.StoreU64(st.addr, st.v)
	case st.store:
		c.StoreU32(st.addr, uint32(st.v))
	case st.n == 8:
		return c.LoadU64(st.addr)
	default:
		return uint64(c.LoadU32(st.addr))
	}
	return 0
}

// TestWordPathMatchesBytePath drives two PAX hierarchies with the same
// seeded steps, one through 4/8-byte Load and Store and one through the word
// accessors, and requires the same loaded values, core clocks, hit/miss
// counts, coherence events, undo-log appends and link bytes after every
// step, and the same bytes everywhere at the end.
func TestWordPathMatchesBytePath(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a, b := newPAXSide(), newPAXSide()
		steps := randomWordSteps(seed, 4000)
		straddled := false
		for i, st := range steps {
			va, vb := byteStep(a, st), wordStepOn(b, st)
			if !st.store && va != vb {
				t.Fatalf("seed %d step %d (%v): byte path returned %#x, word path %#x", seed, i, st, va, vb)
			}
			if ca, cb := a.counts(), b.counts(); ca != cb {
				t.Fatalf("seed %d step %d (%v): byte path counts\n%+v\nword path\n%+v", seed, i, st, ca, cb)
			}
			straddled = straddled || (!st.persist && straddles(st.addr, st.n))
		}
		if c := a.counts(); c.upgrades == 0 || c.wbs == 0 || c.appends == 0 || c.sent == 0 {
			t.Fatalf("seed %d: the steps never upgraded, wrote back or persisted: %+v", seed, c)
		}
		if !straddled {
			t.Fatalf("seed %d: no straddling word", seed)
		}
		bufA, bufB := make([]byte, wordSpace), make([]byte, wordSpace)
		a.h.Core(0).Load(0, bufA)
		b.h.Core(0).Load(0, bufB)
		if string(bufA) != string(bufB) {
			t.Fatalf("seed %d: the two sides hold different bytes", seed)
		}
		mustInvariants(t, a.h)
		mustInvariants(t, b.h)
	}
}

// TestWordPathConcurrentCores drives two cores of one PAX hierarchy from two
// goroutines, each mixing word accessors with Load and Store on one shared
// range, so the race detector sees the word path take the hierarchy lock as
// Load and Store do. Each goroutine owns the odd or even words it stores and
// checks it reads them back. No step persists: persist() must not overlap
// mutations (§3.5), and the undo log holds every line of the range.
func TestWordPathConcurrentCores(t *testing.T) {
	s := newPAXSide()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.h.Core(g)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				addr := uint64(rng.Intn(wordSpace/16))*16 + uint64(8*g)
				v := rng.Uint64()
				if i%2 == 0 {
					c.StoreU64(addr, v)
				} else {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], v)
					c.Store(addr, b[:])
				}
				if got := c.LoadU64(addr); got != v {
					t.Errorf("core %d: %#x read back %#x, stored %#x", g, addr, got, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	mustInvariants(t, s.h)
}

// TestWordAccessAllocatesNothing pins the word accessors at zero
// allocations on an L1 hit and on a store that misses everywhere and evicts
// a dirty LLC victim to the PAX device.
func TestWordAccessAllocatesNothing(t *testing.T) {
	s := newPAXSide()
	c := s.h.Core(0)
	c.StoreU64(8, 1)
	if avg := testing.AllocsPerRun(100, func() {
		c.StoreU64(8, c.LoadU64(8)+1)
	}); avg != 0 {
		t.Errorf("an L1 hit allocates %v times", avg)
	}

	// Eight lines one LLC set apart cycle through a 4-way set: every store
	// misses, and its victim is the dirty line stored four steps before.
	setStride := uint64(sim.SmallHost().LLC.SizeBytes / sim.SmallHost().LLC.Ways)
	next := uint64(0)
	store := func() {
		c.StoreU64(next%8*setStride, next)
		next++
	}
	for i := 0; i < 8; i++ {
		store()
	}
	wbs, misses := s.h.WriteBacks.Load(), s.h.LLCRatio.Misses.Load()
	const runs = 100
	if avg := testing.AllocsPerRun(runs, store); avg != 0 {
		t.Errorf("a miss that evicts a dirty LLC victim allocates %v times", avg)
	}
	if got := s.h.WriteBacks.Load() - wbs; got != runs+1 {
		t.Errorf("%d stores wrote back %d dirty LLC victims", runs+1, got)
	}
	if got := s.h.LLCRatio.Misses.Load() - misses; got != runs+1 {
		t.Errorf("%d stores missed the LLC %d times", runs+1, got)
	}
}
