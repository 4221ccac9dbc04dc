package crash

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pax/internal/core"
	"pax/internal/memory"
	"pax/internal/structures"
)

// This file checks the paper's first claim (§3.1) for every structure the
// library ships: an unmodified volatile structure over vPM recovers, from any
// crash, to exactly what the program had written by its last persist. Each
// structure runs a script beside a Go reference model; at every crash point
// the recovered structure must equal the model as of the recovered persist,
// and must then take one more op and a persist.

// A step is one scripted op. Each structure reads code and arg its own way;
// a code with its high bit set persists after its op.
type step struct{ code, arg byte }

const persistBit = 0x80

// decodeScript reads a script of (code, arg) byte pairs, at most max steps.
func decodeScript(b []byte, max int) []step {
	var steps []step
	for i := 0; i+1 < len(b) && len(steps) < max; i += 2 {
		steps = append(steps, step{b[i], b[i+1]})
	}
	return steps
}

// genScript draws a 64-step script whose epochs are 3 to 12 steps long.
func genScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	left := 0
	for i := 0; i < 64; i++ {
		if left == 0 {
			left = 3 + rng.Intn(10)
		}
		left--
		code := byte(rng.Intn(persistBit))
		if left == 0 {
			code |= persistBit
		}
		b = append(b, code, byte(rng.Intn(256)))
	}
	return b
}

// A subject is one structure, or its reference model, driven by steps.
type subject interface {
	// do applies s and reports what the op observed (a popped record, a
	// delete's hit), so structure and model can be compared op by op.
	do(s step) (string, error)
	size() int
	// dump renders the contents in a canonical order.
	dump() string
}

// maxEntries bounds a structure's walk: a script holds at most 65 entries,
// and a recovered structure whose links form a cycle must fail, not hang.
const maxEntries = 256

func dump(n int, entries []string, sorted bool) string {
	if sorted {
		sort.Strings(entries)
	}
	return fmt.Sprintf("len %d: %s", n, strings.Join(entries, " "))
}

// A kind is one shipped structure: how to make, reopen and model it, the
// seed of its table script, and which steps rewrite it.
type kind struct {
	name   string
	seed   int64
	create func(memory.Allocator) (subject, uint64, error)
	open   func(memory.Allocator, uint64) subject
	model  func() subject
	// rewrote reports whether a step rewrote the structure, from the
	// allocations the step made and the model's size before and after it.
	rewrote func(allocs, before, after int) bool
}

var kinds = []kind{
	{
		name: "HashMap", seed: 1,
		create: func(a memory.Allocator) (subject, uint64, error) {
			hm, err := structures.NewHashMap(a, 8)
			if err != nil {
				return nil, 0, err
			}
			return hashMap{hm}, hm.Addr(), nil
		},
		open:  func(a memory.Allocator, addr uint64) subject { return hashMap{structures.OpenHashMap(a, addr)} },
		model: func() subject { return &mapModel[string, string]{vals: map[string]string{}, decode: hashMapStep} },
		// An insert allocates its node; one that also allocates a bucket
		// array is HashMap.grow, which relinks every chain.
		rewrote: func(allocs, _, _ int) bool { return allocs >= 2 },
	},
	{
		name: "BTree", seed: 2,
		create: func(a memory.Allocator) (subject, uint64, error) {
			bt, err := structures.NewBTree(a)
			if err != nil {
				return nil, 0, err
			}
			return bTree{bt}, bt.Addr(), nil
		},
		open:  func(a memory.Allocator, addr uint64) subject { return bTree{structures.OpenBTree(a, addr)} },
		model: func() subject { return &mapModel[uint64, uint64]{vals: map[uint64]uint64{}, decode: bTreeStep} },
		// A put allocates only for splitChild's new sibling (and a new root).
		rewrote: func(allocs, _, _ int) bool { return allocs >= 1 },
	},
	{
		name: "Queue", seed: 3,
		create: func(a memory.Allocator) (subject, uint64, error) {
			q, err := structures.NewQueue(a)
			if err != nil {
				return nil, 0, err
			}
			return queue{q}, q.Addr(), nil
		},
		open:  func(a memory.Allocator, addr uint64) subject { return queue{structures.OpenQueue(a, addr)} },
		model: func() subject { return &queueModel{} },
		// Draining to empty resets the head and tail pointers; the refill
		// that follows in the same epoch sets them again.
		rewrote: func(_, before, after int) bool { return before > 0 && after == 0 },
	},
	{
		name: "Vector", seed: 5,
		create: func(a memory.Allocator) (subject, uint64, error) {
			v, err := structures.NewVector(a, 8, 4)
			if err != nil {
				return nil, 0, err
			}
			return vector{v}, v.Addr(), nil
		},
		open:  func(a memory.Allocator, addr uint64) subject { return vector{structures.OpenVector(a, addr)} },
		model: func() subject { return &vectorModel{} },
		// A push allocates only in Vector.grow, which copies every element.
		rewrote: func(allocs, _, _ int) bool { return allocs >= 1 },
	},
}

// hashMapStep decodes a map step: code%4 == 3 deletes, the rest put a value
// whose letter and length follow code, so replacements change both.
func hashMapStep(s step) (del bool, k, v string) {
	c := s.code &^ persistBit
	return c%4 == 3, fmt.Sprintf("k%02d", s.arg%40), strings.Repeat(string(rune('a'+c%26)), 1+int(c/4)%16)
}

// bTreeStep decodes a tree step: code%4 == 3 deletes, the rest put.
func bTreeStep(s step) (del bool, k, v uint64) {
	c := s.code &^ persistBit
	return c%4 == 3, uint64(s.arg), uint64(c)<<8 | uint64(s.arg)
}

// mapModel is the reference for both maps. It walks its keys in insertion
// order, not a Go map's random order, so that a run's coverage is a function
// of its input, as the fuzzer needs.
type mapModel[K, V comparable] struct {
	keys   []K
	vals   map[K]V
	decode func(step) (bool, K, V)
}

func (m *mapModel[K, V]) do(s step) (string, error) {
	del, k, v := m.decode(s)
	_, had := m.vals[k]
	if del {
		if had {
			m.keys = slices.DeleteFunc(m.keys, func(x K) bool { return x == k })
			delete(m.vals, k)
		}
		return fmt.Sprint(had), nil
	}
	if !had {
		m.keys = append(m.keys, k)
	}
	m.vals[k] = v
	return "", nil
}

func (m *mapModel[K, V]) size() int { return len(m.keys) }

func (m *mapModel[K, V]) dump() string {
	var e []string
	for _, k := range m.keys {
		e = append(e, entry(k, m.vals[k]))
	}
	return dump(len(e), e, true)
}

// entry renders one map entry the same way for model and structure.
func entry(k, v any) string {
	if _, ok := k.(string); ok {
		return fmt.Sprintf("%q=%q", k, v)
	}
	return fmt.Sprintf("%d=%d", k, v)
}

type hashMap struct{ *structures.HashMap }

func (h hashMap) do(s step) (string, error) {
	del, k, v := hashMapStep(s)
	if del {
		ok, err := h.Delete([]byte(k))
		return fmt.Sprint(ok), err
	}
	return "", h.Put([]byte(k), []byte(v))
}

func (h hashMap) size() int { return int(h.Len()) }

func (h hashMap) dump() string {
	var e []string
	h.ForEach(func(k, v []byte) bool {
		e = append(e, entry(string(k), string(v)))
		return len(e) <= maxEntries
	})
	return dump(h.size(), e, true)
}

type bTree struct{ *structures.BTree }

func (t bTree) do(s step) (string, error) {
	del, k, v := bTreeStep(s)
	if del {
		return fmt.Sprint(t.Delete(k)), nil
	}
	return "", t.Put(k, v)
}

func (t bTree) size() int { return int(t.Len()) }

func (t bTree) dump() string {
	if err := t.CheckInvariants(); err != nil {
		return err.Error()
	}
	var e []string
	t.Scan(0, func(k, v uint64) bool {
		e = append(e, entry(k, v))
		return len(e) <= maxEntries
	})
	return dump(t.size(), e, true)
}

// queueStep decodes a queue step: code%4 < 2 pushes a record whose letter
// follows code and length arg, the rest pop. Pushes and pops are equally
// likely, so a script drains the queue and refills it again and again.
func queueStep(s step) (push bool, payload string) {
	c := s.code &^ persistBit
	return c%4 < 2, strings.Repeat(string(rune('a'+c%26)), 1+int(s.arg)%24)
}

type queueModel struct{ q []string }

func (m *queueModel) do(s step) (string, error) {
	push, p := queueStep(s)
	if push {
		m.q = append(m.q, p)
		return "", nil
	}
	if len(m.q) == 0 {
		return "empty", nil
	}
	p, m.q = m.q[0], m.q[1:]
	return p, nil
}

func (m *queueModel) size() int { return len(m.q) }

func (m *queueModel) dump() string { return dump(len(m.q), append([]string(nil), m.q...), false) }

type queue struct{ *structures.Queue }

func (q queue) do(s step) (string, error) {
	push, p := queueStep(s)
	if push {
		return "", q.Push([]byte(p))
	}
	got, ok, err := q.Pop()
	if !ok {
		return "empty", err
	}
	return string(got), err
}

func (q queue) size() int { return int(q.Len()) }

func (q queue) dump() string {
	var e []string
	q.ForEach(func(p []byte) bool {
		e = append(e, string(p))
		return len(e) <= maxEntries
	})
	return dump(q.size(), e, false)
}

// vectorStep decodes a vector step: code%8 < 5 pushes, 5 pops, 6 and 7 set
// element arg%len. Elements are 8 bytes stamped with code and arg.
func vectorStep(s step) (op int, elem string) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(s.code)<<8|uint64(s.arg))
	switch c := s.code &^ persistBit; {
	case c%8 < 5:
		return 0, string(b[:])
	case c%8 == 5:
		return 1, ""
	default:
		return 2, string(b[:])
	}
}

type vectorModel struct{ v []string }

func (m *vectorModel) do(s step) (string, error) {
	op, e := vectorStep(s)
	switch {
	case op == 0:
		m.v = append(m.v, e)
	case len(m.v) == 0:
		return "empty", nil
	case op == 1:
		last := m.v[len(m.v)-1]
		m.v = m.v[:len(m.v)-1]
		return last, nil
	default:
		m.v[int(s.arg)%len(m.v)] = e
	}
	return "", nil
}

func (m *vectorModel) size() int { return len(m.v) }

func (m *vectorModel) dump() string {
	e := make([]string, len(m.v))
	for i, x := range m.v {
		e[i] = fmt.Sprintf("%x", x)
	}
	return dump(len(e), e, false)
}

type vector struct{ *structures.Vector }

func (v vector) do(s step) (string, error) {
	op, e := vectorStep(s)
	n := v.Len()
	switch {
	case op == 0:
		return "", v.Push([]byte(e))
	case n == 0:
		return "empty", nil
	case op == 1:
		buf := make([]byte, 8)
		v.Pop(buf)
		return string(buf), nil
	default:
		v.Set(uint64(s.arg)%n, []byte(e))
	}
	return "", nil
}

func (v vector) size() int { return int(v.Len()) }

func (v vector) dump() string {
	e := make([]string, min(v.Len(), maxEntries+1))
	buf := make([]byte, 8)
	for i := range e {
		v.Get(uint64(i), buf)
		e[i] = fmt.Sprintf("%x", buf)
	}
	return dump(v.size(), e, false)
}

// countingAlloc counts the allocations a step makes, which is how the
// driver sees a rewrite without reading the structure's layout.
type countingAlloc struct {
	memory.Allocator
	allocs int
}

func (c *countingAlloc) Alloc(size uint64) (uint64, error) {
	c.allocs++
	return c.Allocator.Alloc(size)
}

// runScript drives k through steps on a fresh harness, beside its model,
// rooting the structure at slot 0 and persisting once before the first step,
// wherever a step says and after the last. applied[i] is the number of steps
// the i-th persist's snapshot holds (-1 for Create's, which has no root).
// crossed reports whether some epoch rewrote the structure with a step on
// each side of the rewrite, the last leaving it non-empty.
func runScript(t testing.TB, k kind, steps []step) (h *Harness, applied []int, crossed bool) {
	opts := testOptions()
	opts.DataSize, opts.LogSize = 64<<10, 64<<10
	h, err := NewHarness(opts)
	if err != nil {
		t.Fatal(err)
	}
	alloc := &countingAlloc{Allocator: h.Pool.Arena()}
	s, addr, err := k.create(alloc)
	if err != nil {
		t.Fatal(err)
	}
	h.Pool.SetRoot(0, addr)
	h.Persist()
	applied = []int{-1, 0}
	m := k.model()
	epochStart, rewroteInside := 0, false
	for i, st := range steps {
		before := m.size()
		alloc.allocs = 0
		got, err := s.do(st)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if want, _ := m.do(st); got != want {
			t.Fatalf("step %d %+v: structure saw %q, model %q", i, st, got, want)
		}
		if rewroteInside && m.size() > 0 {
			crossed = true
		}
		if i > epochStart && k.rewrote(alloc.allocs, before, m.size()) {
			rewroteInside = true
		}
		if st.code&persistBit != 0 || i == len(steps)-1 {
			h.Persist()
			applied = append(applied, i+1)
			epochStart, rewroteInside = i+1, false
		}
	}
	if got, want := s.dump(), m.dump(); got != want {
		t.Fatalf("after the script: structure %s, model %s", got, want)
	}
	if len(h.persistMarks) != len(applied) {
		t.Fatalf("%d snapshot boundaries for %d persists", len(h.persistMarks), len(applied))
	}
	return h, applied, crossed
}

// checkRecovered is the property at one crash point: the recovered structure
// equals the model replayed to the recovered persist, and it then takes the
// script's next step (or a first step's worth if none is left) and a persist.
func checkRecovered(k kind, steps []step, applied []int) Check {
	return func(pool *core.Pool, snap int) error {
		n, root := applied[snap], pool.Root(0)
		if n < 0 {
			if root != 0 {
				return fmt.Errorf("root %#x set before the persist that set it", root)
			}
			return nil
		}
		if root == 0 {
			return fmt.Errorf("root lost")
		}
		s, m := k.open(pool.Arena(), root), k.model()
		for _, st := range steps[:n] {
			m.do(st)
		}
		if got, want := s.dump(), m.dump(); got != want {
			return fmt.Errorf("recovered %s, want %s", got, want)
		}
		next := step{}
		if n < len(steps) {
			next = steps[n]
		}
		got, err := s.do(next)
		if err != nil {
			return fmt.Errorf("op after recovery: %v", err)
		}
		if want, _ := m.do(next); got != want {
			return fmt.Errorf("op after recovery saw %q, model %q", got, want)
		}
		if _, err := pool.Persist(); err != nil {
			return fmt.Errorf("persist after recovery: %v", err)
		}
		if got, want := s.dump(), m.dump(); got != want {
			return fmt.Errorf("after one more op and a persist: %s, want %s", got, want)
		}
		return nil
	}
}

// TestStructureCrashProperty checks every crash point, clean and torn, of a
// 64-step script for each shipped structure, and that each script rewrites
// its structure inside an epoch.
func TestStructureCrashProperty(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			steps := decodeScript(genScript(k.seed), 64)
			h, applied, crossed := runScript(t, k, steps)
			if !crossed {
				t.Fatalf("script (seed %d) never rewrites the %s inside an epoch", k.seed, k.name)
			}
			if err := h.VerifyAll(1, checkRecovered(k, steps, applied)); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d steps, %d persists, %d crash points, each clean and torn", len(steps), len(applied)-1, h.CrashPoints())
		})
	}
}

// FuzzStructureCrash decodes its input as a structure (first byte) and a
// script of at most 32 steps, and checks 16 crash points spread evenly over
// the run, clean and torn, plus the last.
func FuzzStructureCrash(f *testing.F) {
	for i, k := range kinds {
		f.Add(append([]byte{byte(i)}, genScript(k.seed)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := kinds[int(data[0])%len(kinds)]
		steps := decodeScript(data[1:], 32)
		h, applied, _ := runScript(t, k, steps)
		stride := h.CrashPoints()/16 + 1
		if err := h.VerifyAll(stride, checkRecovered(k, steps, applied)); err != nil {
			t.Fatalf("%s, stride %d: %v", k.name, stride, err)
		}
	})
}
