package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync/atomic"
)

// The five workloads and the op streams they generate. Every name here is
// part of the benchmark's contract with later PRs (BENCHMARK.json repeats
// them); bench_test.go fails if the two drift apart.

// phase is one traffic mix: putConns connections pipelining PUTs beside
// getConns connections issuing GETs. Readers and writers never share a
// connection, because responses leave a connection in request order and a
// GET queued behind a durable PUT would report the PUT's ack time.
type phase struct {
	putConns, putWindow int
	getConns, getWindow int
	// getRate is the open-loop GET rate summed over the reader connections;
	// 0 means the readers run closed loop, getWindow requests deep.
	getRate float64
	// sequential makes each writer walk its own keys once, in order, and
	// stop: the preload.
	sequential bool
}

// workload is one named traffic shape. Its primary phase is measured for
// -seconds; the secondary phase, of the op kind the primary does not issue,
// runs for a quarter of that, so every end-to-end metric is defined on every
// workload and the crash check and the GET verifier always have fresh data.
type workload struct {
	name, why string
	keys      int
	valueSize int
	zipfS     float64 // 0 = uniform
	primary   phase
	secondary *phase
}

// shards is the fleet size every workload serves from.
const shards = 2

// connections is C: the client connections the load is spread over.
func connections() int {
	return min(max(runtime.NumCPU(), 2), 4)
}

// workloads returns the five workloads sized for c connections.
func workloads(c int) []workload {
	puts := func(w int) phase { return phase{putConns: c, putWindow: w} }
	gets := phase{getConns: c, getWindow: 16}
	return []workload{
		{
			name: "put_sync1", keys: 20000, valueSize: 128,
			why:     "one PUT in flight per connection: the latency floor, MaxDelay window plus the fixed per-commit cost",
			primary: puts(1), secondary: &gets,
		},
		{
			name: "put_batch", keys: 20000, valueSize: 128,
			why:     "16 PUTs in flight per connection: group commit under load through queue, apply and delta sync",
			primary: puts(16), secondary: &gets,
		},
		{
			name: "put_bigset", keys: 50000, valueSize: 1024,
			why:     "put_batch with 8x the bytes and a working set over the modeled device cache: O(bytes) and checkpoint cost",
			primary: puts(16), secondary: &gets,
		},
		{
			name: "get_hot", keys: 20000, valueSize: 128,
			why:     "16 GETs in flight per connection: wire, TCP, routing and read index only, bypassing the commit path",
			primary: gets, secondary: &phase{putConns: c, putWindow: 16},
		},
		{
			name: "mixed_rw", keys: 20000, valueSize: 128, zipfS: 1.2,
			why: "zipfian PUT connections beside open-loop 20000/s GET connections: read index and CPU shared two ways",
			primary: phase{
				putConns: (c + 1) / 2, putWindow: 16,
				getConns: c / 2, getWindow: 16, getRate: 20000,
			},
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads(connections()) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// batchSize is the nominal group-commit size of a phase: its PUTs in flight
// divided over the shards. The pool level uses it instead of the observed
// mean batch so the simulated counters repeat exactly for one seed.
func (p phase) batchSize() int {
	return max(p.putConns*p.putWindow/shards, 1)
}

// stream is one phase of a workload under the name its generators are
// seeded with.
type stream struct {
	name string
	ph   phase
}

// streams lists w's phases in the order they run.
func (w workload) streams() []stream {
	out := []stream{{"primary", w.primary}}
	if w.secondary != nil {
		out = append(out, stream{"secondary", *w.secondary})
	}
	return out
}

// putPhase returns the phase of w that writes (its primary if that has
// writers, else its secondary).
func (w workload) putPhase() phase {
	if w.primary.putConns > 0 {
		return w.primary
	}
	return *w.secondary
}

func keyBytes(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// Values are self-describing: key index, per-key version, then a fill that
// is a function of (seed, index, version). A reader can therefore tell which
// write it is looking at and whether every byte of it is intact.
const valueHeader = 16

func fillWord(seed int64, idx int, ver uint32) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(idx)<<32 ^ uint64(ver)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x | 1
}

// makeValue renders version ver of key idx into buf (whose length is the
// workload's value size).
func makeValue(buf []byte, seed int64, idx int, ver uint32) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(idx))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(ver))
	w := fillWord(seed, idx, ver)
	fill := buf[valueHeader:]
	for len(fill) >= 8 {
		binary.LittleEndian.PutUint64(fill, w)
		w += 0x9e3779b97f4a7c15
		fill = fill[8:]
	}
	for i := range fill {
		fill[i] = byte(w >> (8 * i))
	}
}

// checkValue reports the version body claims to be, and whether it is an
// intact value of key idx of the given size.
func checkValue(body []byte, seed int64, idx, size int) (uint32, bool) {
	if len(body) != size || binary.LittleEndian.Uint64(body[0:8]) != uint64(idx) {
		return 0, false
	}
	ver := binary.LittleEndian.Uint64(body[8:16])
	if ver > 1<<32-1 {
		return 0, false
	}
	w := fillWord(seed, idx, uint32(ver))
	fill := body[valueHeader:]
	for len(fill) >= 8 {
		if binary.LittleEndian.Uint64(fill) != w {
			return 0, false
		}
		w += 0x9e3779b97f4a7c15
		fill = fill[8:]
	}
	for i := range fill {
		if fill[i] != byte(w>>(8*i)) {
			return 0, false
		}
	}
	return uint32(ver), true
}

// versions tracks, per key, the last version sent and the last one acked. A
// key has one writer at a time, so sent is written by one goroutine and
// acked by one other; readers load both to bound what a GET may return.
type versions struct {
	sent, acked []atomic.Uint32
}

func newVersions(keys int) *versions {
	return &versions{sent: make([]atomic.Uint32, keys), acked: make([]atomic.Uint32, keys)}
}

// keyPicker draws the key indices of one generator. With owners > 1 it
// returns only keys whose index is gen modulo owners, so concurrent writers
// never share a key and per-key order is defined.
type keyPicker struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	keys   int
	gen    int
	owners int
	// walked counts the keys a sequential picker has handed out; < 0 means
	// the picker draws at random.
	walked int
}

// newKeyPicker seeds generator number gen of the named stream. Streams with
// different names or generator numbers are independent; the same arguments
// always give the same sequence.
func newKeyPicker(w workload, seed int64, stream string, gen, owners int) *keyPicker {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d", w.name, stream, gen, seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	p := &keyPicker{rng: rng, keys: w.keys, gen: gen, owners: max(owners, 1), walked: -1}
	if w.zipfS > 0 {
		p.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.keys-1))
	}
	return p
}

// owned is how many keys belong to this generator.
func (p *keyPicker) owned() int {
	return (p.keys - p.gen + p.owners - 1) / p.owners
}

func (p *keyPicker) next() int {
	if p.walked >= 0 {
		p.walked++
		return p.gen + (p.walked-1)*p.owners
	}
	var i int
	if p.zipf != nil {
		i = int(p.zipf.Uint64())
	} else {
		i = p.rng.Intn(p.keys)
	}
	if p.owners > 1 {
		// Snap to this owner's key in the same stride, keeping the rank (and
		// so the zipfian weight) within owners-1 of what was drawn.
		i = i - i%p.owners + p.gen
		if i >= p.keys {
			i -= p.owners
		}
	}
	return i
}
