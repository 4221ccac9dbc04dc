package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"pax/internal/structures"
)

// §3.5: PAX supports concurrent threads as long as the data structure code
// is thread safe and persist() runs with no mutators in flight. These tests
// drive real goroutines over per-core memory views.

func TestConcurrentDisjointWriters(t *testing.T) {
	pm, p := newTestPool(t)
	cores := testOptions().Host.Cores
	const perThread = 4096 // bytes per thread

	addrs := make([]uint64, cores)
	for i := range addrs {
		a, err := p.Allocator().Alloc(perThread)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}

	var wg sync.WaitGroup
	for i := 0; i < cores; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := p.Mem(id)
			for off := uint64(0); off < perThread; off += 8 {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(id)<<32|off)
				m.Store(addrs[id]+off, b[:])
			}
		}(i)
	}
	wg.Wait()

	// Quiescent point: persist, crash, recover, verify everything.
	for i, a := range addrs {
		p.SetRoot(i, a)
	}
	p.Persist()
	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := p2.Mem(0)
	for id := 0; id < cores; id++ {
		base := p2.Root(id)
		for off := uint64(0); off < perThread; off += 512 {
			if got := loadU64(m, base+off); got != uint64(id)<<32|off {
				t.Fatalf("thread %d offset %d: %#x", id, off, got)
			}
		}
	}
}

func TestConcurrentSharedStructure(t *testing.T) {
	pm, p := newTestPool(t)
	hm, err := structures.NewHashMap(p.Arena(), 64)
	if err != nil {
		t.Fatal(err)
	}
	p.SetRoot(0, hm.Addr())

	// Thread-safe usage per §3.5: callers serialize; each thread drives the
	// SAME structure through its own timed memory view.
	var mu sync.Mutex
	var wg sync.WaitGroup
	cores := testOptions().Host.Cores
	const perThread = 200
	for i := 0; i < cores; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			view := hm.WithMem(p.Mem(id))
			for j := 0; j < perThread; j++ {
				k := []byte(fmt.Sprintf("t%d-k%03d", id, j))
				v := []byte(fmt.Sprintf("t%d-v%03d", id, j))
				mu.Lock()
				err := view.Put(k, v)
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if hm.Len() != uint64(cores*perThread) {
		t.Fatalf("len = %d, want %d", hm.Len(), cores*perThread)
	}
	p.Persist()

	p2, err := Open(pm, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	hm2 := structures.OpenHashMap(p2.Arena(), p2.Root(0))
	if hm2.Len() != uint64(cores*perThread) {
		t.Fatalf("recovered len = %d", hm2.Len())
	}
	for id := 0; id < cores; id++ {
		for j := 0; j < perThread; j += 37 {
			k := []byte(fmt.Sprintf("t%d-k%03d", id, j))
			want := fmt.Sprintf("t%d-v%03d", id, j)
			if got, ok := hm2.Get(k); !ok || string(got) != want {
				t.Fatalf("key %s = %q %v", k, got, ok)
			}
		}
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	_, p := newTestPool(t)
	addr, _ := p.Allocator().Alloc(64)
	storeU64(p.Mem(0), addr, 42)

	// One writer on core 0, readers on the others; readers must always see
	// a monotonically advancing value the writer actually wrote (coherence,
	// no torn 8-byte reads).
	stop := make(chan struct{})
	var writerWg, readerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		m := p.Mem(0)
		for v := uint64(42); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			storeU64(m, addr, v)
		}
	}()
	for i := 1; i < testOptions().Host.Cores; i++ {
		readerWg.Add(1)
		go func(id int) {
			defer readerWg.Done()
			m := p.Mem(id)
			var prev uint64
			for n := 0; n < 500; n++ {
				got := loadU64(m, addr)
				if got < 42 {
					t.Errorf("reader %d saw impossible value %d", id, got)
					return
				}
				if got < prev {
					t.Errorf("reader %d saw time travel: %d after %d", id, got, prev)
					return
				}
				prev = got
			}
		}(i)
	}
	readerWg.Wait()
	close(stop)
	writerWg.Wait()
}
