package structures

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pax/internal/memory"
)

func flatAlloc(size int) memory.Allocator {
	mem := memory.NewFlat(size)
	return memory.NewBump(mem, 0, uint64(size))
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%08d", i)) }

func TestHashMapBasics(t *testing.T) {
	h, err := NewHashMap(flatAlloc(1<<22), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Get([]byte("missing")); ok {
		t.Fatal("empty map hit")
	}
	if err := h.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, ok := h.Get([]byte("k"))
	if !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if h.Len() != 1 {
		t.Fatalf("len = %d", h.Len())
	}
	// Same-length overwrite.
	h.Put([]byte("k"), []byte("w"))
	got, _ = h.Get([]byte("k"))
	if string(got) != "w" || h.Len() != 1 {
		t.Fatalf("overwrite: %q len=%d", got, h.Len())
	}
	// Different-length overwrite.
	h.Put([]byte("k"), []byte("longer value"))
	got, _ = h.Get([]byte("k"))
	if string(got) != "longer value" || h.Len() != 1 {
		t.Fatalf("realloc overwrite: %q len=%d", got, h.Len())
	}
	// Delete.
	present, err := h.Delete([]byte("k"))
	if err != nil || !present {
		t.Fatalf("delete: %v %v", present, err)
	}
	if _, ok := h.Get([]byte("k")); ok || h.Len() != 0 {
		t.Fatal("delete left entry")
	}
	if present, _ := h.Delete([]byte("k")); present {
		t.Fatal("double delete reported present")
	}
}

func TestHashMapGrowth(t *testing.T) {
	h, _ := NewHashMap(flatAlloc(1<<24), 8)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := h.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != n {
		t.Fatalf("len = %d", h.Len())
	}
	_, nbuckets := h.geometry()
	if nbuckets < n {
		t.Fatalf("table did not grow: %d buckets for %d keys", nbuckets, n)
	}
	for i := 0; i < n; i++ {
		got, ok := h.Get(key(i))
		if !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d: %q %v", i, got, ok)
		}
	}
}

func TestHashMapForEach(t *testing.T) {
	h, _ := NewHashMap(flatAlloc(1<<20), 8)
	for i := 0; i < 100; i++ {
		h.Put(key(i), value(i))
	}
	seen := map[string]string{}
	h.ForEach(func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("visited %d entries", len(seen))
	}
	for i := 0; i < 100; i++ {
		if seen[string(key(i))] != string(value(i)) {
			t.Fatalf("entry %d wrong", i)
		}
	}
	// Early stop.
	n := 0
	h.ForEach(func(k, v []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestHashMapOpenSharesState(t *testing.T) {
	al := flatAlloc(1 << 20)
	h, _ := NewHashMap(al, 8)
	h.Put([]byte("a"), []byte("1"))
	h2 := OpenHashMap(al, h.Addr())
	got, ok := h2.Get([]byte("a"))
	if !ok || string(got) != "1" {
		t.Fatal("reopened map lost entry")
	}
}

// Differential test against Go's map.
func TestHashMapMatchesModel(t *testing.T) {
	h, _ := NewHashMap(flatAlloc(1<<24), 8)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		k := key(rng.Intn(500))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			v := value(rng.Intn(100000))
			if err := h.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = string(v)
		case 6, 7:
			got, ok := h.Get(k)
			want, wok := model[string(k)]
			if ok != wok || (ok && string(got) != want) {
				t.Fatalf("op %d: Get(%q) = %q,%v want %q,%v", i, k, got, ok, want, wok)
			}
		default:
			present, err := h.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			_, wok := model[string(k)]
			if present != wok {
				t.Fatalf("op %d: Delete(%q) = %v want %v", i, k, present, wok)
			}
			delete(model, string(k))
		}
		if h.Len() != uint64(len(model)) {
			t.Fatalf("op %d: len %d vs model %d", i, h.Len(), len(model))
		}
	}
}

func TestVectorBasics(t *testing.T) {
	v, err := NewVector(flatAlloc(1<<22), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	elem := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		copy(elem, fmt.Sprintf("%08d", i))
		if err := v.Push(elem); err != nil {
			t.Fatal(err)
		}
	}
	if v.Len() != 1000 || v.Cap() < 1000 {
		t.Fatalf("len=%d cap=%d", v.Len(), v.Cap())
	}
	buf := make([]byte, 8)
	v.Get(500, buf)
	if string(buf) != "00000500" {
		t.Fatalf("Get(500) = %q", buf)
	}
	copy(elem, "REPLACED")
	v.Set(500, elem)
	v.Get(500, buf)
	if string(buf) != "REPLACED" {
		t.Fatalf("Set failed: %q", buf)
	}
	if !v.Pop(buf) || string(buf) != "00000999" || v.Len() != 999 {
		t.Fatalf("Pop = %q len=%d", buf, v.Len())
	}
	for v.Pop(buf) {
	}
	if v.Len() != 0 || v.Pop(buf) {
		t.Fatal("empty vector Pop")
	}
}

func TestVectorValidation(t *testing.T) {
	if _, err := NewVector(flatAlloc(1<<16), 0, 4); err == nil {
		t.Fatal("zero elem size accepted")
	}
	v, _ := NewVector(flatAlloc(1<<16), 8, 4)
	for _, f := range []func(){
		func() { v.Get(0, make([]byte, 8)) },                          // out of range
		func() { v.Set(0, make([]byte, 8)) },                          // out of range
		func() { _ = v.Push(make([]byte, 4)) },                        // wrong width
		func() { v.Push(make([]byte, 8)); v.Get(0, make([]byte, 4)) }, // wrong buffer
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

func TestQueueFIFO(t *testing.T) {
	q, err := NewQueue(flatAlloc(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("empty queue peek")
	}
	for i := 0; i < 100; i++ {
		if err := q.Push([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d", q.Len())
	}
	head, ok := q.Peek()
	if !ok || string(head) != "msg-0" {
		t.Fatalf("peek = %q", head)
	}
	for i := 0; i < 100; i++ {
		got, ok, err := q.Pop()
		if err != nil || !ok || string(got) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("pop %d = %q %v %v", i, got, ok, err)
		}
	}
	if _, ok, _ := q.Pop(); ok || q.Len() != 0 {
		t.Fatal("queue not empty after drain")
	}
	// Interleaved push/pop keeps order.
	q.Push([]byte("a"))
	q.Push([]byte("b"))
	q.Pop()
	q.Push([]byte("c"))
	var order []string
	q.ForEach(func(p []byte) bool {
		order = append(order, string(p))
		return true
	})
	if len(order) != 2 || order[0] != "b" || order[1] != "c" {
		t.Fatalf("order = %v", order)
	}
}

// Property: hash map over simulated memory behaves identically to a Go map
// for arbitrary op sequences.
func TestHashMapQuickProperty(t *testing.T) {
	type op struct {
		K, V uint8
		Del  bool
	}
	f := func(ops []op) bool {
		h, err := NewHashMap(flatAlloc(1<<22), 8)
		if err != nil {
			return false
		}
		model := map[string]string{}
		for _, o := range ops {
			k := []byte{o.K}
			if o.Del {
				present, _ := h.Delete(k)
				_, wok := model[string(k)]
				if present != wok {
					return false
				}
				delete(model, string(k))
			} else {
				v := bytes.Repeat([]byte{o.V}, int(o.V%7)+1)
				if h.Put(k, v) != nil {
					return false
				}
				model[string(k)] = string(v)
			}
		}
		if h.Len() != uint64(len(model)) {
			return false
		}
		for k, v := range model {
			got, ok := h.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
