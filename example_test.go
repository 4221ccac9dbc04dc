package pax_test

import (
	"fmt"
	"os"
	"path/filepath"

	"pax"
)

// ExampleMapPool shows the paper's Listing 1: map a pool, use an unmodified
// hash map persistently, snapshot with one call.
func ExampleMapPool() {
	pool, err := pax.MapPool("", pax.Options{DataSize: 2 << 20, LogSize: 2 << 20})
	if err != nil {
		panic(err)
	}
	defer pool.Close()

	ht, _ := pax.NewMap(pool, 0)
	ht.Put([]byte("1"), []byte("100"))
	if v, ok := ht.Get([]byte("1")); ok {
		fmt.Printf("Key 1 = %s\n", v)
	}
	ht.Put([]byte("2"), []byte("200"))
	st, _ := pool.Persist()
	fmt.Printf("epoch %d durable\n", st.Epoch)
	// Output:
	// Key 1 = 100
	// epoch 2 durable
}

// ExamplePool_Persist demonstrates snapshot semantics: unpersisted changes
// vanish on recovery, persisted ones survive.
func ExamplePool_Persist() {
	dir, _ := os.MkdirTemp("", "pax-example-*")
	defer os.RemoveAll(dir) // the pool file and its <pool>.epochlog/ segments
	path := filepath.Join(dir, "example_persist.pool")

	pool, _ := pax.MapPool(path, pax.Options{DataSize: 2 << 20, LogSize: 2 << 20})
	m, _ := pax.NewMap(pool, 0)
	m.Put([]byte("committed"), []byte("yes"))
	pool.Persist()
	m.Put([]byte("volatile"), []byte("no"))
	pool.Close() // crash: open epoch rolls back

	pool2, _ := pax.MapPool(path, pax.Options{DataSize: 2 << 20, LogSize: 2 << 20})
	defer pool2.Close()
	m2, _ := pax.NewMap(pool2, 0)
	_, committed := m2.Get([]byte("committed"))
	_, volatile := m2.Get([]byte("volatile"))
	fmt.Printf("committed=%v volatile=%v\n", committed, volatile)
	// Output:
	// committed=true volatile=false
}

// ExampleNewIndex shows the ordered index with range scans.
func ExampleNewIndex() {
	pool, _ := pax.MapPool("", pax.Options{DataSize: 2 << 20, LogSize: 2 << 20})
	defer pool.Close()

	ix, _ := pax.NewIndex(pool, 0)
	for _, k := range []uint64{30, 10, 20} {
		ix.Put(k, k*100)
	}
	ix.Scan(15, func(k, v uint64) bool {
		fmt.Printf("%d=%d\n", k, v)
		return true
	})
	// Output:
	// 20=2000
	// 30=3000
}

// ExampleNewQueue shows the persistent FIFO.
func ExampleNewQueue() {
	pool, _ := pax.MapPool("", pax.Options{DataSize: 2 << 20, LogSize: 2 << 20})
	defer pool.Close()

	q, _ := pax.NewQueue(pool, 0)
	q.Push([]byte("first"))
	q.Push([]byte("second"))
	msg, _, _ := q.Pop()
	fmt.Println(string(msg))
	// Output:
	// first
}
