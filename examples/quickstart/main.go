// Quickstart: the paper's Listing 1 in Go — map a pool, use an unmodified
// hash map as a persistent structure, persist a snapshot, crash, recover.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"pax"
)

func main() {
	const poolFile = "quickstart.pool"
	defer os.Remove(poolFile)
	defer os.RemoveAll(poolFile + ".epochlog") // the pool's delta segments

	// Line 1-2 of Listing 1: map the pool, wrap it in an allocator, hand it
	// to an unmodified hash map.
	pool, err := pax.MapPool(poolFile, pax.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ht, err := pax.NewMap(pool, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Lines 3-5: ordinary loads and stores.
	ht.Put([]byte("1"), []byte("100"))
	if v, ok := ht.Get([]byte("1")); ok {
		fmt.Printf("Key 1 = %s\n", v)
	}
	ht.Put([]byte("2"), []byte("200"))

	// Line 6: one call makes everything since the last persist durable as
	// an atomic snapshot.
	st, err := pool.Persist()
	if err != nil {
		log.Fatalf("persist: %v (the snapshot is NOT durable)", err)
	}
	fmt.Printf("persisted epoch %d: %d lines snooped back, %d written to PM, %v simulated latency\n",
		st.Epoch, st.LinesSnooped, st.LinesWritten, st.SimulatedLatency)

	// Write more WITHOUT persisting, then "crash".
	ht.Put([]byte("3"), []byte("300"))
	pool.Close() // like a crash: the open epoch is not committed

	// Recovery: reopening the pool is the same call as creating it.
	pool2, err := pax.MapPool(poolFile, pax.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer pool2.Close()
	fmt.Printf("recovered to epoch %d (%d lines rolled back)\n",
		pool2.Recovery().DurableEpoch, pool2.Recovery().LinesRolledBack)

	ht2, err := pax.NewMap(pool2, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range []string{"1", "2", "3"} {
		if v, ok := ht2.Get([]byte(k)); ok {
			fmt.Printf("after recovery: key %s = %s\n", k, v)
		} else {
			fmt.Printf("after recovery: key %s GONE (was never persisted)\n", k)
		}
	}
}
