// secondary: multi-structure snapshot atomicity. A tiny user store keeps a
// primary hash map (name → record) and a secondary ordered index (uint64
// user-id → record address). Both structures mutate on every insert; because
// one persist() snapshots the whole pool, the pair can never be observed out
// of sync after a crash — there is no window where the map has a user the
// index lacks.
//
// The example inserts users, crashes mid-epoch, recovers, and cross-checks
// the two structures.
//
//	go run ./examples/secondary
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"

	"pax"
)

const poolFile = "secondary.pool"

type store struct {
	pool  *pax.Pool
	byKey *pax.Map   // name → encoded record
	byID  *pax.Index // user id → record marker
}

func open() *store {
	pool, err := pax.MapPool(poolFile, pax.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	m, err := pax.NewMap(pool, 0)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := pax.NewIndex(pool, 1)
	if err != nil {
		log.Fatal(err)
	}
	return &store{pool: pool, byKey: m, byID: ix}
}

// insert updates BOTH structures; atomicity comes from the snapshot, not
// from any ordering discipline here.
func (s *store) insert(id uint64, name string) {
	rec := make([]byte, 8+len(name))
	binary.LittleEndian.PutUint64(rec, id)
	copy(rec[8:], name)
	if err := s.byKey.Put([]byte(name), rec); err != nil {
		log.Fatal(err)
	}
	if err := s.byID.Put(id, uint64(len(name))); err != nil {
		log.Fatal(err)
	}
}

// audit verifies the structures agree exactly.
func (s *store) audit() error {
	if s.byKey.Len() != s.byID.Len() {
		return fmt.Errorf("map has %d users, index has %d", s.byKey.Len(), s.byID.Len())
	}
	var err error
	s.byKey.ForEach(func(name, rec []byte) bool {
		id := binary.LittleEndian.Uint64(rec)
		nameLen, ok := s.byID.Get(id)
		if !ok {
			err = fmt.Errorf("user %q (id %d) missing from index", name, id)
			return false
		}
		if nameLen != uint64(len(name)) {
			err = fmt.Errorf("user %q index payload mismatch", name)
			return false
		}
		return true
	})
	return err
}

func main() {
	defer os.Remove(poolFile)
	defer os.RemoveAll(poolFile + ".epochlog") // the pool's delta segments

	s := open()
	// Epoch 1: five users, committed.
	for i := uint64(1); i <= 5; i++ {
		s.insert(i, fmt.Sprintf("user-%02d", i))
	}
	s.pool.Persist()
	fmt.Println("committed 5 users")

	// Epoch 2: five more users — crash between the two structure updates of
	// the very last insert, the worst possible moment.
	for i := uint64(6); i <= 9; i++ {
		s.insert(i, fmt.Sprintf("user-%02d", i))
	}
	rec := []byte("\x0a\x00\x00\x00\x00\x00\x00\x00user-10")
	s.byKey.Put([]byte("user-10"), rec) // map updated...
	// ... and CRASH before the index update and before persist.
	s.pool.Close()
	fmt.Println("CRASH mid-insert (map updated, index not)")

	s2 := open()
	defer s2.pool.Close()
	fmt.Printf("recovered to epoch %d (%d lines rolled back)\n",
		s2.pool.Recovery().DurableEpoch, s2.pool.Recovery().LinesRolledBack)
	if err := s2.audit(); err != nil {
		fmt.Println("INCONSISTENT:", err)
		os.Exit(1)
	}
	fmt.Printf("audit OK: map and index agree on %d users (the whole open epoch\n", s2.byKey.Len())
	fmt.Println("rolled back together — no torn multi-structure update is observable)")
}
