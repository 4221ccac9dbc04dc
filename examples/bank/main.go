// bank: atomic multi-account transfers under snapshot semantics with crash
// injection. A transfer mutates two account balances and an audit counter —
// three separate cache lines. Without crash consistency, dying between the
// debit and the credit destroys money; with PAX, every recovery lands on a
// persist() boundary where the invariant Σbalances = const holds.
//
// The example runs thousands of transfers, "crashes" the process at a random
// point (discarding all volatile state), recovers, and audits the books.
//
//	go run ./examples/bank
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"os"

	"pax"
)

const (
	poolFile   = "bank.pool"
	accounts   = 64
	initialBal = 1000
	totalMoney = accounts * initialBal
	transfers  = 5000
	perEpoch   = 50 // transfers per persist (group commit)
)

type bank struct {
	pool *pax.Pool
	vec  *pax.Vector // balances, one u64 per account
	log  *pax.Queue  // audit trail of applied transfers
}

func openBank() *bank {
	pool, err := pax.MapPool(poolFile, pax.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	vec, err := pax.NewVector(pool, 0, 8)
	if err != nil {
		log.Fatal(err)
	}
	q, err := pax.NewQueue(pool, 1)
	if err != nil {
		log.Fatal(err)
	}
	b := &bank{pool: pool, vec: vec, log: q}
	if vec.Len() == 0 { // fresh pool: fund the accounts
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], initialBal)
		for i := 0; i < accounts; i++ {
			if err := vec.Push(buf[:]); err != nil {
				log.Fatal(err)
			}
		}
		pool.Persist()
	}
	return b
}

func (b *bank) balance(i int) uint64 {
	var buf [8]byte
	b.vec.Get(uint64(i), buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (b *bank) setBalance(i int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.vec.Set(uint64(i), buf[:])
}

// transfer moves amount between two accounts — deliberately NOT atomic at
// the store level; only persist() boundaries are atomic.
func (b *bank) transfer(from, to int, amount uint64) bool {
	bal := b.balance(from)
	if bal < amount {
		return false
	}
	b.setBalance(from, bal-amount)
	b.setBalance(to, b.balance(to)+amount)
	rec := fmt.Sprintf("%d->%d:%d", from, to, amount)
	if err := b.log.Push([]byte(rec)); err != nil {
		log.Fatal(err)
	}
	return true
}

func (b *bank) audit() (sum uint64) {
	for i := 0; i < accounts; i++ {
		sum += b.balance(i)
	}
	return sum
}

func main() {
	defer os.Remove(poolFile)
	defer os.RemoveAll(poolFile + ".epochlog") // the pool's delta segments
	rng := rand.New(rand.NewSource(2022))

	// Phase 1: run transfers with group commit, then crash mid-epoch.
	b := openBank()
	crashAt := transfers/2 + rng.Intn(transfers/4)
	applied := 0
	persisted := 0
	crashed := false
	for i := 0; i < transfers; i++ {
		if i == crashAt {
			fmt.Printf("CRASH injected after transfer %d (mid-epoch, %d committed)\n", i, persisted)
			b.pool.Close() // crash: open epoch dies
			crashed = true
			break
		}
		from, to := rng.Intn(accounts), rng.Intn(accounts)
		amount := uint64(1 + rng.Intn(50))
		if b.transfer(from, to, amount) {
			applied++
		}
		if (i+1)%perEpoch == 0 {
			b.pool.Persist()
			persisted = applied
		}
	}
	if !crashed {
		b.pool.Persist()
		b.pool.Close()
	}

	// Phase 2: recover and audit.
	b2 := openBank()
	defer b2.pool.Close()
	rec := b2.pool.Recovery()
	fmt.Printf("recovered: durable epoch %d, %d lines rolled back\n",
		rec.DurableEpoch, rec.LinesRolledBack)

	sum := b2.audit()
	fmt.Printf("audit: Σ balances = %d (expected %d)\n", sum, totalMoney)
	if sum != totalMoney {
		fmt.Println("MONEY WAS DESTROYED — crash consistency violated!")
		os.Exit(1)
	}
	fmt.Printf("audit trail: %d transfers survived (%d were applied before the crash;\n", b2.log.Len(), applied)
	fmt.Println("the difference is the rolled-back open epoch — snapshots are all-or-nothing)")
	fmt.Println("OK: the invariant held across an injected crash")
}
