package cache

import (
	"testing"

	"pax/internal/coherence"
)

// FuzzHierarchyOps reads the fuzz input as an op tape of 4-byte steps (op,
// core, address high, address low) over sim.SmallHost's four cores and
// checks it like TestRandomOpsMatchModel: every load, byte range or word,
// against a byte model, invariant 7 after every step (so a private line
// that records the wrong LLC or L2 way fails at the step that left it), all
// the invariants at the end, and the home against the model after FlushAll.
// A core whose first step comes after others have filled the LLC runs its
// private levels' first fill there.
func FuzzHierarchyOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 1, 0, 0, 4, 2, 0, 0, 9, 3, 0, 0})
	// Core 0 stores to more lines than the LLC holds, then cores 1–3 run
	// for the first time against the lines it left behind.
	var late []byte
	for i := 0; i < 300; i++ {
		late = append(late, 0xf0, 0, byte(i>>2), byte(i<<6))
	}
	for i := 0; i < 40; i++ {
		late = append(late, byte(i), byte(1+i%3), byte(i>>2), byte(i<<6))
	}
	f.Add(late)
	// Core 0 stores to, loads and stores again twice L1's lines, so its
	// later passes hit in L2, then core 1 loads them.
	var cycle []byte
	for pass, op := range []byte{0, 2, 0, 2} {
		for i := 0; i < 32; i++ {
			cycle = append(cycle, op, byte(pass/3), byte(i>>2), byte(i<<6))
		}
	}
	f.Add(cycle)
	f.Fuzz(func(t *testing.T, tape []byte) {
		const space = 1 << 15 // twice the SmallHost LLC
		h, home := newTestHierarchy(t, true)
		m := newOpModel(h, home, space)
		if len(tape) > 4*1024 {
			tape = tape[:4*1024]
		}
		for i := 0; i+3 < len(tape); i += 4 {
			op, c := tape[i], h.Core(int(tape[i+1])%len(h.cores))
			addr := (uint64(tape[i+2])<<8 | uint64(tape[i+3])) % (space - 16)
			n := 1 + int(op>>4)        // 1..16 bytes
			word := 4 << (op >> 4 & 1) // 4 or 8 bytes
			var err error
			switch op % 5 {
			case 0:
				data := make([]byte, n)
				for k := range data {
					data[k] = byte(i + k + 1)
				}
				m.store(c, addr, data)
			case 1:
				m.storeWord(c, addr, word, uint64(i+1)*0x0101010101010101)
			case 2:
				err = m.load(c, addr, n)
			case 3:
				err = m.loadWord(c, addr, word)
			case 4:
				op := coherence.SnpData
				if n%2 == 0 {
					op = coherence.SnpInv
				}
				err = m.snoop(coherence.LineAddr(addr), op)
			}
			if err == nil {
				err = h.checkWays()
			}
			if err != nil {
				t.Fatalf("step %d: %v", i/4, err)
			}
		}
		mustInvariants(t, h)
		if err := m.drain(); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, h)
	})
}
