// Package crash implements exhaustive crash-point exploration for PAX pools.
//
// The harness records every media write a scenario performs (ADR means the
// media is exactly the durable state), so any prefix of the write sequence
// is a legal post-crash image. For each explored crash point it rebuilds
// that image, runs pool recovery on it, and checks the §3.3 guarantee: the
// recovered data region is byte-identical to the snapshot taken by the last
// persist() whose epoch-commit write landed before the crash. A torn-write
// variant additionally truncates the final write to an 8-byte-aligned
// prefix, exercising checksum rejection of partially persisted records.
package crash

import (
	"bytes"
	"fmt"

	"pax/internal/core"
	"pax/internal/pmem"
)

type writeRec struct {
	addr uint64
	data []byte
}

// Harness wraps a pool whose media writes are recorded for crash replay.
type Harness struct {
	Opts core.Options
	Pool *core.Pool

	size    int
	dataOff uint64

	writes []writeRec
	// persistMarks[i] is the write count at the moment persist i completed.
	persistMarks []int
	// goldens caches the data region after k writes, for k a mark.
	goldens map[int][]byte
}

// NewHarness creates a recorded pool. The pool's Create-time writes are part
// of the recorded history (epoch 1 is the first recoverable snapshot).
func NewHarness(opts core.Options) (*Harness, error) {
	size := int(core.HeaderSize + opts.LogSize + opts.DataSize)
	pm := pmem.New(pmem.DefaultConfig(size))
	h := &Harness{
		Opts:    opts,
		size:    size,
		dataOff: core.HeaderSize + opts.LogSize,
		goldens: map[int][]byte{},
	}
	pm.SetWriteHook(func(addr uint64, data []byte) {
		h.writes = append(h.writes, writeRec{addr: addr, data: append([]byte(nil), data...)})
		// The snapshot boundary is the epoch-cell write itself: a crash
		// any time after it recovers to the new epoch, even though the
		// persist call has more (log-truncation) writes to issue.
		if addr == core.EpochCellOffset && len(data) == 8 {
			h.persistMarks = append(h.persistMarks, len(h.writes))
		}
	})
	pool, err := core.Create(pm, opts)
	if err != nil {
		return nil, err
	}
	h.Pool = pool
	return h, nil
}

// Persist commits an epoch; the write hook records the snapshot boundary at
// the exact epoch-cell write.
func (h *Harness) Persist() {
	h.Pool.Persist()
}

// CrashPoints reports the number of distinct post-crash images (one per
// recorded write, crashing immediately after it).
func (h *Harness) CrashPoints() int { return len(h.writes) }

// imageAt reconstructs the media image after the first k writes; if
// tearLast, the k-th write lands only up to an 8-byte-aligned prefix (the
// remaining atomic units keep their prior contents).
func (h *Harness) imageAt(k int, tearLast bool) []byte {
	img := make([]byte, h.size)
	for i := 0; i < k; i++ {
		w := h.writes[i]
		if tearLast && i == k-1 {
			// PM tears at 8-byte units: units that did not land keep their
			// OLD contents (already in img), they do not turn to garbage.
			keep := (len(w.data) / 2) &^ 7
			copy(img[w.addr:], w.data[:keep])
			continue
		}
		copy(img[w.addr:], w.data)
	}
	return img
}

// goldenFor reports the data-region snapshot expected after recovering from
// a crash at write k, the data region as of the last persist completed at or
// before k, and that persist's index: 0 is the commit Create makes, i the
// i-th Persist after it. snap is -1 when no persist has completed (the pool
// was never created durably — recovery is allowed to fail).
func (h *Harness) goldenFor(k int) (golden []byte, snap int) {
	snap = -1
	for i, m := range h.persistMarks {
		if m <= k {
			snap = i
		}
	}
	if snap < 0 {
		return nil, -1
	}
	m := h.persistMarks[snap]
	if h.goldens[m] == nil {
		h.goldens[m] = h.imageAt(m, false)[h.dataOff : h.dataOff+uint64(h.Opts.DataSize)]
	}
	return h.goldens[m], snap
}

// Check reads a recovered pool. snap is the index of the persist recovery
// restored, as goldenFor numbers it.
type Check func(pool *core.Pool, snap int) error

// VerifyPoint checks one crash point: build the image, recover, compare the
// data region with the last snapshot, then hand the recovered pool to check
// (when not nil), which sees what the byte compare cannot: whether the
// snapshot holds what the program had written by that persist.
func (h *Harness) VerifyPoint(k int, tearLast bool, check Check) error {
	golden, snap := h.goldenFor(k)
	img := h.imageAt(k, tearLast)
	if tearLast && len(h.writes[k-1].data) == 8 {
		// An 8-byte write is atomic: the torn variant removes it entirely,
		// so the expectation is the state at k-1 (which matters exactly
		// when write k is an epoch-cell commit).
		golden, snap = h.goldenFor(k - 1)
	}
	pm := pmem.New(pmem.DefaultConfig(h.size))
	pm.Restore(img)
	pool, err := core.Open(pm, h.Opts)
	if snap < 0 {
		if err == nil {
			return fmt.Errorf("crash at write %d: pool with no durable snapshot opened successfully", k)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("crash at write %d (tear=%v): recovery failed: %v", k, tearLast, err)
	}
	got := pm.Snapshot()[h.dataOff : h.dataOff+uint64(h.Opts.DataSize)]
	if !bytes.Equal(got, golden) {
		for i := range got {
			if got[i] != golden[i] {
				return fmt.Errorf("crash at write %d (tear=%v): data diverges from last snapshot at offset %d: got %#x want %#x",
					k, tearLast, i, got[i], golden[i])
			}
		}
	}
	if check != nil {
		if err := check(pool, snap); err != nil {
			return fmt.Errorf("crash at write %d (tear=%v), recovered to persist %d: %v", k, tearLast, snap, err)
		}
	}
	return nil
}

// VerifyAll explores crash points k = 1..CrashPoints() with the given stride
// (1 = exhaustive), each in both clean and torn-final-write variants, and
// returns the first violation. check, when not nil, reads every recovered
// pool (see VerifyPoint).
func (h *Harness) VerifyAll(stride int, check Check) error {
	if stride < 1 {
		stride = 1
	}
	n := h.CrashPoints()
	for k := 1; k <= n; k += stride {
		if err := h.VerifyPoint(k, false, check); err != nil {
			return err
		}
		if err := h.VerifyPoint(k, true, check); err != nil {
			return err
		}
	}
	// Always check the final state exactly.
	return h.VerifyPoint(n, false, check)
}
