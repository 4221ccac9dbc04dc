package pmem

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"pax/internal/epochlog"
	"pax/internal/seglog"
)

// This file is the delta epoch store, the device's only store: the device
// tracks the dirty byte ranges of every media write and Sync persists only
// those — one appended, fsynced delta record in the pool's epoch log. The
// pool file is the checkpoint, and a background fold keeps it current in
// place: once the log grows past a threshold, a goroutine streams the
// committed records out of the log's segments, writes each record's ranges
// into the pool file, fsyncs it, and compacts the segments it covered.
// Commit cost is O(dirty bytes), and so is the checkpoint: no image-sized
// copy is ever made.
//
// Correctness hinges on two ordering rules, enforced in checkpoint(). The
// fold takes its bytes from the records, never from the media, and stops at
// covered, the newest record when it started: only committed bytes reach
// the file, and a record appended during the fold waits for the next one.
// Compaction runs only after the file's fsync, and only through covered:
// every record it deletes is durably in the file. A crash mid-fold leaves
// the file a mix of the old checkpoint and newer ranges with no record yet
// compacted, which replay (absolute byte values, in order) repairs.

// dirtyRange is one [addr, end) interval of media bytes written since the
// last Sync.
type dirtyRange struct{ addr, end uint64 }

// dirtyCompactLimit bounds the un-coalesced dirty list; past it the tracker
// sorts and merges in place so a scatter-write workload cannot grow the list
// without bound between Syncs. The next compaction waits until the list has
// doubled past what the last one left, so an epoch of n disjoint ranges
// sorts O(log n) times, not once per write.
const dirtyCompactLimit = 1 << 14

// trackDirtyLocked records a media write. Called under d.mu on every Write
// once tracking has started (see Device.tracking); the fast path extends the
// previous range, since log appends and sequential write-back dominate the
// write stream.
func (d *Device) trackDirtyLocked(addr uint64, n int) {
	if !d.tracking || n == 0 {
		return
	}
	end := addr + uint64(n)
	if k := len(d.dirty) - 1; k >= 0 {
		if last := &d.dirty[k]; addr <= last.end && last.addr <= end {
			if addr < last.addr {
				last.addr = addr
			}
			if end > last.end {
				last.end = end
			}
			return
		}
	}
	d.dirty = append(d.dirty, dirtyRange{addr, end})
	if len(d.dirty) > max(dirtyCompactLimit, 2*d.compacted) {
		d.dirty = coalesce(d.dirty)
		d.compacted = len(d.dirty)
	}
}

// coalesce sorts ranges by address and merges overlapping or adjacent ones,
// in place.
func coalesce(ranges []dirtyRange) []dirtyRange {
	if len(ranges) < 2 {
		return ranges
	}
	slices.SortFunc(ranges, func(a, b dirtyRange) int { return cmp.Compare(a.addr, b.addr) })
	out := ranges[:1]
	for _, r := range ranges[1:] {
		if last := &out[len(out)-1]; r.addr <= last.end {
			if r.end > last.end {
				last.end = r.end
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Discard tells the device that the bytes of [addr, addr+n) written since
// the last Sync are dead: the next delta record leaves them out. The media
// keeps them, and a later Write re-dirties them as usual. The caller vouches
// that no recovery reads the span's bytes from the record — the undo log
// discards the slots its tail has just passed, whose entries nothing reads
// again.
func (d *Device) Discard(addr uint64, n int) {
	d.checkRange(addr, n)
	if n == 0 {
		return
	}
	d.mu.Lock()
	d.discardDirtyLocked(addr, addr+uint64(n))
	d.mu.Unlock()
}

// discardDirtyLocked removes [lo, hi) from the dirty list, filtering it in
// place so a Discard allocates nothing. A range inside the span is dropped
// and one reaching past its left edge is trimmed there; the parts of ranges
// reaching past its right edge all start at hi, so their union is the one
// range [hi, rest) appended at the end — at most one split per call, however
// many ranges straddle the span.
func (d *Device) discardDirtyLocked(lo, hi uint64) {
	out := d.dirty[:0]
	rest := hi
	for _, r := range d.dirty {
		if r.addr < hi && lo < r.end {
			rest = max(rest, r.end)
			if r.addr >= lo {
				continue
			}
			r.end = lo
		}
		out = append(out, r)
	}
	if rest > hi {
		out = append(out, dirtyRange{hi, rest})
	}
	d.dirty = out
}

// maxRetainedDelta caps the capture buffer a device keeps between Syncs, so
// one outsized commit (a table rehash) does not pin its bytes for the
// device's lifetime.
const maxRetainedDelta = 1 << 20

// takeDirtyLocked coalesces and drains the dirty list, copying the current
// media bytes of each range (the record must capture the state this Sync
// commits, not whatever the media holds when the append lands). The ranges'
// data shares one buffer that the next call reuses: the caller holds deltaMu
// until it is done with them.
func (d *Device) takeDirtyLocked() []epochlog.Range {
	merged := coalesce(d.dirty)
	d.dirty = d.dirty[:0]
	d.compacted = 0
	var total uint64
	for _, r := range merged {
		total += r.end - r.addr
	}
	data := d.deltaData[:0]
	if uint64(cap(data)) < total {
		data = make([]byte, 0, total)
		if total <= maxRetainedDelta {
			d.deltaData = data
		}
	}
	out := make([]epochlog.Range, len(merged))
	for i, r := range merged {
		off := len(data)
		data = append(data, d.media[r.addr:r.end]...)
		out[i] = epochlog.Range{Addr: r.addr, Data: data[off:len(data):len(data)]}
	}
	return out
}

// restoreDirtyLocked re-marks ranges whose append failed, so the next Sync
// recaptures them (with whatever newer bytes the media holds by then).
func (d *Device) restoreDirtyLocked(ranges []epochlog.Range) {
	for _, r := range ranges {
		d.dirty = append(d.dirty, dirtyRange{r.Addr, r.Addr + uint64(len(r.Data))})
	}
}

// epochValueLocked reads the durable-epoch cell the delta record is stamped
// with (0 when the config did not place one).
func (d *Device) epochValueLocked() uint64 {
	off := d.cfg.EpochCellOffset
	if off <= 0 || off+8 > int64(len(d.media)) {
		return 0
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(d.media[off+int64(i)])
	}
	return v
}

// Sync makes everything written since the previous Sync durable: one delta
// record of the dirty ranges. A file-backed device appends it to the epoch
// log and fsyncs only that append; on failure the ranges are re-marked
// dirty, so a retried Sync re-persists them — the caller must treat the
// epoch as not durable. An in-memory device has no file, so its Sync cannot
// fail: it reports the size the record would have had.
func (d *Device) Sync() error {
	start := time.Now()
	d.deltaMu.Lock()
	defer d.deltaMu.Unlock()
	d.mu.Lock()
	d.tracking = true
	ranges := d.takeDirtyLocked()
	epoch := d.epochValueLocked()
	d.mu.Unlock()
	var n int64
	var err error
	if d.store != nil {
		appendStart := time.Now()
		if n, err = d.store.Append(epoch, ranges); err == nil {
			d.SyncTimings.Append.Since(appendStart)
		}
	} else {
		n = epochlog.RecordSize(ranges)
	}
	if err != nil {
		d.mu.Lock()
		d.restoreDirtyLocked(ranges)
		d.mu.Unlock()
		return fmt.Errorf("pmem: sync: %s: %w", d.path, err)
	}
	d.lastSyncBytes.Store(n)
	d.SyncBytes.Add(uint64(n))
	d.SyncTimings.Total.Since(start)
	d.maybeCheckpoint()
	return nil
}

// maybeCheckpoint kicks the background checkpoint when the log has grown
// past the threshold. At most one checkpoint runs at a time; commits never
// wait for it.
func (d *Device) maybeCheckpoint() {
	if d.store == nil || d.closed.Load() || d.store.LiveBytes() < d.ckptBytes {
		return
	}
	if !d.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		defer d.ckptBusy.Store(false)
		if err := d.checkpoint(); err != nil {
			// Background and best-effort: the log keeps the data durable,
			// the next threshold crossing retries, and the failure count is
			// the observable signal.
			d.CheckpointFailures.Inc()
		}
	}()
}

// Checkpoint synchronously folds the log into the pool file and compacts
// the segments it covers. Tests and tools call it directly; commits go
// through maybeCheckpoint instead.
func (d *Device) Checkpoint() error {
	if d.store == nil {
		return errors.New("pmem: an in-memory device has no checkpoint")
	}
	if err := d.checkpoint(); err != nil {
		d.CheckpointFailures.Inc()
		return err
	}
	return nil
}

func (d *Device) checkpoint() error {
	d.foldMu.Lock()
	defer d.foldMu.Unlock()
	covered := d.store.LastSeq()
	n, err := d.fold(covered)
	if err != nil {
		return fmt.Errorf("pmem: checkpoint %s: %w", d.path, err)
	}
	d.Checkpoints.Inc()
	d.CheckpointBytes.Add(n)
	// Only now, with every record through covered fsynced into the file,
	// may the log forget them.
	if err := d.store.CompactThrough(covered); err != nil {
		return fmt.Errorf("pmem: checkpoint %s: %w", d.path, err)
	}
	return nil
}

// fold writes the ranges of every retained record through covered into the
// pool file, oldest first, and fsyncs it, returning the range bytes written.
// It holds neither d.mu nor the store's lock while it reads and writes, so
// commits keep appending meanwhile. A record an earlier fold already wrote
// (the segment that straddled its covered) is written again, idempotently.
func (d *Device) fold(covered uint64) (uint64, error) {
	var n uint64
	err := seglog.Patch(d.cfg.FS, d.path, func(w io.WriterAt) error {
		return d.store.Scan(0, covered, func(rec epochlog.Record) error {
			for _, r := range rec.Ranges {
				if _, err := w.WriteAt(r.Data, int64(r.Addr)); err != nil {
					return err
				}
				n += uint64(len(r.Data))
			}
			return nil
		})
	})
	return n, err
}

// EpochStore exposes the device's epoch store (nil for an in-memory device).
// Stats plumbing reads LiveBytes and segment counts through it.
func (d *Device) EpochStore() *epochlog.Store { return d.store }

// ReplayInfo reports what Open recovered from the epoch log (zero value for
// an in-memory device).
func (d *Device) ReplayInfo() epochlog.Info { return d.replayInfo }

// LastSyncBytes reports how many bytes the most recent successful Sync
// persisted: the delta record size. This is the numerator of the
// write-amplification metric.
func (d *Device) LastSyncBytes() int64 { return d.lastSyncBytes.Load() }

// WaitCheckpoint blocks until any in-flight background checkpoint finishes.
func (d *Device) WaitCheckpoint() { d.ckptWG.Wait() }

// Close stops background checkpointing and releases the epoch store's file
// handles. The pool reopens from checkpoint + log.
func (d *Device) Close() error {
	d.closed.Store(true)
	d.ckptWG.Wait()
	if d.store != nil {
		return d.store.Close()
	}
	return nil
}
