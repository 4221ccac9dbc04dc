// Package device implements the PAX persistence accelerator (§3 of the
// paper): a cache-coherent device that is the home agent for a vPM address
// range. It interposes on the host's coherence traffic via a CXL link,
// performs asynchronous undo logging when the host acquires lines for
// modification, buffers and writes back dirty lines under the constraint
// that a line's undo entry must be durable first, and implements the
// epoch-based persist() protocol with device-to-host SnpData recalls.
package device

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"pax/internal/coherence"
	"pax/internal/cxl"
	"pax/internal/hbm"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/stats"
	"pax/internal/undolog"
)

// LineSize is the coherence granule.
const LineSize = coherence.LineSize

// Config parameterizes a PAX device.
type Config struct {
	// Link selects the transport profile (CXL or Enzian class).
	Link sim.LinkProfile
	// HBMSize and HBMWays size the on-device cache; HBMSize 0 disables it.
	HBMSize, HBMWays int
	// Policy selects the HBM eviction policy.
	Policy hbm.Policy
}

// DefaultConfig returns a CXL-class device with a 16 MiB, 8-way HBM cache.
func DefaultConfig() Config {
	return Config{Link: sim.CXLLink, HBMSize: 16 << 20, HBMWays: 8, Policy: hbm.PreferDurable}
}

// Stats aggregates device-side event counters. Undo entries written are the
// log's own count (Log().Appends()), and fills served from HBM the cache's
// (HBM().Ratio.Hits).
type Stats struct {
	LogSkips       stats.Counter // upgrades for lines already logged this epoch
	FillsServed    stats.Counter // host line fills
	WriteBacksRecv stats.Counter // dirty evictions received from the host
	SnoopsSent     stats.Counter // persist()-time SnpData recalls
	SnoopsDirty    stats.Counter // recalls that returned modified data
	LinesPersisted stats.Counter // lines written to PM data space
	Persists       stats.Counter // persist() calls completed
}

// PersistReport describes one completed persist() for harness output.
type PersistReport struct {
	Epoch        uint64
	LinesSnooped int
	LinesWritten int
	LogWaited    sim.Time // time spent waiting for log durability
	Done         sim.Time
}

// Device is one PAX accelerator instance. It implements coherence.Home for
// its vPM range. It is not safe for concurrent use; the cache hierarchy
// serializes home calls under its own lock, matching a single device
// pipeline. Its observable state — Epoch, DurableEpoch, Stats and the undo
// log's counters — is atomic, so it may be read at any time, from any
// goroutine, and after the media is closed.
type Device struct {
	pm   *pmem.Device
	link *cxl.Link

	hostBase uint64 // vPM base address in the host address space
	pmBase   uint64 // data region base on the PM device
	size     uint64
	epochPos uint64 // media address of the durable-epoch cell

	log   *undolog.Log
	cache *hbm.Cache
	host  coherence.Snooper

	epoch atomic.Uint64 // current, not-yet-durable epoch
	// durable mirrors the media's durable-epoch cell: set at open and
	// wherever Persist writes the cell, so a reader never touches media.
	durable atomic.Uint64

	// logged maps each host line undo-logged in the current epoch to its
	// index in log order: in modified, which lists the epoch's lines in that
	// order until Persist sorts it, and in logDone, whose mark at that index
	// holds the line's log bound (entry virtual offset + entry size).
	logged   epochLines
	modified []uint64
	// logDone records, per logged line, its log bound and the simulated time
	// the entry becomes durable; bounds are appended in increasing order with
	// non-decreasing times.
	logDone []logMark
	// lastLogDone is the durability time of the newest log entry.
	lastLogDone sim.Time
	// prevPersistDone serializes pipelined persists: epoch N+1 cannot
	// commit before epoch N.
	prevPersistDone sim.Time

	Stats Stats
}

type logMark struct {
	bound uint64
	at    sim.Time
}

// New builds a device in front of pm. The vPM data region is
// [pmBase, pmBase+size) on pm, exposed to the host at
// [hostBase, hostBase+size). log is the device's undo log (already created
// or recovered on the same pm). epochCell is the media address of the 8-byte
// durable-epoch cell; startEpoch is the first epoch to run (durable+1).
func New(cfg Config, pm *pmem.Device, hostBase, pmBase, size uint64, log *undolog.Log, epochCell, startEpoch uint64) *Device {
	if hostBase%LineSize != 0 || pmBase%LineSize != 0 || size%LineSize != 0 {
		panic("device: vPM geometry must be line-aligned")
	}
	d := &Device{
		pm:       pm,
		link:     cxl.NewLink(cfg.Link),
		hostBase: hostBase,
		pmBase:   pmBase,
		size:     size,
		epochPos: epochCell,
		log:      log,
	}
	d.epoch.Store(startEpoch)
	d.durable.Store(startEpoch - 1)
	if cfg.HBMSize > 0 {
		d.cache = hbm.New(cfg.HBMSize, cfg.HBMWays, cfg.Policy)
	}
	return d
}

// AttachHost wires the host hierarchy so the device can issue D2H snoops.
// It must be called before the first Persist.
func (d *Device) AttachHost(h coherence.Snooper) { d.host = h }

// Link exposes the device's CXL link for experiment accounting.
func (d *Device) Link() *cxl.Link { return d.link }

// Epoch reports the current (not yet durable) epoch number.
func (d *Device) Epoch() uint64 { return d.epoch.Load() }

// DurableEpoch reports the epoch in the media's durable-epoch cell without
// reading media: the cell's value as of open or the last Persist.
func (d *Device) DurableEpoch() uint64 { return d.durable.Load() }

// Log exposes the undo log (tests and the inspector tool).
func (d *Device) Log() *undolog.Log { return d.log }

// HBM exposes the on-device cache, or nil if disabled.
func (d *Device) HBM() *hbm.Cache { return d.cache }

func (d *Device) toPM(hostAddr uint64) uint64 {
	if hostAddr < d.hostBase || hostAddr >= d.hostBase+d.size {
		panic(fmt.Sprintf("device: host address %#x outside vPM [%#x,+%#x)", hostAddr, d.hostBase, d.size))
	}
	return hostAddr - d.hostBase + d.pmBase
}

// durableBelow reports the highest log bound durable at time `now`.
func (d *Device) durableBelow(now sim.Time) uint64 {
	i := sort.Search(len(d.logDone), func(i int) bool { return d.logDone[i].at > now })
	if i == 0 {
		return d.log.Tail()
	}
	return d.logDone[i-1].bound
}

// durableAt reports when the given log bound becomes durable (the time of
// the first mark with bound ≥ the requested one).
func (d *Device) durableAt(bound uint64) sim.Time {
	i := sort.Search(len(d.logDone), func(i int) bool { return d.logDone[i].bound >= bound })
	if i == len(d.logDone) {
		return d.lastLogDone
	}
	return d.logDone[i].at
}

// logLine undo-logs the pre-image of the line at hostAddr if it has not been
// logged this epoch. Logging is asynchronous: the append is queued on PM
// write bandwidth and the host is not stalled (§3.2). Returns the line's log
// bound.
func (d *Device) logLine(hostAddr uint64, at sim.Time) uint64 {
	if i, ok := d.logged.get(hostAddr); ok {
		d.Stats.LogSkips.Inc()
		return d.logDone[i].bound
	}
	pmAddr := d.toPM(hostAddr)
	// The pre-image is the current PM content. A clean HBM copy equals it;
	// a dirty HBM copy cannot exist here (dirty lines are always logged
	// already this epoch, and persist() cleans everything).
	var old [LineSize]byte
	if d.cache != nil {
		if ln := d.cache.Peek(hostAddr); ln != nil {
			if ln.Dirty {
				panic(fmt.Sprintf("device: unlogged line %#x dirty in HBM", hostAddr))
			}
			old = ln.Data
		} else {
			d.pm.Read(pmAddr, old[:], at)
		}
	} else {
		d.pm.Read(pmAddr, old[:], at)
	}
	off, done, err := d.log.Append(d.epoch.Load(), pmAddr, old, at)
	if err != nil {
		panic(fmt.Sprintf("device: %v — size the undo log for the epoch working set or call persist() more often", err))
	}
	bound := off + undolog.EntrySize
	d.logged.put(hostAddr, uint32(len(d.logDone)))
	d.modified = append(d.modified, hostAddr)
	d.logDone = append(d.logDone, logMark{bound: bound, at: done})
	if done > d.lastLogDone {
		d.lastLogDone = done
	}
	return bound
}

// insertHBM places a line into the HBM cache, handling victim write-back.
// Returns the time after any forced stall (an undurable dirty victim cannot
// leave until its undo entry persists).
func (d *Device) insertHBM(ln hbm.Line, at sim.Time) sim.Time {
	if d.cache == nil {
		if ln.Dirty {
			// No buffer: write through once the log entry is durable.
			at = sim.MaxTime(at, d.durableAt(ln.LogBound))
			d.pm.Write(d.toPM(ln.Addr), ln.Data[:], at)
			d.Stats.LinesPersisted.Inc()
		}
		return at
	}
	victim, evicted := d.cache.Insert(ln, d.durableBelow(at))
	if evicted && victim.Dirty {
		wbAt := sim.MaxTime(at, d.durableAt(victim.LogBound))
		if wbAt > at {
			at = wbAt // the device pipeline stalls for the log
		}
		d.pm.Write(d.toPM(victim.Addr), victim.Data[:], at)
		d.Stats.LinesPersisted.Inc()
	}
	return at
}

// FetchLine implements coherence.Home: serve a host fill. Exclusive fetches
// (RdOwn) trigger undo logging; read fetches are granted Shared so that the
// host's first store is always visible to the device (§3.1 "Stores").
func (d *Device) FetchLine(hostAddr uint64, excl bool, buf []byte, at sim.Time) coherence.FillResult {
	op := cxl.RdShared
	if excl {
		op = cxl.RdOwn
	}
	at = d.link.ToDevice(op, at)
	at = d.link.DeviceProcess(at)
	d.Stats.FillsServed.Inc()

	if excl {
		d.logLine(hostAddr, at) // asynchronous: no wait
	}

	var data [LineSize]byte
	served := false
	if d.cache != nil {
		if ln := d.cache.Lookup(hostAddr); ln != nil {
			data = ln.Data
			at += sim.HBMLatency
			served = true
		}
	}
	if !served {
		at = d.pm.Read(d.toPM(hostAddr), data[:], at)
		if d.cache != nil {
			at = d.insertHBM(hbm.Line{Addr: hostAddr, Data: data}, at)
		}
	}
	copy(buf, data[:])

	st := coherence.Shared
	if excl {
		st = coherence.Exclusive
	}
	at = d.link.ToHost(cxl.GO, at)
	return coherence.FillResult{State: st, Done: at}
}

// UpgradeLine implements coherence.Home: the host upgrades a Shared line for
// writing. The device undo-logs asynchronously and acknowledges immediately.
func (d *Device) UpgradeLine(hostAddr uint64, at sim.Time) sim.Time {
	at = d.link.ToDevice(cxl.ItoMWr, at)
	at = d.link.DeviceProcess(at)
	d.logLine(hostAddr, at)
	return d.link.ToHost(cxl.GO, at)
}

// WriteBackLine implements coherence.Home: the host evicted a dirty vPM
// line. The device buffers it; it reaches PM once its undo entry is durable.
func (d *Device) WriteBackLine(hostAddr uint64, data []byte, at sim.Time) sim.Time {
	at = d.link.ToDevice(cxl.DirtyEvict, at)
	at = d.link.DeviceProcess(at)
	d.Stats.WriteBacksRecv.Inc()

	i, ok := d.logged.get(hostAddr)
	if !ok {
		// A dirty host line must have been granted exclusively this epoch,
		// which logged it. Reaching here is a protocol bug.
		panic(fmt.Sprintf("device: dirty write-back for unlogged line %#x", hostAddr))
	}
	var line [LineSize]byte
	copy(line[:], data)
	return d.insertHBM(hbm.Line{Addr: hostAddr, Data: line, Dirty: true, LogBound: d.logDone[i].bound}, at)
}

// Persist runs the §3.3 protocol at time `at`:
//
//  1. Recall (SnpData) every line modified this epoch, downgrading host
//     copies and collecting current values.
//  2. Wait for the epoch's undo-log entries to be durable.
//  3. Write every modified line back to PM data space.
//  4. Atomically advance the durable-epoch cell.
//  5. Truncate the undo log and open the next epoch.
//
// It returns a report whose Done field is when persist() returns to the
// application.
func (d *Device) Persist(at sim.Time) PersistReport {
	if d.host == nil && len(d.modified) > 0 {
		panic("device: Persist with no host attached")
	}
	epoch := d.epoch.Load()
	rep := PersistReport{Epoch: epoch, LinesSnooped: len(d.modified)}

	// Deterministic iteration order for reproducible timings. The sort leaves
	// logDone, and the indices logged maps lines to, in log order.
	addrs := d.modified
	slices.Sort(addrs)

	// Phase 1: snoop back modified lines.
	for _, hostAddr := range addrs {
		at = d.link.ToHost(cxl.SnpData, at)
		d.Stats.SnoopsSent.Inc()
		res := d.host.SnoopLine(hostAddr, coherence.SnpData, at)
		at = res.Done
		respOp := cxl.RspMiss
		if res.Present {
			respOp = cxl.RspData
		}
		at = d.link.ToDevice(respOp, at)
		at = d.link.DeviceProcess(at)
		if res.Dirty {
			d.Stats.SnoopsDirty.Inc()
			i, _ := d.logged.get(hostAddr)
			at = d.insertHBM(hbm.Line{Addr: hostAddr, Data: res.Data, Dirty: true, LogBound: d.logDone[i].bound}, at)
		}
	}

	// Phase 2: the epoch's undo entries must be durable before data
	// write-back may complete.
	if d.lastLogDone > at {
		rep.LogWaited = d.lastLogDone - at
		at = d.lastLogDone
	}

	// Phase 3: write back every still-dirty buffered line, in address
	// order. Every dirty HBM line is one of this epoch's modified lines: a
	// line enters HBM dirty only through WriteBackLine, which refuses an
	// unlogged line, or through phase 1, and this phase leaves none dirty.
	if d.cache != nil {
		for _, hostAddr := range addrs {
			ln := d.cache.Peek(hostAddr)
			if ln == nil || !ln.Dirty {
				continue
			}
			at = d.pm.Write(d.toPM(hostAddr), ln.Data[:], at)
			d.cache.MarkClean(hostAddr)
			d.Stats.LinesPersisted.Inc()
			rep.LinesWritten++
		}
	}

	// Phase 4: atomically commit the epoch.
	var cell [8]byte
	binary.LittleEndian.PutUint64(cell[:], epoch)
	at = d.pm.WriteAtomic(d.epochPos, cell[:], at)
	d.durable.Store(epoch)

	// Phase 5: drop the epoch's undo entries and start the next epoch.
	at = d.log.Truncate(d.log.Head(), at)
	d.epoch.Store(epoch + 1)
	d.logged.reset()
	d.modified = addrs[:0]
	d.logDone = d.logDone[:0]
	d.lastLogDone = 0
	d.Stats.Persists.Inc()

	rep.Done = at
	return rep
}

// PersistPipelined is the §6 "fully non-blocking persist()" extension: it
// runs the same protocol as Persist, but the host is released after issuing
// the persist command (one link traversal) while the snoop, write-back, and
// commit work proceeds on the device timeline, overlapping the next epoch's
// execution. Successive pipelined persists commit in order. It returns the
// report (whose Done is the device-side commit time) and the host release
// time.
//
// The functional snapshot point is the call itself — the snoops capture line
// values now — matching the paper's constraint that host caches cannot hold
// two epoch versions of a line.
func (d *Device) PersistPipelined(at sim.Time) (PersistReport, sim.Time) {
	// The host posts a persist doorbell (an MMIO write, not a coherence
	// message) and continues immediately.
	release := d.link.ToDevice(cxl.CfgWr, at)
	start := sim.MaxTime(at, d.prevPersistDone)
	rep := d.Persist(start)
	d.prevPersistDone = rep.Done
	return rep, release
}
