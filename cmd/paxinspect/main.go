// Command paxinspect dumps the on-media state of a pool file: header
// geometry, durable epoch, undo-log contents, allocator frontier, and root
// slots. It opens the media read-only and performs no recovery, so it shows
// exactly what a post-crash observer would find.
//
// For epoch-log pools (any pool paxserve has served) it first lists the delta
// segments next to the file — per-segment record counts, sequence and epoch
// ranges, and whether the newest segment ends in a torn append — then
// replays the committed deltas in memory and dumps the reconstructed state,
// without touching the bytes on disk.
//
// It also has a live mode against a running paxserve: -stats polls the
// server's STATS wire command (the metrics registry, latency quantiles
// included) and -trace polls TRACE (the commit flight recorder and the
// fleet's event ring) and renders the per-commit stage timings as a table,
// with the modeled PAX commit time of each epoch beside them (sim), then the
// recent events as -postmortem prints a journal's. -stats -shards folds the
// registry's {shard="K"} series into a per-shard summary table (acked ops,
// queue and commit tails, slot-router counters) — the view for spotting a
// hot shard before and after a SPLIT. -interval repeats the poll.
//
// Usage:
//
//	paxinspect -pool ./ht.pool [-entries 20]
//	paxinspect -stats 127.0.0.1:7421 [-interval 2s]
//	paxinspect -stats 127.0.0.1:7421 -shards
//	paxinspect -trace 127.0.0.1:7421 [-interval 2s]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"pax/internal/epochlog"
)

// Media layout constants, mirrored from internal/core and internal/undolog
// (this tool reads raw bytes on purpose: it must work on pools the library
// refuses to open).
const (
	poolMagic       = 0x5041585034f4f4c1
	logMagic        = 0x5041584c4f473031
	arenaMagic      = 0x5041584152454e41
	logHeaderSize   = 64
	logEntrySize    = 96
	rootSlots       = 16
	arenaHeaderSize = 40 + 9*8
)

func u64(b []byte, off uint64) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// within reports whether [off, off+n) lies inside a size-byte file.
func within(off, n uint64, size int) bool { return off <= uint64(size) && n <= uint64(size)-off }

// invalid prints why the pool cannot be dumped and exits 1: a header that
// points outside the file is corruption, not something to index with.
func invalid(format string, args ...any) {
	fmt.Printf("  INVALID "+format+"\n", args...)
	os.Exit(1)
}

// dumpEpochStore prints the delta segments next to an epoch-log pool, if
// any, and replays the committed records onto img so the dump below shows
// the reconstructed (checkpoint + deltas) state — what opening the pool
// would see. A torn tail is reported, not fatal: it is exactly the artifact
// a post-crash observer is here to look at. The file on disk is never
// modified (read-only open).
func dumpEpochStore(path string, img []byte) {
	dir := path + epochlog.DirSuffix
	ckptEpoch := uint64(0)
	if len(img) >= 64 {
		ckptEpoch = u64(img, 56)
	}
	store, err := epochlog.Open(epochlog.Config{Dir: dir, ReadOnly: true})
	if err != nil {
		fmt.Printf("  epoch store: %s: UNREADABLE: %v\n", dir, err)
		fmt.Printf("  (dump below shows the checkpoint image alone)\n")
		return
	}
	defer store.Close()
	info := store.Info()
	if len(info.Segments) == 0 && !info.TornRoll {
		return // no segment directory, or an empty one: the checkpoint is the pool
	}
	fmt.Printf("  epoch store: %s (checkpoint epoch %d, %d committed delta(s) in %d segment(s), %d bytes)\n",
		dir, ckptEpoch, info.Records, len(info.Segments), info.Bytes)
	for _, seg := range info.Segments {
		line := fmt.Sprintf("    %s: %7d bytes, %d record(s)", seg.Name, seg.Bytes, seg.Records)
		if seg.Records > 0 {
			line += fmt.Sprintf(", seq [%d,%d], epochs [%d,%d]",
				seg.FirstSeq, seg.LastSeq, seg.FirstEpoch, seg.LastEpoch)
		}
		if seg.Dropped {
			line += " DROPPED (covered by checkpoint)"
		}
		if seg.TornTail {
			line += " TORN TAIL (uncommitted append, discarded on replay)"
		}
		fmt.Println(line)
	}
	if info.TornRoll {
		fmt.Printf("  NOTE: a headerless newest segment was skipped — the pool crashed inside a\n")
		fmt.Printf("        segment roll; it holds no record\n")
	}
	if info.TornTail {
		fmt.Printf("  NOTE: the newest segment ends in a torn append — the pool crashed\n")
		fmt.Printf("        mid-commit; replay stops at seq %d (epoch %d)\n", info.LastSeq, info.LastEpoch)
	}
	err = store.Replay(func(rec epochlog.Record) error { return rec.Apply(img) })
	if err != nil {
		fmt.Printf("  epoch store: replay FAILED: %v\n", err)
		fmt.Printf("  (dump below shows the state up to the failing record)\n")
		return
	}
	fmt.Printf("  (dump below shows the reconstructed state: checkpoint + replayed deltas)\n")
}

func main() {
	var (
		path     = flag.String("pool", "", "pool file to inspect")
		entries  = flag.Int("entries", 10, "max undo-log entries to print")
		statsAt  = flag.String("stats", "", "poll a running paxserve's STATS at this address instead of reading a file")
		traceAt  = flag.String("trace", "", "poll a running paxserve's TRACE (commit flight recorder and recent events) at this address")
		interval = flag.Duration("interval", 0, "with -stats/-trace: repeat the poll at this period (0 = once)")
		byShard  = flag.Bool("shards", false, "with -stats: render a per-shard summary table (acked ops, queue/commit tails, slot counts) instead of the raw registry")
		postDir  = flag.String("postmortem", "", "reconstruct a crash timeline from a black-box journal directory (<pool>.blackbox/) — works with the server dead")
		asJSON   = flag.Bool("json", false, "with -postmortem: emit the machine-readable timeline instead of the human rendering")
	)
	flag.Parse()
	if *postDir != "" {
		if err := runPostmortem(*postDir, *asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "paxinspect: postmortem: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *statsAt != "" && *traceAt != "" {
		fmt.Fprintln(os.Stderr, "paxinspect: -stats and -trace are mutually exclusive")
		os.Exit(2)
	}
	if *byShard && *statsAt == "" {
		fmt.Fprintln(os.Stderr, "paxinspect: -shards needs -stats")
		os.Exit(2)
	}
	if addr := *statsAt + *traceAt; addr != "" {
		runLive(addr, *traceAt != "", *byShard, *interval)
		return
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "paxinspect: -pool is required (or -stats/-trace for live mode)")
		os.Exit(2)
	}
	img, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxinspect: %v\n", err)
		os.Exit(1)
	}
	if len(img) < 4096 {
		fmt.Fprintf(os.Stderr, "paxinspect: %d bytes is too small for a pool\n", len(img))
		os.Exit(1)
	}

	fmt.Printf("pool: %s (%d bytes)\n", *path, len(img))
	dumpEpochStore(*path, img)
	if got := u64(img, 0); got != poolMagic {
		invalid("pool magic %#x", got)
	}
	logOff, logSize := u64(img, 24), u64(img, 32)
	dataOff, dataSize := u64(img, 40), u64(img, 48)
	durable := u64(img, 56)
	fmt.Printf("  version       %d\n", u64(img, 8))
	fmt.Printf("  total size    %d\n", u64(img, 16))
	fmt.Printf("  undo log      [%#x, +%d)\n", logOff, logSize)
	fmt.Printf("  data (vPM)    [%#x, +%d)\n", dataOff, dataSize)
	fmt.Printf("  durable epoch %d\n", durable)
	if logSize < logHeaderSize || !within(logOff, logSize, len(img)) {
		invalid("undo log region [%#x, +%d) in a %d-byte file", logOff, logSize, len(img))
	}
	rootBase := dataOff + uint64(arenaHeaderSize+15)/16*16
	if rootBase < dataOff || !within(dataOff, dataSize, len(img)) || !within(rootBase, rootSlots*8, len(img)) {
		invalid("data region [%#x, +%d) in a %d-byte file", dataOff, dataSize, len(img))
	}

	// Undo log.
	lh := img[logOff:]
	if got := u64(lh, 0); got != logMagic {
		fmt.Printf("  undo log: INVALID magic %#x\n", got)
	} else {
		capacity := u64(lh, 16)
		tail := u64(lh, 24)
		if capacity%logEntrySize != 0 || capacity > logSize-logHeaderSize || tail%logEntrySize != 0 {
			invalid("undo log capacity %d or tail %d for a %d-byte log", capacity, tail, logSize)
		}
		fmt.Printf("  undo log: capacity %d entries, tail at entry %d\n",
			capacity/logEntrySize, tail/logEntrySize)
		printed, live := 0, 0
		for virt := tail; virt-tail < capacity; virt += logEntrySize {
			slot := logOff + logHeaderSize + virt%capacity
			e := img[slot : slot+logEntrySize]
			seq := u64(e, 8)
			if seq != virt/logEntrySize {
				break // validation would need the CRC; seq mismatch ends scan
			}
			live++
			if printed < *entries {
				fmt.Printf("    entry seq=%d epoch=%d addr=%#x old[0:8]=%x\n",
					seq, u64(e, 0), u64(e, 16), e[24:32])
				printed++
			}
		}
		fmt.Printf("  undo log: ~%d live entries (%d shown)\n", live, printed)
		if live > 0 && durable > 0 {
			fmt.Printf("  NOTE: live entries beyond the durable epoch mean the pool crashed\n")
			fmt.Printf("        mid-epoch; opening it (or paxrecover) will roll them back\n")
		}
	}

	// Allocator + roots.
	ah := img[dataOff:]
	if got := u64(ah, 0); got != arenaMagic {
		fmt.Printf("  allocator: INVALID magic %#x (pool never persisted?)\n", got)
		return
	}
	brk := u64(ah, 24)
	if brk < dataOff+arenaHeaderSize || brk > dataOff+dataSize {
		invalid("allocator brk %#x outside the data region [%#x, +%d)", brk, dataOff, dataSize)
	}
	fmt.Printf("  allocator: brk %#x (%d heap bytes in use)\n", brk, brk-dataOff-arenaHeaderSize)
	fmt.Printf("  roots (table at %#x):\n", rootBase)
	for i := uint64(0); i < rootSlots; i++ {
		if v := u64(img, rootBase+i*8); v != 0 {
			fmt.Printf("    slot %2d → %#x\n", i, v)
		}
	}
}
