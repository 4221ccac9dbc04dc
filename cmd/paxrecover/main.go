// Command paxrecover runs offline recovery on a pool file: it opens the
// pool (which performs the §3.4 rollback of any unpersisted epoch) and
// writes the repaired image back, reporting what was undone.
//
// A pool is a checkpoint image plus delta segments in <pool>.epochlog/.
// paxrecover reconstructs the last committed state by replaying the
// committed deltas onto the checkpoint (a torn tail — an append cut by a
// crash — is reported and discarded, never an error), runs the same §3.4
// rollback, and then FOLDS the log into the checkpoint: the repaired image
// replaces the file and the consumed segments are removed. The result
// reopens as a delta pool with an empty log; its next commit starts a fresh
// segment directory.
//
// Usage:
//
//	paxrecover -pool ./ht.pool
//	paxrecover -pool ./ht.pool -dry-run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pax/internal/core"
	"pax/internal/epochlog"
	"pax/internal/pmem"
	"pax/internal/seglog"
	"pax/internal/sim"
)

func main() {
	var (
		path   = flag.String("pool", "", "pool file to recover")
		dryRun = flag.Bool("dry-run", false, "report what recovery would do without writing the file")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "paxrecover: -pool is required")
		os.Exit(2)
	}
	if err := recoverPool(*path, *dryRun, os.Stdout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "paxrecover: %v\n", err)
		os.Exit(1)
	}
}

// recoverPool is the whole tool. Every file operation goes through fs (nil
// means seglog.OS), so a test can fail any of them.
func recoverPool(path string, dryRun bool, out io.Writer, fs seglog.FS) error {
	fs = seglog.OrOS(fs)
	img, err := seglog.ReadFile(fs, path)
	if err != nil {
		return err
	}

	// Epoch-store layout: replay the committed deltas onto the checkpoint
	// image before handing it to core recovery. Read-only open so a dry run
	// leaves even a torn tail untouched on disk.
	// A pool without a segment directory opens as an empty store.
	logDir := path + epochlog.DirSuffix
	store, err := epochlog.Open(epochlog.Config{Dir: logDir, ReadOnly: true, FS: fs})
	if err != nil {
		return fmt.Errorf("epoch log: %w", err)
	}
	err = store.Replay(func(rec epochlog.Record) error { return rec.Apply(img) })
	logInfo := store.Info()
	store.Close()
	if err != nil {
		return fmt.Errorf("epoch log replay: %w", err)
	}
	hasLog := len(logInfo.Segments) > 0 || logInfo.TornRoll

	pm := pmem.New(pmem.DefaultConfig(len(img)))
	pm.Restore(img)
	// Geometry comes from the header; host/device config is irrelevant for
	// recovery but required to build the runtime.
	opts := core.DefaultOptions()
	opts.Host = sim.SmallHost()
	pool, err := core.Open(pm, opts)
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	rep := pool.Recovery()
	fmt.Fprintf(out, "pool:             %s\n", path)
	if hasLog {
		fmt.Fprintf(out, "layout:           epoch log (checkpoint + %d segment(s), %d committed delta(s))\n",
			len(logInfo.Segments), logInfo.Records)
		for _, seg := range logInfo.Segments {
			line := fmt.Sprintf("  segment %s: %d record(s), seq [%d,%d], epochs [%d,%d], %d bytes",
				seg.Name, seg.Records, seg.FirstSeq, seg.LastSeq, seg.FirstEpoch, seg.LastEpoch, seg.Bytes)
			if seg.Dropped {
				line += " (checkpoint-covered, skipped)"
			}
			if seg.TornTail {
				line += " (torn tail discarded)"
			}
			fmt.Fprintln(out, line)
		}
		if logInfo.TornTail {
			fmt.Fprintf(out, "torn tail:        yes — an append was cut by the crash; recovery uses the last committed delta\n")
		}
	} else {
		fmt.Fprintf(out, "layout:           checkpoint only (empty epoch log)\n")
	}
	fmt.Fprintf(out, "durable epoch:    %d\n", rep.DurableEpoch)
	fmt.Fprintf(out, "entries scanned:  %d\n", rep.EntriesScanned)
	fmt.Fprintf(out, "lines rolled back:%d\n", rep.LinesRolledBack)

	if dryRun {
		fmt.Fprintln(out, "dry run: pool file not modified")
		return nil
	}
	if err := seglog.Publish(fs, path, pm.Snapshot()); err != nil {
		return err
	}
	if !hasLog {
		fmt.Fprintln(out, "pool recovered in place")
		return nil
	}
	// The repaired file now holds everything the segments held, durably:
	// Publish returned, so the image and its rename are on media. Removing
	// the segments only now means a crash here at worst leaves segments
	// whose replay is idempotent over the repaired image.
	if err := fs.RemoveAll(logDir); err != nil {
		return fmt.Errorf("removing consumed segments: %w", err)
	}
	fmt.Fprintln(out, "pool recovered in place (log folded into the checkpoint; segments removed)")
	return nil
}
