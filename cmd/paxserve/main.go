// Command paxserve is the PAX KV daemon: it serves a shard fleet over TCP to
// many concurrent clients, multiplexing them onto the paper's single-writer
// programming model with epoch group commits (one Persist per batch of
// writes, so N clients share one snapshot's cost).
//
// Usage:
//
//	paxserve -pool ./kv.pool                 # create or recover, then serve
//	paxserve -pool ./kv.pool -addr :7421
//	paxserve -pool ./kv.pool -overwrite      # reformat an existing pool
//	paxserve -pool ./kv.pool -shards 4       # partition the keyspace 4 ways
//	paxserve -pool ./kv.pool -debug-addr 127.0.0.1:7422   # HTTP observability
//
// Each shard's one writer goroutine applies, persists and acks its group
// commits: a batch seals as soon as the shard's queue is empty (or at
// -max-batch writes, a PERSIST, or shutdown) — it never waits for company —
// and every ack follows its own epoch's delta append and fsync. A write
// becomes visible to GETs at that same point, so a GET never serves a write
// that a crash could roll back.
//
// -debug-addr starts an HTTP observability plane on a second listener:
// /metrics renders the merged metrics registry (counters, gauges, and the
// commit/GET latency quantiles) as `name value` text, /trace returns the
// commit flight recorder as JSON, and /debug/pprof/ exposes the standard Go
// profiler. The plane is unauthenticated — keep it on localhost or an
// operator network.
//
// Every pool is a fleet of N >= 1 shards: the keyspace is hash-partitioned
// across N pool files (kv.pool.shard-0 … kv.pool.shard-N-1; one shard by
// default), each with its own writer loop, undo log, and device, so N group
// commits run in parallel; startup opens and recovers all shards
// concurrently. Keys route through a fixed 256-slot space with a persisted
// slot→shard map (kv.pool.slotmap), so the fleet can grow live from any
// size, one shard included: SIGUSR1 (or the SPLIT wire op) splits the
// hottest shard — a new shard pool comes up, the hot half of the source's
// slots migrate through the normal epoch machinery with acked writes durable
// throughout, and the new assignment publishes atomically. The MERGE wire op
// runs the inverse, down to one shard: the coldest shard's slots drain onto
// a survivor and the fleet shrinks by one, the retired shard file removed
// crash-safely. On restart the shard count is detected from the files
// present (-shards 0, the default), and an explicit -shards that disagrees
// with the files is refused unless -overwrite. A bare kv.pool file (the layout one-shard pools
// had before every pool was a fleet) is refused without touching it; the
// error names the two renames — kv.pool -> kv.pool.shard-0 and
// kv.pool.epochlog -> kv.pool.shard-0.epochlog — that make it a one-shard
// fleet, and -overwrite reformats it instead.
//
// -autosplit and -merge-idle hand resharding to the built-in autopilot: a
// policy loop samples windowed per-shard load every -autopilot-interval and
// splits the hottest shard when its commit pipeline stays saturated
// (windowed enqueue-wait p99, not mere imbalance) for
// several consecutive ticks, or folds the coldest shard back after it idles
// for -merge-idle — with hysteresis and a cooldown so the policy never
// flaps. Its decisions and windowed rates are visible in STATS
// (paxserve_autopilot_*, paxserve_window_*) and TRACE.
//
// GETs do not enter the writer queue: each shard keeps a volatile read
// index (rebuilt from the recovered pool at startup) that the writer
// publishes each batch to once its commit succeeds, so reads are answered
// immediately even while a group commit is in flight, and never with a
// write that commit could still lose.
//
// Every pool is served through the delta epoch store: a group commit appends
// the byte ranges the batch dirtied to <pool>.epochlog/ and fsyncs the
// append, and the pool file is the checkpoint a background pass refreshes.
// There is no store to choose: a pool's epoch log is replayed on open, and a
// pool file without one (a legacy full-image pool, or paxrecover's output)
// opens as a checkpoint with an empty log.
//
// The protocol is internal/wire's length-prefixed binary framing; the Go
// client is pax/internal/wire.Client. SIGINT/SIGTERM shut down gracefully:
// stop accepting, drain in-flight requests, and persist the open epoch, so a
// clean shutdown never loses an acked write.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"pax"
	"pax/internal/blackbox"
	"pax/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7421", "TCP listen address")
		poolPath  = flag.String("pool", "", "fleet path: the shards are <pool>.shard-0…N-1 beside <pool>.slotmap (required; created if missing)")
		shards    = flag.Int("shards", 0, "keyspace shards, each its own pool file and commit pipeline (0 = detect from existing files, else 1)")
		dataSize  = flag.Uint64("data", 64<<20, "vPM data region size in bytes, per shard (pool creation only)")
		logSize   = flag.Uint64("log", 8<<20, "undo log region size in bytes, per shard (pool creation only)")
		hbmSize   = flag.Int("hbm", 16<<20, "device HBM cache size in bytes (0 disables)")
		profile   = flag.String("profile", "cxl", "device profile: cxl | enzian")
		overwrite = flag.Bool("overwrite", false, "reformat the pool files even if they already exist")
		maxBatch  = flag.Int("max-batch", 128, "max writes acked per group commit")
		queue     = flag.Int("queue", 1024, "request queue depth (backpressure bound)")
		reqTmo    = flag.Duration("req-timeout", 5*time.Second, "per-request enqueue timeout")
		retries   = flag.Int("commit-retries", 3, "persist retries per group commit before the shard seals fail-stop (-1 disables)")
		retryDly  = flag.Duration("commit-retry-delay", 2*time.Millisecond, "wait before the first commit retry, doubling per attempt")
		debugAddr = flag.String("debug-addr", "", "HTTP observability listener serving /metrics, /trace, and /debug/pprof/ (unauthenticated — bind to localhost; empty disables)")
		slowCmt   = flag.Duration("slow-commit", server.DefaultSlowCommit, "emit a commit_slow event for group commits slower than this (negative disables commit_slow events)")
		bbox      = flag.Bool("blackbox", false, "journal lifecycle events and windowed metrics snapshots to <pool>.blackbox/ for crash postmortems (paxinspect -postmortem)")
		bboxTick  = flag.Duration("blackbox-interval", time.Second, "black-box windowed metrics snapshot period")
		autosplit = flag.Bool("autosplit", false, "run the reshard autopilot's split policy: split the hottest shard when its commit pipeline stays saturated")
		mergeIdle = flag.Duration("merge-idle", 0, "run the reshard autopilot's merge policy: fold the coldest shard back after it idles this long, never below 2 shards (0 disables)")
		apTick    = flag.Duration("autopilot-interval", time.Second, "reshard autopilot policy tick (windowed load sampling period)")
	)
	flag.Parse()
	if *poolPath == "" {
		fmt.Fprintln(os.Stderr, "paxserve: -pool is required")
		flag.Usage()
		os.Exit(2)
	}
	// Catch a missing parent directory here: deeper in the stack it would
	// surface as a media sync failure sealing the shard, which is the wrong
	// diagnosis for a typo'd path.
	if dir := filepath.Dir(*poolPath); dir != "." {
		if _, err := os.Stat(dir); err != nil {
			fmt.Fprintf(os.Stderr, "paxserve: pool directory: %v\n", err)
			os.Exit(2)
		}
	}

	opts := pax.Options{
		DataSize:  *dataSize,
		LogSize:   *logSize,
		HBMSize:   *hbmSize,
		Profile:   pax.DeviceProfile(*profile),
		Overwrite: *overwrite,
	}

	// Resolve the shard count against what is on disk: a restart must reopen
	// the layout the previous run left. Routing follows the persisted slot
	// map, not the raw count, but a count that disagrees with the files is
	// still almost certainly a typo'd path or a stale flag — refuse rather
	// than guess (live growth is SIGUSR1 / the SPLIT wire op, not -shards).
	n := *shards
	discovered, err := server.DiscoverShards(nil, *poolPath)
	if *overwrite && errors.Is(err, server.ErrBarePool) {
		err = nil // -overwrite reformats a bare pool like any other layout
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxserve: %v\n", err)
		os.Exit(1)
	}
	switch {
	case n < 0:
		fmt.Fprintln(os.Stderr, "paxserve: -shards must be >= 0")
		os.Exit(2)
	case n == 0 && discovered > 0:
		n = discovered
	case n == 0:
		n = 1
	case discovered > 0 && discovered != n && !*overwrite:
		fmt.Fprintf(os.Stderr, "paxserve: %q holds %d shard(s) but -shards %d was requested; reopen with -shards %d (or 0) or reformat with -overwrite\n",
			*poolPath, discovered, n, discovered)
		os.Exit(2)
	}

	eng, err := server.OpenSharded(*poolPath, n, opts, 0, server.Config{
		MaxBatch:         *maxBatch,
		QueueDepth:       *queue,
		EnqueueTimeout:   *reqTmo,
		CommitRetries:    *retries,
		CommitRetryDelay: *retryDly,
		SlowCommit:       *slowCmt,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxserve: %v\n", err)
		os.Exit(1)
	}
	for k, rec := range eng.Recoveries() {
		if rec.LinesRolledBack > 0 {
			fmt.Printf("paxserve: recovered shard %d to epoch %d (%d lines rolled back)\n",
				k, rec.DurableEpoch, rec.LinesRolledBack)
		}
	}

	eng.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	// The black box attaches before the autopilot and the listener so its
	// journal sees every lifecycle event the daemon ever emits, and before
	// serving so the EvOpen records land first.
	var bboxStop func()
	var bboxJournal *blackbox.Journal
	if *bbox {
		j, err := blackbox.Open(blackbox.Config{Dir: *poolPath + blackbox.DirSuffix})
		if err != nil {
			fmt.Fprintf(os.Stderr, "paxserve: blackbox: %v\n", err)
			os.Exit(1)
		}
		bboxJournal = j
		bboxStop = server.AttachBlackbox(eng, j, *bboxTick)
		fmt.Printf("paxserve: black box journaling to %s (snapshot every %v)\n",
			*poolPath+blackbox.DirSuffix, *bboxTick)
	}

	if *autosplit || *mergeIdle > 0 {
		if _, err := eng.StartAutopilot(server.AutopilotConfig{
			Interval:     *apTick,
			SplitEnabled: *autosplit,
			MergeEnabled: *mergeIdle > 0,
			MergeIdle:    *mergeIdle,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "paxserve: autopilot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("paxserve: reshard autopilot on (split=%v merge-idle=%v interval=%v)\n",
			*autosplit, *mergeIdle, *apTick)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxserve: listen: %v\n", err)
		os.Exit(1)
	}
	srv := server.NewServer(eng)
	srv.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	if *debugAddr != "" {
		dlis, err := startDebug(*debugAddr, eng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paxserve: debug listener: %v\n", err)
			os.Exit(1)
		}
		defer dlis.Close()
		fmt.Printf("paxserve: debug plane on http://%s (/metrics /trace /debug/pprof/)\n", dlis.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	splits := make(chan os.Signal, 1)
	signal.Notify(splits, syscall.SIGUSR1)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	fmt.Printf("paxserve: serving %s on %s (%d shard(s), durable epoch %d, max batch %d)\n",
		*poolPath, lis.Addr(), eng.NumShards(), eng.DurableEpoch(), *maxBatch)

	var splitting sync.WaitGroup
serve:
	for {
		select {
		case sig := <-sigs:
			fmt.Printf("paxserve: %v: shutting down\n", sig)
			break serve
		case <-splits:
			// Operator-driven live split (kill -USR1 <pid>): peel the hot half
			// of the busiest shard's slots onto a new shard while serving.
			// Off the signal loop so a long migration never masks a shutdown.
			splitting.Add(1)
			go func() {
				defer splitting.Done()
				rep, err := eng.Split(-1)
				if err != nil {
					fmt.Fprintf(os.Stderr, "paxserve: split: %v\n", err)
					return
				}
				fmt.Printf("paxserve: split shard %d -> %d (%d slots, %d keys moved; %d shard(s), slot map seq %d)\n",
					rep.Source, rep.Dest, len(rep.MovedSlots), rep.MovedKeys, rep.Shards, rep.Seq)
			}()
		case err := <-done:
			if err != nil {
				fmt.Fprintf(os.Stderr, "paxserve: serve: %v\n", err)
			}
			break serve
		}
	}
	splitting.Wait()
	srv.Shutdown()
	if bboxStop != nil {
		// Orderly-exit marker first (so the postmortem can tell a shutdown
		// from a crash), then the final snapshot, then release the journal.
		eng.EmitEvent(blackbox.EvShutdown, nil)
		bboxStop()
		if err := bboxJournal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "paxserve: blackbox close: %v\n", err)
		}
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "paxserve: close: %v\n", err)
		// Per-shard health so an operator can tell a degraded shutdown (one
		// shard's media failed) from a total one.
		for k, herr := range eng.Health() {
			if herr != nil {
				fmt.Fprintf(os.Stderr, "paxserve: shard %d sealed: %v\n", k, herr)
			}
		}
		os.Exit(1)
	}
	fmt.Printf("paxserve: %d shard(s) sealed at durable epoch %d\n", eng.NumShards(), eng.DurableEpoch())
}
