package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pax/internal/server"
	"pax/internal/wire"
)

// Live mode: instead of reading a pool file's raw bytes, connect to a running
// paxserve and poll its STATS (-stats) or TRACE (-trace) wire commands. With
// -interval > 0 the poll repeats until interrupted; otherwise it runs once.

func runLive(addr string, trace, byShard bool, interval time.Duration) {
	cl, err := wire.Dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paxinspect: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()
	for {
		switch {
		case trace:
			err = printTrace(cl)
		case byShard:
			err = printShardStats(cl)
		default:
			err = printStats(cl)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paxinspect: %s: %v\n", addr, err)
			os.Exit(1)
		}
		if interval <= 0 {
			return
		}
		time.Sleep(interval)
		fmt.Println()
	}
}

func printStats(cl *wire.Client) error {
	text, err := cl.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("-- stats @ %s --\n%s", time.Now().Format(time.RFC3339), text)
	return nil
}

// printShardStats parses the STATS registry text (`name value` lines, with
// per-shard series labeled {shard="K"} and the fleet size in paxserve_shards)
// and renders one row per shard: the view that makes a hot shard visible at
// a glance.
func printShardStats(cl *wire.Client) error {
	text, err := cl.Stats()
	if err != nil {
		return err
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m[fields[0]] = v
	}
	shards := int(m["paxserve_shards"])
	fmt.Printf("-- shards @ %s --\n", time.Now().Format(time.RFC3339))
	fmt.Printf("router: %d shard(s), slot map seq %.0f, %.0f split(s), %.0f merge(s), %.0f slot(s) / %.0f key(s) moved, %.0f stale key(s) purged\n",
		shards, m["paxserve_slotmap_seq"], m["paxserve_reshard_splits"], m["paxserve_reshard_merges"], m["paxserve_reshard_moved_slots"],
		m["paxserve_reshard_moved_keys"], m["paxserve_reshard_purged_keys"])
	autopilot := m["paxserve_autopilot_enabled"] == 1
	if autopilot {
		fmt.Printf("autopilot: on, %.0f split(s) / %.0f merge(s) by policy\n",
			m["paxserve_autopilot_splits"], m["paxserve_autopilot_merges"])
	}
	get := func(name string, k int) float64 {
		return m[name+`{shard="`+strconv.Itoa(k)+`"}`]
	}
	quant := func(name string, k int) float64 {
		return m[name+`{q="p99",shard="`+strconv.Itoa(k)+`"}`]
	}
	fmt.Printf("  %5s %14s %12s %10s %16s %15s %13s\n",
		"shard", "acked writes", "gets", "commits", "enqueue p99", "commit p99", "ack p99")
	for k := 0; k < shards; k++ {
		fmt.Printf("  %5d %14.0f %12.0f %10.0f %16s %15s %13s\n",
			k,
			get("paxserve_acked_writes", k),
			get("paxserve_gets", k),
			get("paxserve_group_commits", k),
			fmtNS(int64(quant("paxserve_enqueue_wait_ns", k))),
			fmtNS(int64(quant("paxserve_commit_ns", k))),
			fmtNS(int64(quant("paxserve_commit_ack_ns", k))))
	}
	if autopilot {
		// Windowed rates are what the policy actually looks at; cumulative
		// counters above can't show which shard is hot *now*.
		fmt.Printf("  %5s %14s %16s\n",
			"shard", "win ops/s", "win enq p99")
		for k := 0; k < shards; k++ {
			fmt.Printf("  %5d %14.1f %16s\n",
				k,
				get("paxserve_window_ops_per_sec", k),
				fmtNS(int64(get("paxserve_window_enqueue_p99_ns", k))))
		}
	}
	return nil
}

func printTrace(cl *wire.Client) error {
	body, err := cl.Trace()
	if err != nil {
		return err
	}
	var snap server.TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("decoding TRACE reply: %w", err)
	}
	fmt.Printf("-- trace @ %s: %d shard(s), slow threshold %s --\n",
		time.Now().Format(time.RFC3339), snap.Shards, time.Duration(snap.SlowThresholdNS))
	printRecords("recent commits", snap.Recent)
	evs := make([]pmEvent, len(snap.Events))
	for i, ev := range snap.Events {
		evs[i] = pmEvent(ev)
	}
	printEvents(evs, len(evs))
	return nil
}

func printRecords(title string, recs []server.CommitRecord) {
	fmt.Printf("%s: %d\n", title, len(recs))
	if len(recs) == 0 {
		return
	}
	fmt.Printf("  %5s %5s %6s %5s %7s %7s %10s %10s %10s %10s %10s  %s\n",
		"shard", "seq", "epoch", "batch", "retries", "sealed", "seal", "persist", "ack", "total", "sim", "err")
	for _, r := range recs {
		errText := r.Err
		if errText == "" {
			errText = "-"
		}
		fmt.Printf("  %5d %5d %6d %5d %7d %7s %10s %10s %10s %10s %10s  %s\n",
			r.Shard, r.Seq, r.Epoch, r.Batch, r.Retries, r.SealReason,
			fmtNS(r.SealNS), fmtNS(r.PersistNS), fmtNS(r.AckNS), fmtNS(r.TotalNS), fmtNS(r.SimNS), errText)
	}
}

// fmtNS renders nanoseconds compactly (fixed units read better than
// Duration's adaptive unit soup in a fixed-width table).
func fmtNS(ns int64) string {
	if ns < 10_000_000 {
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%.1fms", float64(ns)/1e6)
}
