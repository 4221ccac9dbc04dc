package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pax/internal/blackbox"
)

// Postmortem mode: reconstruct a crash timeline from the black-box journal
// alone (paxserve -blackbox writes it to <pool>.blackbox/). The server is
// dead; everything below comes from replaying the journal's CRC-framed
// records — lifecycle events and windowed metrics snapshots — and pulling
// out what an operator asks first after a crash: was it a crash at all, how
// fast was the store running just before, which commit failed and why, what
// did the autopilot last do, and was a reshard in flight.

// pmEvent mirrors the journaled server.Event frame. Defined locally on
// purpose: the journal is a wire format, and the analyzer must keep decoding
// journals written by older servers.
type pmEvent struct {
	Seq      uint64          `json:"seq"`
	UnixNano int64           `json:"unix_nano"`
	Type     string          `json:"type"`
	Shard    int             `json:"shard"`
	Detail   json.RawMessage `json:"detail,omitempty"`
}

type ratePoint struct {
	UnixNano  int64   `json:"unix_nano"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

type sealInfo struct {
	Shard    int    `json:"shard"`
	UnixNano int64  `json:"unix_nano"`
	Error    string `json:"error"`
}

// timeline is the machine-readable postmortem (-postmortem -json).
type timeline struct {
	Journal       blackbox.Info `json:"journal"`
	FirstUnixNano int64         `json:"first_unix_nano"`
	LastUnixNano  int64         `json:"last_unix_nano"`
	// CleanShutdown is whether the journal ends in an orderly-shutdown
	// marker; false means the process died with the journal open — a crash.
	CleanShutdown bool        `json:"clean_shutdown"`
	Snapshots     int         `json:"snapshots"`
	RateTrend     []ratePoint `json:"rate_trend,omitempty"`
	Seal          *sealInfo   `json:"seal,omitempty"`
	// FailedCommit is the flight-recorder record of the last commit that
	// exhausted its retries (the record that explains the seal).
	FailedCommit      json.RawMessage `json:"failed_commit,omitempty"`
	FailedCommitShard int             `json:"failed_commit_shard,omitempty"`
	LastPolicy        json.RawMessage `json:"last_policy,omitempty"`
	// OpenReshard names a split/merge that started but never logged its done
	// event — the process died inside it.
	OpenReshard string    `json:"open_reshard,omitempty"`
	Events      []pmEvent `json:"events"`
}

func runPostmortem(dir string, asJSON bool) error {
	j, err := blackbox.Open(blackbox.Config{Dir: dir, ReadOnly: true})
	if err != nil {
		return err
	}
	defer j.Close()

	tl := &timeline{Journal: j.Info()}
	openSplits, openMerges := 0, 0
	err = j.Replay(func(rec blackbox.Record) error {
		if tl.FirstUnixNano == 0 {
			tl.FirstUnixNano = rec.UnixNano
		}
		tl.LastUnixNano = rec.UnixNano
		if rec.Type == blackbox.EvSnapshot {
			var s blackbox.Snapshot
			if json.Unmarshal(rec.Payload, &s) != nil {
				return nil
			}
			tl.Snapshots++
			tl.RateTrend = append(tl.RateTrend, ratePoint{UnixNano: s.UnixNano, OpsPerSec: s.OpsPerSec})
			return nil
		}
		ev := pmEvent{Shard: -1}
		if json.Unmarshal(rec.Payload, &ev) != nil || ev.Type == "" {
			// Unknown frame from a future writer: keep it on the timeline
			// with what the record header alone says.
			ev = pmEvent{Seq: rec.Seq, UnixNano: rec.UnixNano, Type: rec.Type, Shard: -1}
		}
		tl.Events = append(tl.Events, ev)
		switch ev.Type {
		case blackbox.EvSeal:
			var d struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(ev.Detail, &d)
			tl.Seal = &sealInfo{Shard: ev.Shard, UnixNano: ev.UnixNano, Error: d.Error}
		case blackbox.EvCommitFailed:
			tl.FailedCommit = ev.Detail
			tl.FailedCommitShard = ev.Shard
		case blackbox.EvPolicy:
			tl.LastPolicy = ev.Detail
		case blackbox.EvShutdown:
			tl.CleanShutdown = true
		case blackbox.EvSplitStart:
			openSplits++
		case blackbox.EvSplitDone:
			openSplits--
		case blackbox.EvMergeStart:
			openMerges++
		case blackbox.EvMergeDone:
			openMerges--
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A shutdown marker anywhere but the tail belongs to an earlier life of
	// the journal; only the final event proves this run ended on purpose.
	if n := len(tl.Events); n > 0 && tl.Events[n-1].Type != blackbox.EvShutdown {
		tl.CleanShutdown = false
	}
	if openMerges > 0 {
		tl.OpenReshard = "merge"
	} else if openSplits > 0 {
		tl.OpenReshard = "split"
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tl)
	}
	printPostmortem(dir, tl)
	return nil
}

func pmTime(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return time.Unix(0, ns).Format("15:04:05.000")
}

func printPostmortem(dir string, tl *timeline) {
	fmt.Printf("postmortem: %s\n", dir)
	fmt.Printf("  journal: %d segment(s), %d record(s), seq %d..%d\n",
		tl.Journal.Segments, tl.Journal.Records, tl.Journal.FirstSeq, tl.Journal.LastSeq)
	if tl.Journal.TornTail {
		fmt.Printf("  torn tail: %d byte(s) of a partial append discarded (crash mid-journal-write)\n",
			tl.Journal.TornBytes)
	}
	if tl.FirstUnixNano != 0 {
		span := time.Duration(tl.LastUnixNano - tl.FirstUnixNano)
		fmt.Printf("  covers %s .. %s (%v)\n", pmTime(tl.FirstUnixNano), pmTime(tl.LastUnixNano), span.Round(time.Millisecond))
	}
	if tl.CleanShutdown {
		fmt.Printf("  verdict: CLEAN SHUTDOWN (orderly-exit marker is the journal's last event)\n")
	} else {
		fmt.Printf("  verdict: CRASH (journal ends without a shutdown marker)\n")
	}

	if n := len(tl.RateTrend); n > 0 {
		fmt.Printf("\nrate trend (last %d of %d snapshots):\n", min(10, n), tl.Snapshots)
		for _, p := range tl.RateTrend[max(0, n-10):] {
			fmt.Printf("  %s  %10.1f ops/s\n", pmTime(p.UnixNano), p.OpsPerSec)
		}
	}

	if tl.Seal != nil {
		fmt.Printf("\nseal: shard %d at %s\n  error: %s\n", tl.Seal.Shard, pmTime(tl.Seal.UnixNano), tl.Seal.Error)
	}
	if tl.FailedCommit != nil {
		var rec struct {
			Epoch     uint64 `json:"epoch"`
			Batch     int    `json:"batch"`
			Retries   int    `json:"retries"`
			Start     int64  `json:"start_unix_nano"`
			PersistNS int64  `json:"persist_ns"`
			SimNS     int64  `json:"sim_ns"`
			Err       string `json:"err"`
		}
		_ = json.Unmarshal(tl.FailedCommit, &rec)
		fmt.Printf("\nfailing commit (shard %d):\n", tl.FailedCommitShard)
		fmt.Printf("  batch of %d, %d retries, persist phase %v, modeled PAX commit %v\n",
			rec.Batch, rec.Retries, time.Duration(rec.PersistNS).Round(time.Microsecond), time.Duration(rec.SimNS))
		fmt.Printf("  error: %s\n", rec.Err)
	}
	if tl.LastPolicy != nil {
		var d struct {
			Action string `json:"action"`
			Shard  int    `json:"shard"`
			Reason string `json:"reason"`
			Shards int    `json:"shards"`
			Err    string `json:"error"`
		}
		_ = json.Unmarshal(tl.LastPolicy, &d)
		fmt.Printf("\nlast autopilot decision: %s shard %d (%s)", d.Action, d.Shard, d.Reason)
		if d.Err != "" {
			fmt.Printf(" FAILED: %s", d.Err)
		} else if d.Shards > 0 {
			fmt.Printf(" -> %d shards", d.Shards)
		}
		fmt.Println()
	}
	if tl.OpenReshard != "" {
		fmt.Printf("\nreshard in flight at crash: a %s started but never finished\n", tl.OpenReshard)
	}

	if len(tl.Events) > 0 {
		fmt.Println()
		printEvents(tl.Events, 20)
	}
}

// printEvents renders the last n of evs, oldest first, one line each with
// its detail cut to 100 bytes: the one event renderer behind -postmortem
// (the journal) and -trace (the live ring).
func printEvents(evs []pmEvent, n int) {
	show := evs[max(0, len(evs)-n):]
	fmt.Printf("last %d event(s):\n", len(show))
	for _, ev := range show {
		detail := ""
		if len(ev.Detail) > 0 {
			detail = string(ev.Detail)
			if len(detail) > 100 {
				detail = detail[:100] + "..."
			}
		}
		shard := fmt.Sprintf("%d", ev.Shard)
		if ev.Shard < 0 {
			shard = "-"
		}
		fmt.Printf("  %s  shard %-2s %-16s %s\n", pmTime(ev.UnixNano), shard, ev.Type, detail)
	}
}
