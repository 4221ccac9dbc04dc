package blackbox

import (
	"strings"
	"sync"
	"time"

	"pax/internal/stats"
)

// Record types the serving stack journals. The journal itself is agnostic —
// any type string works — but sharing the vocabulary here keeps the
// emitters (internal/server), the sampler, and the postmortem analyzer
// (paxinspect) agreeing on names.
const (
	// EvOpen is emitted once per shard at startup: recovery info and, on an
	// epoch-log pool, the replay report including any torn-tail truncation.
	EvOpen = "open"
	// EvSeal is the fail-stop transition: the shard sealed with a
	// durability error and will serve no more writes.
	EvSeal = "seal"
	// EvCommitFailed carries the flight-recorder record of a group commit
	// that exhausted its retries — the record that explains the seal.
	EvCommitFailed = "commit_failed"
	// EvCommitSlow carries the flight-recorder record of a commit over the
	// slow threshold.
	EvCommitSlow = "commit_slow"
	// Reshard lifecycle: split start/finish and the merge stages matching
	// merge.go's crash windows (drained, published, done).
	EvSplitStart     = "split_start"
	EvSplitDone      = "split_done"
	EvMergeStart     = "merge_start"
	EvMergeDrained   = "merge_drained"
	EvMergePublished = "merge_published"
	EvMergeDone      = "merge_done"
	// EvPolicy is one executed autopilot decision (server.PolicyDecision).
	EvPolicy = "policy_decision"
	// EvSnapshot is the sampler's periodic windowed metrics snapshot.
	EvSnapshot = "snapshot"
	// EvShutdown marks an orderly shutdown: a postmortem that finds it knows
	// the process did not crash.
	EvShutdown = "shutdown"
)

// Snapshot is one windowed metrics sample: per-second rates of the counter
// deltas over the window plus the current histogram quantiles, built with
// stats.Summary.Diff/Rate — the same helpers the reshard autopilot's load
// tracker uses.
type Snapshot struct {
	UnixNano   int64   `json:"unix_nano"`
	DurSeconds float64 `json:"dur_seconds"`
	// OpsPerSec is the serving rate over the window: acked writes (durable +
	// on-apply) plus served GETs per second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Rates holds the nonzero per-second counter rates over the window;
	// Quantiles the current values of the `{q="..."}` latency series.
	Rates     stats.Summary `json:"rates,omitempty"`
	Quantiles stats.Summary `json:"quantiles,omitempty"`
}

// opsRate sums the serving-rate counters out of a rate summary.
func opsRate(rates stats.Summary) float64 {
	return rates["paxserve_acked_writes"] + rates["paxserve_acked_on_apply"] + rates["paxserve_gets"]
}

// MakeSnapshot windows cur against prev: counter deltas become per-second
// rates (zeros dropped), quantile series are carried at their current value.
func MakeSnapshot(prev, cur stats.Summary, dt time.Duration) Snapshot {
	rates := cur.Diff(prev).Rate(dt)
	for k, v := range rates {
		if v == 0 {
			delete(rates, k)
		}
	}
	quantiles := make(stats.Summary)
	for k, v := range cur {
		if isQuantileKey(k) {
			quantiles[k] = v
		}
	}
	return Snapshot{
		UnixNano:   time.Now().UnixNano(),
		DurSeconds: dt.Seconds(),
		OpsPerSec:  opsRate(rates),
		Rates:      rates,
		Quantiles:  quantiles,
	}
}

// isQuantileKey reports whether a metrics key names a quantile series
// (carries a `q="..."` label).
func isQuantileKey(key string) bool {
	return strings.Contains(key, `{q="`) || strings.Contains(key, `,q="`)
}

// SampleFunc returns the current merged metrics summary.
type SampleFunc func() (stats.Summary, error)

// Sampler periodically journals windowed metrics snapshots. Start one with
// StartSampler; Stop flushes a final snapshot and waits for the goroutine.
type Sampler struct {
	j        *Journal
	sample   SampleFunc
	interval time.Duration

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartSampler baselines the counters and starts the snapshot loop. A nil
// sample or non-positive interval is the caller's bug and panics early.
func StartSampler(j *Journal, sample SampleFunc, interval time.Duration) *Sampler {
	if sample == nil || interval <= 0 {
		panic("blackbox: StartSampler needs a sample func and a positive interval")
	}
	s := &Sampler{
		j:        j,
		sample:   sample,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *Sampler) run() {
	defer close(s.done)
	prev, err := s.sample()
	if err != nil {
		prev = stats.Summary{}
	}
	last := time.Now()
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		final := false
		select {
		case <-s.stop:
			final = true
		case <-tick.C:
		}
		now := time.Now()
		cur, err := s.sample()
		if err == nil {
			// Journal-append errors are deliberately dropped here: the
			// sampler must never take down serving, and a dead journal
			// shows up as a gap in the postmortem timeline anyway.
			_ = s.j.AppendJSON(EvSnapshot, MakeSnapshot(prev, cur, now.Sub(last)))
			prev, last = cur, now
		}
		if final {
			return
		}
	}
}

// Stop journals one final snapshot covering the tail window and waits for
// the loop to exit. Idempotent.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
