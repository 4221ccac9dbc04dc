package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pax"
	"pax/internal/faultfs"
	"pax/internal/stats"
	"pax/internal/wire"
)

func TestFlightRecorderRingWraparound(t *testing.T) {
	const depth = 8
	f := newFlightRecorder(depth, 4, 0)
	for i := 0; i < depth*3+5; i++ {
		f.record(CommitRecord{Batch: i})
	}
	snap := f.snapshot()
	if len(snap.Recent) != depth {
		t.Fatalf("recent ring holds %d records, want %d", len(snap.Recent), depth)
	}
	// Oldest-first, contiguous sequence numbers ending at the last commit.
	total := uint64(depth*3 + 5)
	for i, rec := range snap.Recent {
		wantSeq := total - uint64(depth) + uint64(i) + 1
		if rec.Seq != wantSeq {
			t.Fatalf("recent[%d].Seq = %d, want %d", i, rec.Seq, wantSeq)
		}
		if rec.Batch != int(wantSeq)-1 {
			t.Fatalf("recent[%d] is commit %d's record, want %d", i, rec.Batch, wantSeq-1)
		}
	}
	if len(snap.Slow) != 0 {
		t.Fatalf("pinning disabled but %d records pinned", len(snap.Slow))
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := newFlightRecorder(16, 4, 0)
	f.record(CommitRecord{})
	f.record(CommitRecord{})
	snap := f.snapshot()
	if len(snap.Recent) != 2 || snap.Recent[0].Seq != 1 || snap.Recent[1].Seq != 2 {
		t.Fatalf("partial ring = %+v", snap.Recent)
	}
}

func TestFlightRecorderPinsSlowAndFailed(t *testing.T) {
	f := newFlightRecorder(4, 2, 10*time.Millisecond)
	f.record(CommitRecord{TotalNS: int64(time.Millisecond)})      // fast: not pinned
	f.record(CommitRecord{TotalNS: int64(50 * time.Millisecond)}) // slow: pinned
	f.record(CommitRecord{TotalNS: 1, Err: "injected"})           // failed: pinned
	// Five more fast commits wrap the recent ring past both outliers.
	for i := 0; i < 5; i++ {
		f.record(CommitRecord{TotalNS: 2})
	}
	snap := f.snapshot()
	if snap.SlowThresholdNS != int64(10*time.Millisecond) {
		t.Fatalf("threshold = %d", snap.SlowThresholdNS)
	}
	if len(snap.Slow) != 2 {
		t.Fatalf("pinned %d records, want 2: %+v", len(snap.Slow), snap.Slow)
	}
	if snap.Slow[0].Seq != 2 || snap.Slow[1].Seq != 3 || snap.Slow[1].Err != "injected" {
		t.Fatalf("pinned ring = %+v", snap.Slow)
	}
	for _, rec := range snap.Recent {
		if rec.Seq <= 3 {
			t.Fatalf("recent ring did not wrap past the outliers: %+v", snap.Recent)
		}
	}
	// Errors pin even with the threshold disabled.
	g := newFlightRecorder(4, 2, 0)
	g.record(CommitRecord{TotalNS: int64(time.Hour)})
	g.record(CommitRecord{Err: "boom"})
	if snap := g.snapshot(); len(snap.Slow) != 1 || snap.Slow[0].Err != "boom" {
		t.Fatalf("disabled-threshold pinning = %+v", snap.Slow)
	}
}

func TestEngineTraceRecordsCommits(t *testing.T) {
	pool, eng := newTestEngine(t, "", Config{MaxBatch: 8})
	defer pool.Close()
	defer eng.Close()

	for i := 0; i < 5; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	recentCommits(t, eng, 5) // one PUT at a time on an idle engine: a commit each
	snap := eng.Trace()
	if snap.Shards != 1 || len(snap.Recent) != 5 {
		t.Fatalf("trace = %+v", snap)
	}
	var batches int
	for _, rec := range snap.Recent {
		batches += rec.Batch
		if rec.Err != "" {
			t.Fatalf("healthy commit recorded error: %+v", rec)
		}
		if rec.Epoch == 0 || rec.Start == 0 {
			t.Fatalf("commit record missing epoch/start: %+v", rec)
		}
		if rec.TotalNS < rec.PersistNS || rec.PersistNS <= 0 {
			t.Fatalf("stage timings inconsistent: %+v", rec)
		}
		if rec.SealReason != SealIdle {
			t.Fatalf("one-at-a-time PUT on an idle engine sealed %q, want %q: %+v", rec.SealReason, SealIdle, rec)
		}
	}
	if batches != 5 {
		t.Fatalf("trace accounts for %d acked writes, want 5", batches)
	}
	if _, err := eng.Persist(); err != nil {
		t.Fatal(err)
	}
	recent := recentCommits(t, eng, 6)
	if last := recent[len(recent)-1]; last.SealReason != SealPersist {
		t.Fatalf("explicit persist sealed %q, want %q: %+v", last.SealReason, SealPersist, last)
	}
}

// TestCommitRecordCarriesTheModeledPAXTime: a commit's SimNS is the
// SimulatedLatency the pool returned for exactly that epoch — here a batch of
// n distinct keys. The simulator is deterministic, so a twin pool driven
// through the same operations (the engine's index rebuild, a held epoch,
// then the batch) returns the number to compare against.
func TestCommitRecordCarriesTheModeledPAXTime(t *testing.T) {
	const n = 16
	pool, eng, ffs := faultyEngine(t, "", Config{MaxBatch: 64})
	defer pool.Close()
	defer eng.Close()
	m := slowMedium(ffs, 0, true)
	defer m.releaseWith(nil)
	holdCommit(t, eng, m)
	// Enqueued from one goroutine while the writer is held: applied in this
	// order, as one batch.
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = newRequest(opPut, []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		if err := eng.begin(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	m.releaseWith(nil)
	for _, req := range reqs {
		if res := <-req.done; res.err != nil {
			t.Fatal(res.err)
		}
		req.release()
	}
	got := recentCommits(t, eng, 2)[1]
	if got.Batch != n {
		t.Fatalf("batch commit %+v, want all %d puts in it", got, n)
	}

	twin, err := pax.MapPool("", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	kv, err := pax.NewMap(twin, 0)
	if err != nil {
		t.Fatal(err)
	}
	kv.ForEach(func(_, _ []byte) bool { return true })
	if err := kv.Put([]byte("hold"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Persist(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := kv.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := twin.Persist()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(st.SimulatedLatency.Duration()); got.SimNS != want || want <= 0 {
		t.Fatalf("commit of %d keys records SimNS %d, the pool returned SimulatedLatency %v", n, got.SimNS, st.SimulatedLatency)
	}
}

// A fleet whose shard sealed must still answer TRACE — the record explaining
// the seal is pinned, and reading it is the whole point of the recorder.
func TestEngineTraceSurvivesSeal(t *testing.T) {
	fleet, _, ffs := faultyFleet(t, "", 1, Config{
		MaxBatch:      4,
		CommitRetries: -1, SlowCommit: -1,
	})
	defer fleet.Close()

	if _, err := fleet.Put([]byte("ok"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	if _, err := fleet.Put([]byte("doomed"), []byte("v")); !errors.Is(err, ErrSealed) {
		t.Fatalf("put on faulted media: %v", err)
	}
	req := newRequest(opTrace, nil, nil)
	if err := fleet.begin(req); err != nil {
		t.Fatalf("TRACE on sealed fleet: %v", err)
	}
	res := <-req.done
	req.release()
	if res.err != nil {
		t.Fatalf("TRACE on sealed fleet: %v", res.err)
	}
	var snap TraceSnapshot
	if err := json.Unmarshal(res.value, &snap); err != nil {
		t.Fatalf("TRACE body: %v", err)
	}
	if len(snap.Slow) == 0 {
		t.Fatal("failed commit was not pinned")
	}
	last := snap.Slow[len(snap.Slow)-1]
	if last.Err == "" || !strings.Contains(last.Err, "injected") {
		t.Fatalf("pinned record err = %q, want the injected fault", last.Err)
	}
	if last.Epoch != 0 {
		t.Fatalf("failed commit claims durable epoch %d", last.Epoch)
	}
	if last.SimNS <= 0 {
		t.Fatalf("failed commit records no modeled PAX time: %+v", last)
	}
}

func TestStatsTextHasLatencyQuantiles(t *testing.T) {
	eng, _, _ := oneShard(t, Config{MaxBatch: 8})
	defer eng.Close()

	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Get([]byte("missing")); err != nil {
		t.Fatal(err)
	}
	text, err := eng.StatsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`paxserve_commit_ns{q="p99"} `,
		`paxserve_commit_persist_ns{q="p50"} `,
		`paxserve_batch_seal_ns{q="p999"} `,
		`paxserve_enqueue_wait_ns{q="p99"} `,
		`paxserve_get_hit_ns{q="p99"} `,
		`paxserve_get_miss_ns{q="p99"} `,
		"paxserve_commit_ns_count 1",
		"pax_persist_device_ns_count",
		"pax_sync_ns_count",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("stats text missing %q:\n%s", line, text)
		}
	}
	// Pre-existing plain counter lines must be untouched by the histogram
	// registration — exact `name value` form, no labels.
	for _, line := range []string{"paxserve_acked_writes 1\n", "paxserve_group_commits 1\n"} {
		if !strings.Contains(text, line) {
			t.Fatalf("plain counter line %q changed:\n%s", line, text)
		}
	}
}

func TestTCPTrace(t *testing.T) {
	_, _, addr := startTCP(t)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	body, err := cl.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var snap TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("TRACE body is not a TraceSnapshot: %v\n%s", err, body)
	}
	if snap.Shards != 1 || len(snap.Recent) == 0 {
		t.Fatalf("trace over TCP = %+v", snap)
	}
	var acked int
	for _, rec := range snap.Recent {
		acked += rec.Batch
	}
	if acked != 3 {
		t.Fatalf("trace accounts for %d acked writes, want 3", acked)
	}
}

func TestShardedTraceMergesAndStampsShards(t *testing.T) {
	const shards = 4
	s := newSharded(t, "", shards, Config{MaxBatch: 8})
	defer s.Close()

	seen := make(map[int]bool)
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if _, err := s.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		seen[s.ShardFor(key)] = true
	}
	if len(seen) < 2 {
		t.Skip("keys all hashed to one shard; nothing to merge")
	}
	snap := s.Trace()
	if snap.Shards != shards {
		t.Fatalf("Shards = %d, want %d", snap.Shards, shards)
	}
	got := make(map[int]bool)
	for i, rec := range snap.Recent {
		got[rec.Shard] = true
		if rec.Shard < 0 || rec.Shard >= shards {
			t.Fatalf("record stamped with shard %d", rec.Shard)
		}
		if i > 0 && snap.Recent[i-1].Start > rec.Start {
			t.Fatalf("merged trace not sorted by start: %d then %d", snap.Recent[i-1].Start, rec.Start)
		}
	}
	for k := range seen {
		if !got[k] {
			t.Fatalf("shard %d committed but has no trace records", k)
		}
	}
}

func TestMergeSummariesQuantileSemantics(t *testing.T) {
	snaps := []stats.Summary{
		{`lat{q="p99"}`: 100, "lat_count": 10, "ops": 5},
		{`lat{q="p99"}`: 300, "lat_count": 20, "ops": 7},
	}
	m := mergeSummaries(snaps)
	// Quantiles: per-shard label joins the existing set, plain name is the
	// max across shards.
	if got := m[`lat{q="p99",shard="0"}`]; got != 100 {
		t.Fatalf(`shard 0 quantile = %v`, got)
	}
	if got := m[`lat{q="p99",shard="1"}`]; got != 300 {
		t.Fatalf(`shard 1 quantile = %v`, got)
	}
	if got := m[`lat{q="p99"}`]; got != 300 {
		t.Fatalf(`merged quantile = %v, want the max (300)`, got)
	}
	if _, ok := m[`lat{q="p99"}{shard="0"}`]; ok {
		t.Fatal("quantile line got a second brace group")
	}
	// Counters still sum, with the plain shard suffix.
	if got := m["lat_count"]; got != 30 {
		t.Fatalf("summed count = %v", got)
	}
	if got := m[`ops{shard="1"}`]; got != 7 {
		t.Fatalf(`per-shard counter = %v`, got)
	}
	if got := m["paxserve_shards"]; got != 2 {
		t.Fatalf("paxserve_shards = %v", got)
	}
}

func TestShardedStatsTextQuantiles(t *testing.T) {
	s := newSharded(t, "", 2, Config{MaxBatch: 8})
	defer s.Close()
	for i := 0; i < 8; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	text, err := s.StatsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`paxserve_commit_ns{q="p99"} `,
		`paxserve_commit_ns{q="p99",shard="0"} `,
		`paxserve_commit_ns{q="p99",shard="1"} `,
		"paxserve_shards 2",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("sharded stats missing %q:\n%s", line, text)
		}
	}
	// Every line must stay strictly two-field `name value`.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed stats line %q", line)
		}
	}
}
