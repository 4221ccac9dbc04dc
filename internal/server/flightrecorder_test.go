package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pax"
	"pax/internal/blackbox"
	"pax/internal/epochlog"
	"pax/internal/faultfs"
	"pax/internal/stats"
	"pax/internal/wire"
)

func TestFlightRecorderRingWraparound(t *testing.T) {
	const depth = 8
	f := newFlightRecorder(depth, 0)
	for i := 0; i < depth*3+5; i++ {
		if _, outlier := f.record(CommitRecord{Batch: i, TotalNS: int64(time.Hour)}); outlier {
			t.Fatalf("commit %d is an outlier with the threshold disabled", i)
		}
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
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := newFlightRecorder(16, 0)
	f.record(CommitRecord{})
	f.record(CommitRecord{})
	snap := f.snapshot()
	if len(snap.Recent) != 2 || snap.Recent[0].Seq != 1 || snap.Recent[1].Seq != 2 {
		t.Fatalf("partial ring = %+v", snap.Recent)
	}
}

// The recorder flags a commit past the threshold, and every failed commit,
// as an outlier and returns it stamped with its seq; the engine emits exactly
// those records as commit_slow and commit_failed events, so an outlier
// outlives the recent ring's wrap in the fleet's event ring
// (TestEachIncidentIsRecordedOnce holds the engine to that).
func TestFlightRecorderPinsSlowAndFailed(t *testing.T) {
	f := newFlightRecorder(4, 10*time.Millisecond)
	var outliers []CommitRecord
	for _, c := range []struct {
		rec     CommitRecord
		outlier bool
	}{
		{CommitRecord{TotalNS: int64(time.Millisecond)}, false},
		{CommitRecord{TotalNS: int64(50 * time.Millisecond)}, true},
		{CommitRecord{TotalNS: 1, Err: "injected"}, true},
	} {
		rec, outlier := f.record(c.rec)
		if outlier != c.outlier {
			t.Fatalf("record(%+v) outlier = %v, want %v", c.rec, outlier, c.outlier)
		}
		if outlier {
			outliers = append(outliers, rec)
		}
	}
	// Five more fast commits wrap the recent ring past both outliers.
	for i := 0; i < 5; i++ {
		if _, outlier := f.record(CommitRecord{TotalNS: 2}); outlier {
			t.Fatal("fast commit flagged as an outlier")
		}
	}
	snap := f.snapshot()
	if snap.SlowThresholdNS != int64(10*time.Millisecond) {
		t.Fatalf("threshold = %d", snap.SlowThresholdNS)
	}
	for _, rec := range snap.Recent {
		if rec.Seq <= 3 {
			t.Fatalf("recent ring did not wrap past the outliers: %+v", snap.Recent)
		}
	}
	if len(outliers) != 2 || outliers[0].Seq != 2 || outliers[1].Seq != 3 || outliers[1].Err != "injected" {
		t.Fatalf("outlier records = %+v, want seqs 2 and 3", outliers)
	}
	// A failed commit is an outlier even with the threshold disabled.
	g := newFlightRecorder(4, 0)
	if _, outlier := g.record(CommitRecord{TotalNS: int64(time.Hour)}); outlier {
		t.Fatal("slow commit flagged with the threshold disabled")
	}
	if _, outlier := g.record(CommitRecord{Err: "boom"}); !outlier {
		t.Fatal("failed commit not flagged with the threshold disabled")
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

// A fleet whose shard sealed must still answer TRACE — the commit_failed
// event explaining the seal is in its event ring, and reading it is the
// whole point of the recorder. The record carries the faulted engine's
// shard index and is the same record the recent ring holds.
func TestEngineTraceSurvivesSeal(t *testing.T) {
	const sick = 1
	path := filepath.Join(t.TempDir(), "kv.pool")
	fleet, _, ffs := faultyFleet(t, path, 2, Config{
		MaxBatch:      4,
		CommitRetries: -1, SlowCommit: -1,
	})
	defer fleet.Close()

	key := func(prefix string) []byte {
		for i := 0; ; i++ {
			if k := []byte(fmt.Sprintf("%s-%d", prefix, i)); fleet.ShardFor(k) == sick {
				return k
			}
		}
	}
	if _, err := fleet.Put(key("ok"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ffs.Set(faultfs.FailSyncsAfter(faultfs.In(ShardPath(path, sick)+epochlog.DirSuffix), 0, errInjected))
	if _, err := fleet.Put(key("doomed"), []byte("v")); !errors.Is(err, ErrSealed) {
		t.Fatalf("put on faulted media: %v", err)
	}
	snap := fleet.Trace()
	var failed []CommitRecord
	for _, ev := range snap.Events {
		switch ev.Type {
		case blackbox.EvCommitSlow:
			t.Fatalf("commit_slow event with SlowCommit disabled: %s", ev.Detail)
		case blackbox.EvCommitFailed:
			var rec CommitRecord
			if err := json.Unmarshal(ev.Detail, &rec); err != nil {
				t.Fatal(err)
			}
			if ev.Shard != rec.Shard {
				t.Fatalf("commit_failed event on shard %d for record %+v", ev.Shard, rec)
			}
			failed = append(failed, rec)
		}
	}
	if len(failed) != 1 {
		t.Fatalf("%d commit_failed events, want the failed commit alone: %+v", len(failed), failed)
	}
	last := failed[0]
	if last.Err == "" || !strings.Contains(last.Err, "injected") {
		t.Fatalf("failed record err = %q, want the injected fault", last.Err)
	}
	if last.Shard != sick {
		t.Fatalf("failed record stamped shard %d, want %d", last.Shard, sick)
	}
	if n := len(snap.Recent); n == 0 || snap.Recent[n-1] != last {
		t.Fatalf("the failed commit is not the trace's last record: %+v, event %+v", snap.Recent, last)
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
	// STATS samples beside the writer, which observes a commit's stage
	// timings just after its acks and then records the commit: wait for
	// the record, so the sample is sure to hold them.
	pollUntil(t, "the commit is recorded", func() bool { return len(eng.Trace().Recent) == 1 })
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
		"pax_persist_sync_ns_count",
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
	// The writer records a commit just after it acks the batch, so a TRACE
	// can overtake the last record: wait until every acked write shows.
	var snap TraceSnapshot
	pollUntil(t, "the trace accounts for the 3 acked writes", func() bool {
		body, err := cl.Trace()
		if err != nil {
			t.Fatal(err)
		}
		snap = TraceSnapshot{}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("TRACE body is not a TraceSnapshot: %v\n%s", err, body)
		}
		var acked int
		for _, rec := range snap.Recent {
			acked += rec.Batch
		}
		return acked == 3
	})
	if snap.Shards != 1 || len(snap.Recent) == 0 {
		t.Fatalf("trace over TCP = %+v", snap)
	}
}

// The fleet's trace interleaves every shard's records, each stamped with
// its engine's shard index. With every commit over the slow threshold, each
// record is exactly one commit_slow event carrying the same shard and seq.
func TestShardedTraceMergesAndStampsShards(t *testing.T) {
	const shards = 4
	s := newSharded(t, tempPool(t), shards, Config{MaxBatch: 8, SlowCommit: time.Nanosecond})
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

	// A writer records a commit just after acking it and emits its event
	// after that: once the fleet is closed, both are final.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	type commitID struct {
		shard int
		seq   uint64
	}
	final := s.Trace()
	recorded := make(map[commitID]CommitRecord)
	for _, rec := range final.Recent {
		recorded[commitID{rec.Shard, rec.Seq}] = rec
	}
	seen = make(map[int]bool)
	var slow int
	for _, ev := range final.Events {
		if ev.Type != blackbox.EvCommitSlow {
			continue
		}
		var rec CommitRecord
		if err := json.Unmarshal(ev.Detail, &rec); err != nil {
			t.Fatal(err)
		}
		id := commitID{rec.Shard, rec.Seq}
		if got, ok := recorded[id]; ev.Shard != rec.Shard || !ok || got != rec {
			t.Fatalf("commit_slow event on shard %d for record %+v; the trace holds %+v", ev.Shard, rec, got)
		}
		delete(recorded, id)
		seen[rec.Shard] = true
		slow++
	}
	if slow == 0 || len(recorded) != 0 || len(seen) < 2 {
		t.Fatalf("%d commit_slow events over %d shard(s); %d recorded commits have none: %+v", slow, len(seen), len(recorded), recorded)
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
	s := newSharded(t, tempPool(t), 2, Config{MaxBatch: 8})
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
