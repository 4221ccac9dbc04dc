package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pax/internal/blackbox"
	"pax/internal/epochlog"
	"pax/internal/faultfs"
	"pax/internal/wire"
)

func TestEventHubRingWrap(t *testing.T) {
	h := newEventHub()
	for i := 0; i < eventRingDepth+44; i++ {
		h.emit("ev", i, nil)
	}
	events := h.snapshot()
	if len(events) != eventRingDepth {
		t.Fatalf("ring holds %d events, want %d", len(events), eventRingDepth)
	}
	for i, ev := range events {
		if want := uint64(45 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (oldest-first, oldest overwritten)", i, ev.Seq, want)
		}
	}
}

func TestEventHubSink(t *testing.T) {
	h := newEventHub()
	h.emit("before-sink", 0, nil)
	var got []Event
	h.setSink(func(ev Event) { got = append(got, ev) })
	h.emit("after-sink", 1, errDetail{Error: "boom"})
	h.setSink(nil)
	h.emit("after-detach", 2, nil)
	if len(got) != 1 || got[0].Type != "after-sink" || got[0].Shard != 1 {
		t.Fatalf("sink saw %+v", got)
	}
	if !strings.Contains(string(got[0].Detail), "boom") {
		t.Fatalf("detail = %s", got[0].Detail)
	}
}

// A persistent media fault must leave a causal pair in the fleet's event
// ring: the commit_failed record that explains the failure, then the seal
// transition — exactly one seal event no matter how many writes bounce
// afterwards, and both stamped with the faulted engine's shard index.
func TestEngineSealEmitsEvents(t *testing.T) {
	const sick = 1
	path := filepath.Join(t.TempDir(), "kv.pool")
	fleet, _, ffs := faultyFleet(t, path, 2, Config{
		MaxBatch:      4,
		CommitRetries: -1,
	})

	ffs.Set(faultfs.FailSyncsAfter(faultfs.In(ShardPath(path, sick)+epochlog.DirSuffix), 0, errInjected))
	for i, bounced := 0, 0; bounced < 2; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if fleet.ShardFor(key) != sick {
			continue
		}
		if _, err := fleet.Put(key, []byte("v")); !errors.Is(err, ErrSealed) {
			t.Fatalf("put %d on failing media: %v, want ErrSealed", bounced, err)
		}
		bounced++
	}
	if err := fleet.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close = %v, want the seal error", err)
	}

	var failed, sealed int
	var sealDetail string
	for _, ev := range fleet.Trace().Events {
		switch ev.Type {
		case blackbox.EvCommitFailed:
			failed++
			if sealed > 0 {
				t.Fatal("commit_failed after seal: causal order inverted")
			}
		case blackbox.EvSeal:
			sealed++
			sealDetail = string(ev.Detail)
		default:
			continue
		}
		if ev.Shard != sick {
			t.Fatalf("%s event stamped shard %d, want %d", ev.Type, ev.Shard, sick)
		}
	}
	if failed != 1 || sealed != 1 {
		t.Fatalf("events: %d commit_failed, %d seal; want exactly 1 each", failed, sealed)
	}
	if !strings.Contains(sealDetail, "injected EIO") {
		t.Fatalf("seal detail %q does not carry the media error", sealDetail)
	}
}

// TRACE is answered at dispatch, so a fleet whose only shard sealed still
// serves its event ring — the seal event and the failed commit that caused
// it are in the reply.
func TestTraceOnSealedEngine(t *testing.T) {
	fleet, _, ffs := faultyFleet(t, "", 1, Config{
		MaxBatch:      4,
		CommitRetries: -1,
	})
	_, addr := serveTCP(t, fleet)

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("healthy put: %v", err)
	}
	body, err := cl.Trace()
	if err != nil {
		t.Fatalf("TRACE on healthy engine: %v", err)
	}
	var snap TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("TRACE body: %v\n%s", err, body)
	}

	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	if _, err := cl.Put([]byte("k2"), []byte("v2")); err == nil {
		t.Fatal("put on failing media succeeded")
	}
	body, err = cl.Trace()
	if err != nil {
		t.Fatalf("TRACE on sealed engine: %v", err)
	}
	snap = TraceSnapshot{}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	types := make(map[string]int)
	for _, ev := range snap.Events {
		types[ev.Type]++
	}
	if types[blackbox.EvSeal] != 1 || types[blackbox.EvCommitFailed] != 1 {
		t.Fatalf("sealed engine's TRACE events = %v, want one seal and one commit_failed", types)
	}
}

// TestEachIncidentIsRecordedOnce is the definition test of the fleet's one
// record per incident: a slow commit, a failed commit, the seal it causes
// and a policy decision each appear exactly once in TRACE's event ring. A
// commit event is the flight-recorder record of the same commit — its
// (shard, seq) names a record in the recent ring, field for field — and
// neither TRACE nor STATS keeps a second copy of any of them.
func TestEachIncidentIsRecordedOnce(t *testing.T) {
	const sick = 1
	path := filepath.Join(t.TempDir(), "kv.pool")
	// SlowCommit 1ns: every successful commit is a commit_slow event.
	fleet, _, ffs := faultyFleet(t, path, 2, Config{MaxBatch: 4, CommitRetries: -1, SlowCommit: 1})
	defer fleet.Close()
	// A policy loop that never ticks on its own: the test drives decide
	// and apply, so the decision is made by the real thresholds and
	// executed by the real apply.
	ap, err := fleet.StartAutopilot(AutopilotConfig{
		Interval:        time.Hour,
		SplitEnabled:    true,
		MaxShards:       3,
		SplitEnqueueP99: 1,
		SplitHotTicks:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	keyOn := func(shard int, prefix string) []byte {
		for i := 0; ; i++ {
			if k := []byte(fmt.Sprintf("%s-%d", prefix, i)); fleet.ShardFor(k) == shard {
				return k
			}
		}
	}

	// The slow commit.
	slowEpoch, err := fleet.Put(keyOn(0, "slow"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	// The policy decision: split shard 0, off a saturated window.
	d := ap.decide(hotWindows(int64(time.Second)), time.Now())
	if d == nil || d.Action != "split" || d.Shard != 0 {
		t.Fatalf("decision = %+v, want a split of shard 0", d)
	}
	ap.apply(d)
	if d.Err != "" || fleet.NumShards() != 3 {
		t.Fatalf("split decision %+v left %d shards", d, fleet.NumShards())
	}
	// The failed commit, on a shard the split did not touch, and its seal.
	ffs.Set(faultfs.FailSyncsAfter(faultfs.In(ShardPath(path, sick)+epochlog.DirSuffix), 0, errInjected))
	if _, err := fleet.Put(keyOn(sick, "doomed"), []byte("v")); !errors.Is(err, ErrSealed) {
		t.Fatalf("put on faulted media: %v", err)
	}
	metrics, err := fleet.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// A writer records a commit just after acking it and emits its event
	// after that: once the fleet is closed, both are final.
	if err := fleet.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close = %v, want the seal error", err)
	}

	snap := fleet.Trace()
	type commitID struct {
		shard int
		seq   uint64
	}
	recorded := make(map[commitID]CommitRecord)
	for _, rec := range snap.Recent {
		recorded[commitID{rec.Shard, rec.Seq}] = rec
	}
	var slowPut, failed, seals, policies int
	evented := make(map[commitID]bool)
	for _, ev := range snap.Events {
		switch ev.Type {
		case blackbox.EvCommitSlow, blackbox.EvCommitFailed:
			var rec CommitRecord
			if err := json.Unmarshal(ev.Detail, &rec); err != nil {
				t.Fatal(err)
			}
			id := commitID{rec.Shard, rec.Seq}
			if got, ok := recorded[id]; !ok || got != rec || ev.Shard != rec.Shard {
				t.Fatalf("%s event on shard %d carries %+v; the recent ring holds %+v", ev.Type, ev.Shard, rec, got)
			}
			if evented[id] {
				t.Fatalf("commit %+v is in the event ring twice", id)
			}
			evented[id] = true
			if ev.Type == blackbox.EvCommitFailed {
				failed++
				if rec.Shard != sick || !strings.Contains(rec.Err, "injected") {
					t.Fatalf("commit_failed record %+v, want shard %d's injected fault", rec, sick)
				}
			} else if rec.Shard == 0 && rec.Epoch == slowEpoch {
				slowPut++
			}
		case blackbox.EvSeal:
			seals++
		case blackbox.EvPolicy:
			policies++
			var got PolicyDecision
			if err := json.Unmarshal(ev.Detail, &got); err != nil || got != *d {
				t.Fatalf("policy event %s, want the executed decision %+v", ev.Detail, *d)
			}
		}
	}
	if slowPut != 1 || failed != 1 || seals != 1 || policies != 1 {
		t.Fatalf("slow PUT commit %d, commit_failed %d, seal %d, policy %d event(s); want 1 each", slowPut, failed, seals, policies)
	}
	// Every commit was slow or failed, so each record is one event.
	if len(evented) != len(recorded) {
		t.Fatalf("%d commit events for %d recorded commits", len(evented), len(recorded))
	}

	// No second copy on the wire: TRACE is the commits and the ring ...
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	for name := range fields {
		switch name {
		case "shards", "slow_threshold_ns", "recent", "events":
		default:
			t.Fatalf("TRACE carries %q beside the event ring", name)
		}
	}
	// ... and STATS counts decisions without copying the last one.
	for name := range metrics {
		if strings.HasPrefix(name, "paxserve_autopilot_last_") {
			t.Fatalf("STATS carries %s, a copy of the policy event", name)
		}
	}
	if metrics["paxserve_autopilot_splits"] != 1 {
		t.Fatalf("paxserve_autopilot_splits = %v, want 1", metrics["paxserve_autopilot_splits"])
	}
}

// replayJournal replays a black-box journal into (events by type, snapshots).
func replayJournal(t *testing.T, dir string) (map[string][]Event, int) {
	t.Helper()
	j, err := blackbox.Open(blackbox.Config{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer j.Close()
	byType := make(map[string][]Event)
	snaps := 0
	err = j.Replay(func(rec blackbox.Record) error {
		if rec.Type == blackbox.EvSnapshot {
			snaps++
			return nil
		}
		var ev Event
		if err := json.Unmarshal(rec.Payload, &ev); err != nil {
			return fmt.Errorf("record %d (%s): %v", rec.Seq, rec.Type, err)
		}
		byType[ev.Type] = append(byType[ev.Type], ev)
		return nil
	})
	if err != nil {
		t.Fatalf("replay journal: %v", err)
	}
	return byType, snaps
}

// The tentpole chaos scenario: a fleet with the black box attached suffers a
// persistent media fault on one shard. With the process "dead" (journal
// replayed cold), the journal alone must name the cause: the open events,
// the failing commit record, and the seal with the injected error.
func TestBlackboxCapturesInjectedSeal(t *testing.T) {
	eng, _, ffs := faultyFleet(t, "", 2, Config{
		MaxBatch:      4,
		CommitRetries: -1,
	})
	dir := filepath.Join(t.TempDir(), "bb")
	j, err := blackbox.Open(blackbox.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stop := AttachBlackbox(eng, j, 20*time.Millisecond)

	pools := eng.ShardPools()
	if len(pools) != 2 {
		t.Fatalf("ShardPools = %d, want 2", len(pools))
	}
	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))

	var sawErr bool
	for i := 0; i < 64 && !sawErr; i++ {
		_, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		sawErr = err != nil
	}
	if !sawErr {
		t.Fatal("no put failed on failing media")
	}
	// Simulated kill: no shutdown marker, just detach and close the journal.
	stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()

	byType, snaps := replayJournal(t, dir)
	if got := len(byType[blackbox.EvOpen]); got != 2 {
		t.Fatalf("journal has %d open events, want one per shard", got)
	}
	if len(byType[blackbox.EvCommitFailed]) == 0 {
		t.Fatal("journal lost the failing commit record")
	}
	seals := byType[blackbox.EvSeal]
	if len(seals) == 0 {
		t.Fatal("journal lost the seal event")
	}
	if d := string(seals[0].Detail); !strings.Contains(d, "injected EIO") {
		t.Fatalf("seal detail %q does not carry the media error", d)
	}
	if seals[0].Shard != 0 && seals[0].Shard != 1 {
		t.Fatalf("seal event shard = %d, want a real shard index", seals[0].Shard)
	}
	if snaps < 1 {
		t.Fatal("journal has no metrics snapshot (stop must flush the tail window)")
	}
	if len(byType[blackbox.EvShutdown]) != 0 {
		t.Fatal("simulated crash journaled a shutdown marker")
	}
}

// A crash mid-merge must leave the stage trail in the journal: merge_start
// and merge_drained present, merge_published absent (the crash hit between
// them) — exactly the breadcrumbs the postmortem's open-reshard detection
// reads.
func TestBlackboxCapturesCrashMidMerge(t *testing.T) {
	pool := filepath.Join(t.TempDir(), "kv.pool")
	eng, _, ffs := faultyFleet(t, pool, 3, Config{MaxBatch: 16})
	plantDirect(t, eng, 64)

	dir := filepath.Join(t.TempDir(), "bb")
	j, err := blackbox.Open(blackbox.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stop := AttachBlackbox(eng, j, time.Hour)

	errBoom := errors.New("injected crash")
	failShrinkPublish(ffs, eng, pool, 2, errBoom)
	if _, err := eng.Merge(2); !errors.Is(err, errBoom) {
		t.Fatalf("merge returned %v, want the injected crash", err)
	}
	stop()
	j.Close()
	eng.Crash()

	byType, _ := replayJournal(t, dir)
	if len(byType[blackbox.EvMergeStart]) != 1 || len(byType[blackbox.EvMergeDrained]) != 1 {
		t.Fatalf("journal stages: start=%d drained=%d, want 1 each",
			len(byType[blackbox.EvMergeStart]), len(byType[blackbox.EvMergeDrained]))
	}
	if len(byType[blackbox.EvMergePublished]) != 0 {
		t.Fatal("merge_published journaled though the crash hit before publish")
	}
	// The abort itself is journaled: a done event carrying the error. A real
	// kill -9 would leave no done event at all; either way the postmortem
	// sees an unfinished (or failed) merge.
	done := byType[blackbox.EvMergeDone]
	if len(done) != 1 || !strings.Contains(string(done[0].Detail), "injected crash") {
		t.Fatalf("merge_done = %+v, want one event carrying the abort error", done)
	}
}

// Split emits its start/done pair through the fleet hub, and an engine added
// by the split emits into the same hub (its events carry the new shard's
// index; every commit here is over the pin threshold, so each emits one).
func TestBlackboxSplitEvents(t *testing.T) {
	pool := filepath.Join(t.TempDir(), "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 16, SlowCommit: time.Nanosecond})
	defer eng.Close()
	plantDirect(t, eng, 64)

	dir := filepath.Join(t.TempDir(), "bb")
	j, err := blackbox.Open(blackbox.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stop := AttachBlackbox(eng, j, time.Hour)

	rep, err := eng.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NewShard {
		t.Fatalf("split of a 2-shard fleet reused shard %d", rep.Dest)
	}
	pollUntil(t, "the new shard's commit is an event", func() bool {
		for _, ev := range eng.Trace().Events {
			if ev.Type == blackbox.EvCommitSlow && ev.Shard == rep.Dest {
				return true
			}
		}
		return false
	})
	stop()
	j.Close()

	byType, _ := replayJournal(t, dir)
	if len(byType[blackbox.EvSplitStart]) != 1 || len(byType[blackbox.EvSplitDone]) != 1 {
		t.Fatalf("split events: start=%d done=%d, want 1 each",
			len(byType[blackbox.EvSplitStart]), len(byType[blackbox.EvSplitDone]))
	}
	done := byType[blackbox.EvSplitDone][0]
	var d struct {
		Report *SplitReport `json:"report"`
		Error  string       `json:"error"`
	}
	if err := json.Unmarshal(done.Detail, &d); err != nil || d.Report == nil {
		t.Fatalf("split_done detail %s: %v", done.Detail, err)
	}
	if d.Error != "" || len(d.Report.MovedSlots) == 0 {
		t.Fatalf("split_done report = %+v error=%q", d.Report, d.Error)
	}
}
