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
	"pax/internal/faultfs"
	"pax/internal/wire"
)

func TestEventHubRingWrap(t *testing.T) {
	h := &eventHub{}
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
	h := &eventHub{}
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

// A persistent media fault must leave a causal pair in the event ring: the
// commit_failed record that explains the failure, then the seal transition —
// and exactly one seal event no matter how many writes bounce afterwards.
func TestEngineSealEmitsEvents(t *testing.T) {
	pool, eng, ffs := faultyEngine(t, "", Config{
		MaxBatch:      4,
		CommitRetries: -1,
	})
	defer pool.Close()

	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	if _, err := eng.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrSealed) {
		t.Fatalf("put on failing media: %v, want ErrSealed", err)
	}
	if _, err := eng.Put([]byte("k2"), []byte("v2")); !errors.Is(err, ErrSealed) {
		t.Fatalf("put after seal: %v", err)
	}
	eng.Close()

	var failed, sealed int
	var sealDetail string
	for _, ev := range eng.Events().Events {
		switch ev.Type {
		case blackbox.EvCommitFailed:
			failed++
			if sealed > 0 {
				t.Fatal("commit_failed after seal: causal order inverted")
			}
		case blackbox.EvSeal:
			sealed++
			sealDetail = string(ev.Detail)
		}
	}
	if failed != 1 || sealed != 1 {
		t.Fatalf("events: %d commit_failed, %d seal; want exactly 1 each", failed, sealed)
	}
	if !strings.Contains(sealDetail, "injected EIO") {
		t.Fatalf("seal detail %q does not carry the media error", sealDetail)
	}
}

// The EVENTS wire op is answered inline, so a fleet whose only shard sealed
// still serves its event ring — the same contract TRACE and STATS have.
func TestEventsWireOpOnSealedEngine(t *testing.T) {
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
	body, err := cl.Events()
	if err != nil {
		t.Fatalf("EVENTS on healthy engine: %v", err)
	}
	var snap EventsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("EVENTS body: %v\n%s", err, body)
	}

	ffs.Set(faultfs.FailSyncsAfter(logSyncs, 0, errInjected))
	if _, err := cl.Put([]byte("k2"), []byte("v2")); err == nil {
		t.Fatal("put on failing media succeeded")
	}
	body, err = cl.Events()
	if err != nil {
		t.Fatalf("EVENTS on sealed engine: %v", err)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	types := make(map[string]int)
	for _, ev := range snap.Events {
		types[ev.Type]++
	}
	if types[blackbox.EvSeal] != 1 || types[blackbox.EvCommitFailed] != 1 {
		t.Fatalf("sealed engine's EVENTS = %v, want one seal and one commit_failed", types)
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
// by the split is wired into the hub (its later events carry the new shard's
// index).
func TestBlackboxSplitEvents(t *testing.T) {
	pool := filepath.Join(t.TempDir(), "kv.pool")
	eng := newSharded(t, pool, 2, Config{MaxBatch: 16})
	defer eng.Close()
	plantDirect(t, eng, 64)

	dir := filepath.Join(t.TempDir(), "bb")
	j, err := blackbox.Open(blackbox.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stop := AttachBlackbox(eng, j, time.Hour)

	if _, err := eng.Split(0); err != nil {
		t.Fatal(err)
	}
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
