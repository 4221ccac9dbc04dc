package pmem

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pax/internal/epochlog"
)

// TestDeltaTornRollReopens: a kill inside an epoch-log segment roll leaves
// an empty newest seg-*.seg. That is a legal crash state — the pool must
// reopen to its last committed record, not refuse to open.
func TestDeltaTornRollReopens(t *testing.T) {
	const size = 1 << 12
	path := filepath.Join(t.TempDir(), "p.pool")
	d := openDelta(t, path, DefaultConfig(size))
	d.Write(100, []byte("last committed record"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Snapshot()
	segs := d.EpochStore().Segments()
	d.Close()

	stub := filepath.Join(path+epochlog.DirSuffix, "seg-00000002.seg")
	if len(segs) != 1 || segs[0].Name != "seg-00000001.seg" {
		t.Fatalf("expected one segment, got %+v", segs)
	}
	if err := os.WriteFile(stub, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openDelta(t, path, DefaultConfig(size))
	if !bytes.Equal(re.Snapshot(), want) {
		t.Fatal("reopen after a torn roll diverged from the last committed state")
	}
	if info := re.ReplayInfo(); !info.TornRoll || info.TornTail || info.Records == 0 {
		t.Fatalf("replay info = %+v", info)
	}
	re.Write(200, []byte("life goes on"), 0)
	if err := re.Sync(); err != nil {
		t.Fatalf("sync after a torn roll: %v", err)
	}
}
