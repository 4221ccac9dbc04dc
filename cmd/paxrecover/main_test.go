package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pax"
	"pax/internal/epochlog"
	"pax/internal/seglog"
)

// TestSegmentsOutliveAFailedPublish: the epoch log may be deleted only after
// the repaired image is durably published. A publish that fails at any stage
// before the rename must leave the pool file byte-identical and every
// segment in place — the pool still recovers everything it had acked.
func TestSegmentsOutliveAFailedPublish(t *testing.T) {
	opts := pax.Options{DataSize: 1 << 20, LogSize: 1 << 20, HBMSize: 32 << 10}
	path := filepath.Join(t.TempDir(), "delta.pool")
	pool, err := pax.MapPool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := pax.NewMap(pool, 0)
	m.Put([]byte("acked"), []byte("in the epoch log only"))
	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	logDir := path + epochlog.DirSuffix
	before, _ := os.ReadFile(path)

	injected := errors.New("injected power cut")
	for _, stage := range []seglog.Stage{seglog.StageWrite, seglog.StageFsync, seglog.StageRename} {
		err := recoverPool(path, false, io.Discard, func(st seglog.Stage, run func() error) error {
			if st == stage {
				return injected
			}
			return run()
		})
		if !errors.Is(err, injected) {
			t.Fatalf("%s: recoverPool = %v, want the injected fault", stage, err)
		}
		if has, _ := epochlog.HasSegments(logDir); !has {
			t.Fatalf("%s: segments removed although the repaired image was never published", stage)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Fatalf("%s: pool file changed by a failed publish", stage)
		}
	}

	// With the fault gone the fold completes, and the key written only to
	// the log is in the checkpoint.
	var out bytes.Buffer
	if err := recoverPool(path, false, &out, nil); err != nil {
		t.Fatalf("recoverPool: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(logDir); !os.IsNotExist(err) {
		t.Fatalf("segments not removed after a durable publish: %v", err)
	}
	pool, err = pax.OpenPool(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	m, _ = pax.NewMap(pool, 0)
	if v, ok := m.Get([]byte("acked")); !ok || string(v) != "in the epoch log only" {
		t.Fatalf("acked key after the fold = %q, %v", v, ok)
	}
}
