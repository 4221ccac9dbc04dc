package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pax"
	"pax/internal/epochlog"
	"pax/internal/server"
)

// The round trip through paxrecover: it folds every shard's log of a served
// fleet into the checkpoint (segments gone), and the daemon's open serves
// the same contents from the checkpoints alone, each shard gaining a fresh
// log on its next commit.
func TestRecoveredFleetReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	opts := pax.Options{DataSize: 4 << 20, LogSize: 2 << 20, HBMSize: 64 << 10}
	eng, err := server.OpenSharded(path, 2, opts, 0, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("fleet-%03d", i)
		want[k] = fmt.Sprintf("v%d", i)
		if _, err := eng.PutPolicy([]byte(k), []byte(want[k]), server.AckApply); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	for k := 0; k < 2; k++ {
		sp := server.ShardPath(path, k)
		if has, err := epochlog.HasSegments(sp + epochlog.DirSuffix); err != nil || !has {
			t.Fatalf("shard %d was not served as a delta pool: %v %v", k, has, err)
		}
		if err := recoverPool(sp, false, io.Discard, nil); err != nil {
			t.Fatalf("paxrecover shard %d: %v", k, err)
		}
		if _, err := os.Stat(sp + epochlog.DirSuffix); !os.IsNotExist(err) {
			t.Fatalf("shard %d still has an epoch log after the fold: %v", k, err)
		}
	}

	eng, err = server.OpenSharded(path, 2, opts, 0, server.Config{})
	if err != nil {
		t.Fatalf("reopening the recovered fleet: %v", err)
	}
	defer eng.Close()
	for k, v := range want {
		got, ok, err := eng.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("after the fold %s = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
	if _, err := eng.Put([]byte("after"), []byte("the fold")); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := os.Stat(server.ShardPath(path, k) + epochlog.DirSuffix); err != nil {
			t.Fatalf("shard %d started no new epoch log: %v", k, err)
		}
	}
}
