package seglog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestPublish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "target")
	var order []Stage
	record := func(st Stage, run func() error) error {
		order = append(order, st)
		return run()
	}
	if err := Publish(path, []byte("first"), record); err != nil {
		t.Fatal(err)
	}
	if want := []Stage{StageWrite, StageFsync, StageRename, StageDirSync}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("stages ran as %v, want %v", order, want)
	}
	if err := Publish(path, []byte("second"), nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("published contents = %q", got)
	}
	if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
}

// TestPublishFaults: whichever stage fails, the target holds either the old
// contents or the new ones, no staging file survives, and the error carries
// the cause.
func TestPublishFaults(t *testing.T) {
	injected := errors.New("injected EIO")
	for _, stage := range []Stage{StageWrite, StageFsync, StageRename, StageDirSync} {
		t.Run(string(stage), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "target")
			if err := Publish(path, []byte("old"), nil); err != nil {
				t.Fatal(err)
			}
			err := Publish(path, []byte("new"), func(st Stage, run func() error) error {
				if st == stage {
					return injected
				}
				return run()
			})
			if !errors.Is(err, injected) {
				t.Fatalf("Publish = %v, want the injected fault", err)
			}
			want := "old"
			if stage == StageDirSync {
				want = "new" // already renamed; only its durability is in doubt
			}
			if got, _ := os.ReadFile(path); string(got) != want {
				t.Fatalf("target holds %q after a failed %s, want %q", got, stage, want)
			}
			if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
				t.Fatalf("staging file left behind: %v", err)
			}
		})
	}
	// A real failure, not an injected one: the directory does not exist.
	if err := Publish(filepath.Join(t.TempDir(), "absent", "target"), []byte("x"), nil); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
}

// TestPatch: each write is one StageWrite and the fsync comes last; a fault
// keeps the writes before it and stops the rest; a missing file is an
// error, not a create.
func TestPatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "target")
	if err := os.WriteFile(path, []byte("aaaaaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	writes := func(w io.WriterAt) error {
		for i, s := range []string{"B", "C", "D"} {
			if _, err := w.WriteAt([]byte(s), int64(2*i)); err != nil {
				return err
			}
		}
		return nil
	}
	var order []Stage
	if err := Patch(path, writes, func(st Stage, run func() error) error {
		order = append(order, st)
		return run()
	}); err != nil {
		t.Fatal(err)
	}
	if want := []Stage{StageWrite, StageWrite, StageWrite, StageFsync}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("stages ran as %v, want %v", order, want)
	}
	if got, _ := os.ReadFile(path); string(got) != "BaCaDa" {
		t.Fatalf("patched contents = %q", got)
	}

	injected := errors.New("injected EIO")
	os.WriteFile(path, []byte("aaaaaa"), 0o644)
	calls := 0
	err := Patch(path, writes, func(st Stage, run func() error) error {
		if calls++; calls == 2 {
			return injected
		}
		return run()
	})
	if !errors.Is(err, injected) {
		t.Fatalf("Patch = %v, want the injected fault", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "Baaaaa" {
		t.Fatalf("contents after a fault at the second write = %q, want only the first write", got)
	}

	absent := filepath.Join(t.TempDir(), "absent")
	if err := Patch(absent, writes, nil); err == nil {
		t.Fatal("patching a missing file succeeded")
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatalf("Patch created the missing file: %v", err)
	}
}
