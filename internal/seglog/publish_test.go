package seglog_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"pax/internal/faultfs"
	"pax/internal/seglog"
)

// record arms fs to log every operation of the given kinds, rendered as
// "Kind path" with path relative to dir ("." for dir itself).
func record(t *testing.T, fs *faultfs.FS, dir string, kinds ...faultfs.Kind) func() []string {
	t.Helper()
	var (
		mu  sync.Mutex
		ops []string
	)
	fs.Set(func(op faultfs.Op) error {
		if slices.Contains(kinds, op.Kind) {
			rel, err := filepath.Rel(dir, op.Path)
			if err != nil {
				rel = op.Path
			}
			mu.Lock()
			ops = append(ops, fmt.Sprintf("%s %s", op.Kind, rel))
			mu.Unlock()
		}
		return nil
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(ops)
	}
}

// failAt arms fs to fail every operation of kind on path (relative to dir)
// with err.
func failAt(fs *faultfs.FS, dir string, kind faultfs.Kind, path string, err error) {
	fs.Set(func(op faultfs.Op) error {
		if op.Kind == kind && op.Path == filepath.Join(dir, path) {
			return err
		}
		return nil
	})
}

// TestPublish: the staged bytes are written and fsynced before the rename
// exposes them, and the directory is fsynced after it.
func TestPublish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	fs := faultfs.New(nil)
	ops := record(t, fs, dir, faultfs.WriteAt, faultfs.Sync, faultfs.Rename, faultfs.Remove)
	if err := seglog.Publish(fs, path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if got, want := ops(), []string{"WriteAt target.tmp", "Sync target.tmp", "Rename target.tmp", "Sync ."}; !slices.Equal(got, want) {
		t.Fatalf("ops ran as %q, want %q", got, want)
	}
	if err := seglog.Publish(nil, path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("published contents = %q", got)
	}
	if _, err := os.Stat(path + seglog.TempSuffix); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
}

// TestPublishZeros: the size form runs the same protocol with a Truncate in
// place of the write, so the published file is size zero bytes; a Truncate
// that fails leaves the old contents and no staging file.
func TestPublishZeros(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := seglog.Publish(nil, path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected ENOSPC")
	fs := faultfs.New(nil)
	failAt(fs, dir, faultfs.Truncate, "target.tmp", injected)
	if err := seglog.PublishZeros(fs, path, 1<<20); !errors.Is(err, injected) {
		t.Fatalf("PublishZeros = %v, want the injected fault", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("target holds %q after a failed Truncate, want %q", got, "old")
	}
	if _, err := os.Stat(path + seglog.TempSuffix); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}

	ops := record(t, fs, dir, faultfs.WriteAt, faultfs.Truncate, faultfs.Sync, faultfs.Rename)
	if err := seglog.PublishZeros(fs, path, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got, want := ops(), []string{"Truncate target.tmp", "Sync target.tmp", "Rename target.tmp", "Sync ."}; !slices.Equal(got, want) {
		t.Fatalf("ops ran as %q, want %q", got, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1<<20 || slices.ContainsFunc(got, func(b byte) bool { return b != 0 }) {
		t.Fatalf("published %d bytes, want %d zero bytes", len(got), 1<<20)
	}
}

// TestPublishFaults: whichever step fails, the target holds either the old
// contents or the new ones, no staging file survives, and the error carries
// the cause.
func TestPublishFaults(t *testing.T) {
	injected := errors.New("injected EIO")
	for _, step := range []struct {
		name string
		kind faultfs.Kind
		path string
	}{
		{"write-image", faultfs.WriteAt, "target.tmp"},
		{"fsync", faultfs.Sync, "target.tmp"},
		{"rename", faultfs.Rename, "target.tmp"},
		{"dirsync", faultfs.Sync, "."},
	} {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "target")
			if err := seglog.Publish(nil, path, []byte("old")); err != nil {
				t.Fatal(err)
			}
			fs := faultfs.New(nil)
			failAt(fs, dir, step.kind, step.path, injected)
			if err := seglog.Publish(fs, path, []byte("new")); !errors.Is(err, injected) {
				t.Fatalf("Publish = %v, want the injected fault", err)
			}
			want := "old"
			if step.name == "dirsync" {
				want = "new" // already renamed; only its durability is in doubt
			}
			if got, _ := os.ReadFile(path); string(got) != want {
				t.Fatalf("target holds %q after a failed %s, want %q", got, step.name, want)
			}
			if _, err := os.Stat(path + seglog.TempSuffix); !os.IsNotExist(err) {
				t.Fatalf("staging file left behind: %v", err)
			}
		})
	}
	// A real failure, not an injected one: the directory does not exist.
	if err := seglog.Publish(nil, filepath.Join(t.TempDir(), "absent", "target"), []byte("x")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
}

// TestPatch: the writes land in place and the fsync comes last, with no
// rename; a fault keeps the writes before it and stops the rest; a missing
// file is an error, not a create.
func TestPatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
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
	fs := faultfs.New(nil)
	ops := record(t, fs, dir, faultfs.WriteAt, faultfs.Sync, faultfs.Rename)
	if err := seglog.Patch(fs, path, writes); err != nil {
		t.Fatal(err)
	}
	if got, want := ops(), []string{"WriteAt target", "WriteAt target", "WriteAt target", "Sync target"}; !slices.Equal(got, want) {
		t.Fatalf("ops ran as %q, want %q", got, want)
	}
	if got, _ := os.ReadFile(path); string(got) != "BaCaDa" {
		t.Fatalf("patched contents = %q", got)
	}

	injected := errors.New("injected EIO")
	os.WriteFile(path, []byte("aaaaaa"), 0o644)
	writesSeen := 0
	fs.Set(func(op faultfs.Op) error {
		if op.Kind == faultfs.WriteAt {
			if writesSeen++; writesSeen == 2 {
				return injected
			}
		}
		return nil
	})
	if err := seglog.Patch(fs, path, writes); !errors.Is(err, injected) {
		t.Fatalf("Patch = %v, want the injected fault", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "Baaaaa" {
		t.Fatalf("contents after a fault at the second write = %q, want only the first write", got)
	}

	absent := filepath.Join(t.TempDir(), "absent")
	if err := seglog.Patch(nil, absent, writes); err == nil {
		t.Fatal("patching a missing file succeeded")
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatalf("Patch created the missing file: %v", err)
	}
}
