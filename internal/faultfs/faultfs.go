// Package faultfs wraps a seglog.FS so tests and the chaos harness can fail,
// hold or record every file operation the fleet makes. Production code
// carries no fault plumbing: a harness passes a *FS where it would pass
// seglog.OS (pax.Options.FS, pmem.Config.FS, seglog.Config.FS, ...) and arms
// it with Set.
package faultfs

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"pax/internal/seglog"
)

// Kind names a file operation: a method of seglog.FS or seglog.File (Stat
// is either).
type Kind string

const (
	OpenFile, Rename, Remove, RemoveAll Kind = "OpenFile", "Rename", "Remove", "RemoveAll"
	ReadDir, Stat, MkdirAll             Kind = "ReadDir", "Stat", "MkdirAll"
	ReadAt, WriteAt, Sync, Truncate     Kind = "ReadAt", "WriteAt", "Sync", "Truncate"
	Close                               Kind = "Close"
)

// Op is one file operation about to reach the inner FS. Path is the file it
// acts on; for a Rename, the old name.
type Op struct {
	Kind Kind
	Path string
}

// FS is a seglog.FS that consults a function before every operation.
type FS struct {
	inner seglog.FS
	fn    atomic.Pointer[func(Op) error]
}

// New wraps inner (nil means seglog.OS). Until Set arms it, every operation
// passes straight through.
func New(inner seglog.FS) *FS { return &FS{inner: seglog.OrOS(inner)} }

// Set atomically swaps the function consulted before every operation; nil
// clears it. A non-nil return fails the operation with that error, and the
// inner FS never sees it. The function may also block, holding that one
// operation — a slow or stuck medium — while operations in other goroutines
// go on, so it must be safe for concurrent use.
func (f *FS) Set(fn func(Op) error) { f.fn.Store(&fn) }

// run consults the armed function for one operation, then runs it.
func run[T any](f *FS, kind Kind, path string, op func() (T, error)) (T, error) {
	if fn := f.fn.Load(); fn != nil && *fn != nil {
		if err := (*fn)(Op{kind, path}); err != nil {
			var zero T
			return zero, err
		}
	}
	return op()
}

// do is run for an operation that returns only an error.
func do(f *FS, kind Kind, path string, op func() error) error {
	_, err := run(f, kind, path, func() (struct{}, error) { return struct{}{}, op() })
	return err
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (seglog.File, error) {
	return run(f, OpenFile, name, func() (seglog.File, error) {
		inner, err := f.inner.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &file{inner, f, name}, nil
	})
}

func (f *FS) Rename(oldpath, newpath string) error {
	return do(f, Rename, oldpath, func() error { return f.inner.Rename(oldpath, newpath) })
}

func (f *FS) Remove(name string) error {
	return do(f, Remove, name, func() error { return f.inner.Remove(name) })
}

func (f *FS) RemoveAll(path string) error {
	return do(f, RemoveAll, path, func() error { return f.inner.RemoveAll(path) })
}

func (f *FS) ReadDir(name string) ([]os.DirEntry, error) {
	return run(f, ReadDir, name, func() ([]os.DirEntry, error) { return f.inner.ReadDir(name) })
}

func (f *FS) Stat(name string) (os.FileInfo, error) {
	return run(f, Stat, name, func() (os.FileInfo, error) { return f.inner.Stat(name) })
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	return do(f, MkdirAll, path, func() error { return f.inner.MkdirAll(path, perm) })
}

// file is an open file of an FS.
type file struct {
	inner seglog.File
	fs    *FS
	name  string
}

func (x *file) ReadAt(p []byte, off int64) (int, error) {
	return run(x.fs, ReadAt, x.name, func() (int, error) { return x.inner.ReadAt(p, off) })
}

func (x *file) WriteAt(p []byte, off int64) (int, error) {
	return run(x.fs, WriteAt, x.name, func() (int, error) { return x.inner.WriteAt(p, off) })
}

func (x *file) Sync() error { return do(x.fs, Sync, x.name, x.inner.Sync) }

func (x *file) Truncate(size int64) error {
	return do(x.fs, Truncate, x.name, func() error { return x.inner.Truncate(size) })
}

func (x *file) Stat() (os.FileInfo, error) { return run(x.fs, Stat, x.name, x.inner.Stat) }

func (x *file) Close() error { return do(x.fs, Close, x.name, x.inner.Close) }

// In matches the paths inside dir, at any depth — the segments of one epoch
// log, say, but not the directory itself.
func In(dir string) func(path string) bool {
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	return func(path string) bool { return strings.HasPrefix(path, prefix) }
}

// FailSyncs returns a schedule whose first n Syncs on paths match accepts
// fail with err and whose later ones succeed — a transient fault the medium
// recovers from. Every other operation passes. Safe for concurrent use.
func FailSyncs(match func(path string) bool, n int, err error) func(Op) error {
	return countSyncs(match, func(i int64) bool { return i <= int64(n) }, err)
}

// FailSyncsAfter returns a schedule whose first k Syncs on paths match
// accepts succeed and whose later ones all fail with err — a persistent
// fault (a dead device, a file system gone read-only); k=0 fails every one.
// Counts like FailSyncs.
func FailSyncsAfter(match func(path string) bool, k int, err error) func(Op) error {
	return countSyncs(match, func(i int64) bool { return i > int64(k) }, err)
}

// countSyncs numbers the Syncs on matching paths from 1 and fails those
// fail picks.
func countSyncs(match func(path string) bool, fail func(i int64) bool, err error) func(Op) error {
	var calls atomic.Int64
	return func(op Op) error {
		if op.Kind == Sync && match(op.Path) && fail(calls.Add(1)) {
			return err
		}
		return nil
	}
}
