package seglog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// TempSuffix names the staging file Publish writes next to its target. A
// crash mid-publish leaves it behind; it is never valid state, and openers
// of the target remove or ignore it.
const TempSuffix = ".tmp"

// Publish stages, in execution order; Patch runs the first two.
const (
	// StageWrite writes the staging file (Patch: one in-place write).
	StageWrite Stage = "write-image"
	// StageFsync fsyncs it, so every byte is on media before the rename can
	// expose the file under the target's name (Patch: before it returns).
	StageFsync Stage = "fsync"
	// StageRename renames it over the target.
	StageRename Stage = "rename"
	// StageDirSync fsyncs the directory: without it a kernel crash shortly
	// after the rename can resurrect the old directory entry, and with it
	// the old contents, losing a publish already reported durable.
	StageDirSync Stage = "dirsync"
)

// Hook wraps each stage of a Publish or Patch: it decides whether run happens (fault
// injection returns an error instead) and may time it.
type Hook func(st Stage, run func() error) error

// Publish atomically replaces (or creates) the file at path with data: write
// path+TempSuffix, fsync it, rename it over path, fsync the directory. A
// crash at any point leaves either the old contents or the new ones, never a
// torn mix, and once Publish returns the new contents survive power loss. On
// failure before the rename the old contents are untouched and the staging
// file is removed; a failed directory fsync leaves the new contents visible
// but not yet known durable. A nil hook runs every stage.
func Publish(path string, data []byte, hook Hook) error {
	if hook == nil {
		hook = func(_ Stage, run func() error) error { return run() }
	}
	tmp := path + TempSuffix
	var f *os.File
	stages := []struct {
		st  Stage
		run func() error
	}{
		{StageWrite, func() (err error) {
			if f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644); err == nil {
				_, err = f.Write(data)
			}
			return err
		}},
		{StageFsync, func() error {
			if err := f.Sync(); err != nil {
				return err
			}
			staged := f
			f = nil
			return staged.Close()
		}},
		{StageRename, func() error { return os.Rename(tmp, path) }},
		{StageDirSync, func() error { return SyncDir(filepath.Dir(path)) }},
	}
	for _, s := range stages {
		if err := hook(s.st, s.run); err != nil {
			if f != nil {
				f.Close()
			}
			os.Remove(tmp) // best effort; openers clear leftovers too
			return fmt.Errorf("seglog: publish %s: %s: %w", path, s.st, err)
		}
	}
	return nil
}

// Patch updates the existing file at path in place: write gets a WriterAt on
// it, each of whose writes is one StageWrite, and the file is then fsynced
// (StageFsync). Unlike Publish it is not atomic — a crash or failure
// part-way leaves any subset of the writes on media, and only a nil return
// means all of them are durable — so it suits a caller that can redo the
// writes from a log it keeps until Patch returns. A nil hook runs every
// stage.
func Patch(path string, write func(io.WriterAt) error, hook Hook) error {
	if hook == nil {
		hook = func(_ Stage, run func() error) error { return run() }
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("seglog: patch %s: %w", path, err)
	}
	err = write(patchWriter{f, hook})
	if err == nil {
		err = hook(StageFsync, f.Sync)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seglog: patch %s: %w", path, err)
	}
	return nil
}

// patchWriter runs each WriteAt of a Patch as one StageWrite.
type patchWriter struct {
	f    *os.File
	hook Hook
}

func (w patchWriter) WriteAt(p []byte, off int64) (n int, err error) {
	err = w.hook(StageWrite, func() (err error) {
		n, err = w.f.WriteAt(p, off)
		return err
	})
	return n, err
}

// SyncDir fsyncs a directory so the creates, renames and removes in it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
