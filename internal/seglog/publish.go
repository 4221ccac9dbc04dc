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

// Publish atomically replaces (or creates) the file at path with data,
// through fs (nil means OS): write path+TempSuffix, fsync it, rename it over
// path, fsync the directory. The tmp fsync comes before the rename so every
// byte is on media before the target's name can expose the file; the
// directory fsync comes after it, or a kernel crash shortly after the rename
// could resurrect the old entry, and with it the old contents, losing a
// publish already reported durable. A crash at any point leaves either the
// old contents or the new ones, never a torn mix, and once Publish returns
// the new contents survive power loss. On failure before the rename the old
// contents are untouched and the staging file is removed; a failed directory
// fsync leaves the new contents visible but not yet known durable.
func Publish(fs FS, path string, data []byte) error {
	return publish(fs, path, data, 0)
}

// PublishZeros is Publish of size zero bytes, the size form: the staging
// file is not written but Truncated to size, so it is sparse where the file
// system allows and costs O(1) to write, whatever its size.
func PublishZeros(fs FS, path string, size int64) error {
	return publish(fs, path, nil, size)
}

// publish writes data to the staging file, extends it with zeros to size if
// that is larger, and publishes it.
func publish(fs FS, path string, data []byte, size int64) error {
	fs = OrOS(fs)
	tmp := path + TempSuffix
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if len(data) > 0 {
			_, err = f.WriteAt(data, 0)
		}
		if err == nil && size > int64(len(data)) {
			err = f.Truncate(size)
		}
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp) // best effort; openers clear leftovers too
		return fmt.Errorf("seglog: publish %s: %w", path, err)
	}
	if err := SyncDir(fs, filepath.Dir(path)); err != nil {
		return fmt.Errorf("seglog: publish %s: %w", path, err)
	}
	return nil
}

// Patch updates the existing file at path in place, through fs (nil means
// OS): write gets the open file, and the file is then fsynced. Unlike
// Publish it is not atomic — a crash or failure part-way leaves any subset
// of the writes on media, and only a nil return means all of them are
// durable — so it suits a caller that can redo the writes from a log it
// keeps until Patch returns.
func Patch(fs FS, path string, write func(io.WriterAt) error) error {
	f, err := OrOS(fs).OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("seglog: patch %s: %w", path, err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seglog: patch %s: %w", path, err)
	}
	return nil
}
