package seglog

import "os"

// FS is the one seam between the fleet's durable state and the file system:
// every open, write, fsync, truncate, rename and remove of a pool image, an
// epoch log, a slot map or a black box goes through one. OS is the only
// production implementation; tests and the chaos harness substitute a
// wrapper (internal/faultfs) that can fail, hold or record each operation.
// A nil FS anywhere a config or call takes one means OS.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
}

// File is an open file of an FS. An *os.File is one.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// OS is the operating system's file system; its File is the *os.File itself.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File inside a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// OrOS returns fs, or OS when fs is nil.
func OrOS(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}

// ReadFile reads the whole named file through fs (nil means OS).
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := OrOS(fs).OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fi.Size())
	_, err = f.ReadAt(buf, 0)
	return buf, err
}

// SyncDir fsyncs a directory through fs (nil means OS), so the creates,
// renames and removes in it are durable.
func SyncDir(fs FS, dir string) error {
	d, err := OrOS(fs).OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
