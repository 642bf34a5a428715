package streamfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// FileSystem abstracts the handful of file operations the disk store
// performs, so that crash-consistency tests can run the real segment
// scanning, framing, and recovery code over a simulated disk image
// (internal/streamfs/faultfs) with byte-exact fault injection. The
// default implementation is the operating system (osFS).
//
// Semantics the disk store relies on:
//
//   - Create fails if the path already exists (O_EXCL), and the returned
//     File appends at end-of-file on every Write (O_APPEND).
//   - Rename atomically replaces the destination (base-meta updates).
//   - Remove and Rename are durable when they return: a crash does not
//     bring back a file that was removed or replaced (payload erasure
//     rewrites a segment and renames it over the old one, whose bytes
//     must stay gone). osFS flushes the parent directory; faultfs applies
//     metadata operations to the image at once.
//   - Absent files surface errors satisfying errors.Is(err, fs.ErrNotExist).
type FileSystem interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Glob lists paths matching the shell pattern, unsorted.
	Glob(pattern string) ([]string, error)
	// Create makes a new append-mode file; it fails if path exists.
	Create(path string) (File, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(path string) (File, error)
	// OpenRead opens an existing file for reading.
	OpenRead(path string) (File, error)
	// Truncate cuts the named file to size bytes.
	Truncate(path string, size int64) error
	// Remove deletes the named file.
	Remove(path string) error
	// Rename moves oldPath to newPath, replacing any existing file.
	Rename(oldPath, newPath string) error
	// WriteFile writes data to a new or replaced file in one operation
	// and flushes it to stable storage before returning. The base-meta
	// update (write tmp, rename over) relies on this: the rename must
	// never land before its content is durable, or a crash could expose
	// a torn meta file.
	WriteFile(path string, data []byte) error
	// ReadFile returns the named file's full contents.
	ReadFile(path string) ([]byte, error)
}

// File is one open file handle. Write handles append at end-of-file;
// read handles support positioned reads.
type File interface {
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	// Size returns the file's current byte length.
	Size() (int64, error)
	// Truncate cuts the file to size bytes; subsequent appends continue
	// from the new end (short-write repair in Append).
	Truncate(size int64) error
	Sync() error
	Close() error
}

// osFS is the production FileSystem: the host operating system.
type osFS struct{}

// OSFileSystem returns the real-disk FileSystem (the DiskOptions.FS
// default, exported for callers that wrap it).
func OSFileSystem() FileSystem { return osFS{} }

func (osFS) MkdirAll(dir string) error              { return os.MkdirAll(dir, 0o755) }
func (osFS) Glob(pattern string) ([]string, error)  { return filepath.Glob(pattern) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) Remove(path string) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}
func (osFS) Rename(oldPath, newPath string) error {
	if err := os.Rename(oldPath, newPath); err != nil {
		return err
	}
	return syncDir(filepath.Dir(newPath))
}

// syncDir flushes dir's entries: a file's own fsync does not cover the
// name that leads to it.
func syncDir(dir string) error {
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

func (osFS) WriteFile(path string, data []byte) error {
	// Not os.WriteFile: the FileSystem contract requires the content to
	// be durable before the caller renames it into place.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenRead(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// notExist reports whether err means the file is absent, across both the
// OS and simulated backends.
func notExist(err error) bool {
	return err != nil && (os.IsNotExist(err) || errors.Is(err, fs.ErrNotExist))
}

// Path helpers shared by the disk store and simulated file systems.
// Both treat paths as opaque slash-joined strings.
func pathJoin(elem ...string) string { return filepath.Join(elem...) }
func pathBase(p string) string       { return filepath.Base(p) }
