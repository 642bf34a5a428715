package main

import (
	"sync/atomic"
	"time"

	"ledgerdb/internal/streamfs"
)

// fsCounters are the device-level counts of one traced run: how many
// writes, flushes and reads the ledger's streams cost, and how long the
// flushes took. With one closed-loop client they repeat exactly for a
// fixed seed.
type fsCounters struct {
	writeCalls, writeBytes atomic.Int64
	readCalls, readBytes   atomic.Int64
	fsyncCalls, fsyncNanos atomic.Int64
}

type fsSnapshot struct {
	writeCalls, writeBytes, readCalls, readBytes, fsyncCalls, fsyncNanos int64
}

func (c *fsCounters) snapshot() fsSnapshot {
	return fsSnapshot{
		c.writeCalls.Load(), c.writeBytes.Load(), c.readCalls.Load(),
		c.readBytes.Load(), c.fsyncCalls.Load(), c.fsyncNanos.Load(),
	}
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	return fsSnapshot{
		a.writeCalls - b.writeCalls, a.writeBytes - b.writeBytes, a.readCalls - b.readCalls,
		a.readBytes - b.readBytes, a.fsyncCalls - b.fsyncCalls, a.fsyncNanos - b.fsyncNanos,
	}
}

// countingFS is a streamfs.FileSystem that forwards every call to inner
// and counts the data-path ones. It is passed as DiskOptions.FS, the
// seam the crash tests already use for faultfs.
type countingFS struct {
	inner streamfs.FileSystem
	c     *fsCounters
}

func (f countingFS) MkdirAll(dir string) error              { return f.inner.MkdirAll(dir) }
func (f countingFS) Glob(p string) ([]string, error)        { return f.inner.Glob(p) }
func (f countingFS) Truncate(path string, size int64) error { return f.inner.Truncate(path, size) }
func (f countingFS) Remove(path string) error               { return f.inner.Remove(path) }
func (f countingFS) Rename(oldPath, newPath string) error   { return f.inner.Rename(oldPath, newPath) }

func (f countingFS) WriteFile(path string, data []byte) error {
	// WriteFile is write + flush by contract (base-meta updates).
	f.c.writeCalls.Add(1)
	f.c.writeBytes.Add(int64(len(data)))
	f.c.fsyncCalls.Add(1)
	t0 := time.Now()
	err := f.inner.WriteFile(path, data)
	f.c.fsyncNanos.Add(int64(time.Since(t0)))
	return err
}

func (f countingFS) ReadFile(path string) ([]byte, error) {
	b, err := f.inner.ReadFile(path)
	f.c.readCalls.Add(1)
	f.c.readBytes.Add(int64(len(b)))
	return b, err
}

func (f countingFS) wrap(file streamfs.File, err error) (streamfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{file, f.c}, nil
}

func (f countingFS) Create(path string) (streamfs.File, error) { return f.wrap(f.inner.Create(path)) }
func (f countingFS) OpenAppend(path string) (streamfs.File, error) {
	return f.wrap(f.inner.OpenAppend(path))
}
func (f countingFS) OpenRead(path string) (streamfs.File, error) {
	return f.wrap(f.inner.OpenRead(path))
}

// countingFile forwards Size, Truncate and Close through the embedded
// File and counts the three data-path methods.
type countingFile struct {
	streamfs.File
	c *fsCounters
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writeCalls.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.readCalls.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.c.fsyncCalls.Add(1)
	f.c.fsyncNanos.Add(int64(time.Since(t0)))
	return err
}
