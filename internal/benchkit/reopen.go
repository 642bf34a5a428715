package benchkit

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/index"
	"ledgerdb/internal/streamfs"
)

// readCountFS is the operating system's file system, counting the
// positioned reads of every file opened for reading.
type readCountFS struct {
	streamfs.FileSystem
	readAts atomic.Int64
}

type readCountFile struct {
	streamfs.File
	n *atomic.Int64
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.n.Add(1)
	return f.File.ReadAt(p, off)
}

func (c *readCountFS) OpenRead(p string) (streamfs.File, error) {
	f, err := c.FileSystem.OpenRead(p)
	if err != nil {
		return nil, err
	}
	return readCountFile{f, &c.readAts}, nil
}

// openDiskStores opens dir's streams (the server's SyncEvery 256) and
// payload log over fsys.
func openDiskStores(dir string, fsys streamfs.FileSystem) (streamfs.Store, streamfs.BlobStore, error) {
	store, err := streamfs.OpenDisk(filepath.Join(dir, "streams"), streamfs.DiskOptions{SyncEvery: 256, FS: fsys})
	if err != nil {
		return nil, nil, err
	}
	blobs, err := streamfs.OpenDiskBlobsOn(fsys, filepath.Join(dir, "blobs"), 16<<20)
	if err != nil {
		return nil, nil, errors.Join(err, store.Close())
	}
	return store, blobs, nil
}

// benchReopen40k measures a restart of the proof-size fixture written
// to disk (40 000 journals plus genesis): opening its streams and
// payload log, ledger.Open's recovery, and index.Open's build of the
// query projections. ReadAts is the positioned reads one reopen issues.
// The files sit in the page cache, so the time is the reopen's CPU, not
// the disk's.
func benchReopen40k() HotPathResult {
	dir, err := os.MkdirTemp("", "ledgerdb-reopen-")
	if err != nil {
		panic(err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // bench scratch; best-effort cleanup
	store, blobs, err := openDiskStores(dir, streamfs.OSFileSystem())
	if err != nil {
		panic(err)
	}
	tl, _, err := proofReadLedgerOn(store, blobs)
	if err != nil {
		panic(err)
	}
	if err := errors.Join(tl.L.Close(), store.Close()); err != nil {
		panic(err)
	}

	var reads int64
	res := resultOf("reopen-40k", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fsys := &readCountFS{FileSystem: streamfs.OSFileSystem()}
			store, blobs, err := openDiskStores(dir, fsys)
			if err != nil {
				b.Fatal(err)
			}
			tl, err := newTestLedgerOn("ledger://proof-read", proofReadHeight, proofReadBlock, store, blobs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := index.Open(tl.L, nil); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			reads = fsys.readAts.Load()
			if err := errors.Join(tl.L.Close(), store.Close()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}))
	res.ReadAts = reads
	return res
}
