package server_test

import (
	"fmt"
	"testing"

	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/streamfs/faultfs"
)

// reopenJournals is the size of the reopen guard's ledger, genesis
// included.
const reopenJournals = 4096

// wantReopenReadAts is the exact number of positioned reads a reopen of
// the reopenJournals-journal ledger plus its index issues: the open
// scans, recovery's one pass over each stream and the index's one scan
// of the journal stream all read in chunks of up to 256 KiB, so the
// count follows the bytes on disk, not the journal count.
const wantReopenReadAts = 21

// diskLedger opens a ledger over the streams and payload log of fsys,
// with the server's flush cadence.
func diskLedger(t *testing.T, fsys streamfs.FileSystem, clock *logicalclock.Clock) *ledger.Ledger {
	t.Helper()
	store, err := streamfs.OpenDisk("streams", streamfs.DiskOptions{SyncEvery: 256, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := streamfs.OpenDiskBlobsOn(fsys, "blobs", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ledger.Open(ledger.Config{
		URI: "ledger://reopen", LSP: sig.GenerateDeterministic("reopen/lsp"),
		DBA:   sig.GenerateDeterministic("reopen/dba").Public(),
		Store: store, Blobs: blobs, Clock: clock.Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendReopenJournals commits n journals in batches of 64, under 97
// clues.
func appendReopenJournals(t *testing.T, l *ledger.Ledger, n int) {
	t.Helper()
	client := sig.GenerateDeterministic("reopen/client")
	for i := 0; i < n; i += 64 {
		batch := make([]*journal.Request, min(64, n-i))
		for k := range batch {
			batch[k] = &journal.Request{
				LedgerURI: "ledger://reopen", Type: journal.TypeNormal, Nonce: uint64(i + k + 1),
				Payload: []byte(fmt.Sprintf("payload-%06d", i+k)), Clues: []string{fmt.Sprintf("c%02d", (i+k)%97)},
			}
			if err := batch[k].Sign(client); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReopenReadCount is the reopen guard: reopening a fixed
// 4096-journal disk ledger and rebuilding its index issues exactly
// wantReopenReadAts positioned reads, and the index, on open and on the
// query path, touches the store it is handed not at all.
func TestReopenReadCount(t *testing.T) {
	disk := faultfs.NewDisk()
	clock := logicalclock.New(9_000_000)
	l := diskLedger(t, disk, clock)
	appendReopenJournals(t, l, reopenJournals-1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := &countingFS{FileSystem: disk}
	ixFS := &countingFS{FileSystem: faultfs.NewDisk()}
	ixStore, err := streamfs.OpenDisk("index", streamfs.DiskOptions{FS: ixFS})
	if err != nil {
		t.Fatal(err)
	}
	l = diskLedger(t, fsys, clock)
	defer l.Close()
	ix, err := index.Open(l, ixStore)
	if err != nil {
		t.Fatal(err)
	}
	reads := fsys.readAts.Load()
	t.Logf("reopen of %d journals + index: %d ReadAt calls (%.3f per journal)", l.Size(), reads, float64(reads)/float64(l.Size()))
	if l.Size() != reopenJournals {
		t.Fatalf("reopened %d journals, want %d", l.Size(), reopenJournals)
	}
	if reads != wantReopenReadAts {
		t.Fatalf("reopen issued %d ReadAt calls, want exactly %d", reads, wantReopenReadAts)
	}

	appendReopenJournals(t, l, 64)
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "c1"}
	res, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.VerifyQueryResult(l.LSPPublic(), q, res); err != nil {
		t.Fatal(err)
	}
	if err := ix.CrossCheck(); err != nil {
		t.Fatal(err)
	}
	if n, r := ixFS.mutations(), ixFS.readAts.Load(); n != 0 || r != 0 {
		t.Fatalf("the index issued %d creates, writes and fsyncs and %d reads on its store, want 0", n, r)
	}
}

// TestIndexStoreUntouched: the index keeps its projections in memory
// only, so Open, Sync, every query kind and CrossCheck issue no create,
// write, fsync or read to the store they are handed.
func TestIndexStoreUntouched(t *testing.T) {
	l := diskLedger(t, faultfs.NewDisk(), logicalclock.New(5_000_000))
	defer l.Close()
	appendReopenJournals(t, l, 200)
	ixFS := &countingFS{FileSystem: faultfs.NewDisk()}
	ixStore, err := streamfs.OpenDisk("index", streamfs.DiskOptions{SyncEvery: 1, FS: ixFS})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(l, ixStore)
	if err != nil {
		t.Fatal(err)
	}
	appendReopenJournals(t, l, 64)
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []ledger.Query{
		{Kind: ledger.QueryByPrefix, Prefix: "c4"},
		{Kind: ledger.QueryByPrefix, Prefix: "absent/"},
		{Kind: ledger.QueryByTime, From: 5_000_100, To: 5_000_200},
		{Kind: ledger.QueryBySigner, Signer: sig.GenerateDeterministic("reopen/client").Public(), Limit: 8},
	} {
		res, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ledger.VerifyQueryResult(l.LSPPublic(), q, res); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CrossCheck(); err != nil {
		t.Fatal(err)
	}
	if n, r := ixFS.mutations(), ixFS.readAts.Load(); n != 0 || r != 0 {
		t.Fatalf("the index issued %d creates, writes and fsyncs and %d reads on its store, want 0", n, r)
	}
}
