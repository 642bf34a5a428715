package crashtest

import (
	"bytes"
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

const ixURI = "ledger://index-crash"

// TestIndexCrashBothStores cuts the power under a ledger whose query
// index tails it. The index keeps its projections in memory only, so
// the crash takes nothing of the index with it; what it takes from the
// ledger is the unsynced journal tail (SyncEvery 8), whose jsns the
// reopened ledger issues again, to different requests. Whatever
// survives, in either crash model, the index reopened over the
// recovered ledger and tailed past the reissued jsns must equal a fresh
// Open's projection bytes and cross-check clean.
func TestIndexCrashBothStores(t *testing.T) {
	lsp := sig.GenerateDeterministic("ixcrash/lsp")
	client := sig.GenerateDeterministic("ixcrash/client")
	clock := logicalclock.New(3_000_000)
	var nonce uint64
	open := func(d *faultfs.Disk) (*ledger.Ledger, *index.Index, error) {
		store, err := streamfs.OpenDisk("streams", streamfs.DiskOptions{SegmentSize: 1024, SyncEvery: 8, FS: d})
		if err != nil {
			return nil, nil, err
		}
		blobs, err := streamfs.OpenDiskBlobsOn(d, "blobs", 512)
		if err != nil {
			return nil, nil, err
		}
		l, err := ledger.Open(ledger.Config{
			URI: ixURI, FractalHeight: 3, BlockSize: 64, Clock: clock.Tick, LSP: lsp,
			DBA: sig.GenerateDeterministic("ixcrash/dba").Public(), Store: store, Blobs: blobs,
		})
		if err != nil {
			return nil, nil, err
		}
		ix, err := index.Open(l, nil)
		return l, ix, err
	}
	// workload appends n journals under tag-prefixed clues, tailing the
	// index after every third; it stops at the first error (the crash).
	workload := func(l *ledger.Ledger, ix *index.Index, tag string, n int) error {
		for i := 0; i < n; i++ {
			nonce++
			req := &journal.Request{
				LedgerURI: ixURI, Type: journal.TypeNormal, Nonce: nonce,
				Payload: []byte(fmt.Sprintf("%s-payload-%d", tag, nonce)),
				Clues:   []string{fmt.Sprintf("%s/%02d", tag, i%5)},
			}
			if err := req.Sign(client); err != nil {
				return err
			}
			if _, err := l.Append(req); err != nil {
				return err
			}
			if i%3 == 2 {
				if err := ix.Sync(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	dry := faultfs.NewDisk()
	l, ix, err := open(dry)
	if err != nil {
		t.Fatal(err)
	}
	opened := dry.BytesWritten()
	if err := workload(l, ix, "pre", 40); err != nil {
		t.Fatal(err)
	}
	total := dry.BytesWritten()
	l.Close()

	sawLoss := false
	for _, mode := range []faultfs.CrashMode{faultfs.TornWrite, faultfs.DropUnsynced} {
		for k := int64(1); k <= 6; k++ {
			ctx := fmt.Sprintf("mode %d cut %d/7", mode, k)
			d := faultfs.NewDisk()
			d.CrashAtByte(opened + k*(total-opened)/7)
			l, ix, err := open(d)
			if err != nil {
				t.Fatalf("%s: open before the crash point: %v", ctx, err)
			}
			if err := workload(l, ix, "pre", 40); err == nil || !d.Crashed() {
				t.Fatalf("%s: workload survived an armed crash (err %v)", ctx, err)
			}
			tailed := l.Size()
			l.Close()

			l, ix, err = open(d.Image(mode))
			if err != nil {
				t.Fatalf("%s: reopen: %v", ctx, err)
			}
			recovered := l.Size()
			if recovered < tailed {
				sawLoss = true
			}
			// The lost jsns come back as different requests.
			if err := workload(l, ix, "post", 10); err != nil {
				t.Fatalf("%s: appends after recovery: %v", ctx, err)
			}
			if err := ix.Sync(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			fresh, err := index.Open(l, nil)
			if err != nil {
				t.Fatalf("%s: fresh open: %v", ctx, err)
			}
			if !bytes.Equal(ix.ProjectionBytes(), fresh.ProjectionBytes()) {
				t.Fatalf("%s: tailed projections diverge from a fresh open of the %d-journal ledger (recovered at %d)",
					ctx, l.Size(), recovered)
			}
			if err := ix.CrossCheck(); err != nil {
				t.Fatalf("%s: cross-check: %v", ctx, err)
			}
			l.Close()
		}
	}
	if !sawLoss {
		t.Fatal("no crash lost a journal the index had tailed; the reissued-jsn scenario never ran")
	}
}
