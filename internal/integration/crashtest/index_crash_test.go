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

// ixFixture is the truth side of the index crash scenarios: an ordinary
// ledger over a healthy memory store. Only the sidecar's disk crashes —
// the invariant under test is that the index never needs its own
// durability to be correct, because the ledger can always re-derive it.
type ixFixture struct {
	t      *testing.T
	l      *ledger.Ledger
	dba    *sig.KeyPair
	client *sig.KeyPair
	nonce  uint64
}

func newIxFixture(t *testing.T) *ixFixture {
	t.Helper()
	f := &ixFixture{
		t:      t,
		dba:    sig.GenerateDeterministic("ixcrash/dba"),
		client: sig.GenerateDeterministic("ixcrash/client"),
	}
	clock := logicalclock.New(2_000_000)
	l, err := ledger.Open(ledger.Config{
		URI:           ixURI,
		FractalHeight: 3,
		BlockSize:     4,
		Clock:         clock.Tick,
		LSP:           sig.GenerateDeterministic("ixcrash/lsp"),
		DBA:           f.dba.Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.l = l
	t.Cleanup(func() { l.Close() })
	return f
}

func (f *ixFixture) append(clue string) {
	f.t.Helper()
	f.nonce++
	req := &journal.Request{
		LedgerURI: ixURI,
		Type:      journal.TypeNormal,
		Nonce:     f.nonce,
		Payload:   []byte(fmt.Sprintf("payload-%d", f.nonce)),
		Clues:     []string{clue},
	}
	if err := req.Sign(f.client); err != nil {
		f.t.Fatal(err)
	}
	if _, err := f.l.Append(req); err != nil {
		f.t.Fatal(err)
	}
}

func (f *ixFixture) purge(point uint64) {
	f.t.Helper()
	desc := &ledger.PurgeDescriptor{URI: ixURI, Point: point, ErasePayloads: true}
	ms := sig.NewMultiSig(desc.Digest())
	for _, kp := range []*sig.KeyPair{f.dba, f.client} {
		if err := ms.SignWith(kp); err != nil {
			f.t.Fatal(err)
		}
	}
	if _, err := f.l.Purge(desc, ms); err != nil {
		f.t.Fatal(err)
	}
}

// coldBytes is the reference: a from-scratch rebuild on a throwaway
// memory store, the pure function of the journal stream every crashed
// reopen must converge to.
func (f *ixFixture) coldBytes() []byte {
	f.t.Helper()
	ix, err := index.Open(f.l, streamfs.NewMemory())
	if err != nil {
		f.t.Fatal(err)
	}
	return ix.ProjectionBytes()
}

// ixStore opens the sidecar's disk-backed store over a faultfs image;
// tiny segments put segment headers in the crash path too.
func ixStore(d *faultfs.Disk) (streamfs.Store, error) {
	return streamfs.OpenDisk("index", streamfs.DiskOptions{SegmentSize: 128, SyncEvery: 2, FS: d})
}

// reopenConverged reopens the sidecar from a crashed image in the given
// mode and asserts full convergence: open succeeds, projections match
// the cold rebuild byte for byte, and the audit cross-check passes.
func (f *ixFixture) reopenConverged(d *faultfs.Disk, mode faultfs.CrashMode, cold []byte, ctx string) {
	f.t.Helper()
	img := d.Image(mode)
	store, err := ixStore(img)
	if err != nil {
		f.t.Fatalf("%s mode %d: reopen store: %v", ctx, mode, err)
	}
	ix, err := index.Open(f.l, store)
	if err != nil {
		f.t.Fatalf("%s mode %d: reopen index: %v", ctx, mode, err)
	}
	if got := ix.ProjectionBytes(); !bytes.Equal(got, cold) {
		f.t.Fatalf("%s mode %d: recovered projections (%d bytes) diverge from cold rebuild (%d bytes)",
			ctx, mode, len(got), len(cold))
	}
	if err := ix.CrossCheck(); err != nil {
		f.t.Fatalf("%s mode %d: cross-check after recovery: %v", ctx, mode, err)
	}
}

// TestIndexCrashMidRebuild kills the sidecar disk at byte-exact points
// while Open is rebuilding the index from the journal stream, then
// reopens from the frozen image in both crash modes. Whatever survived
// — torn entry frames, unsynced suffixes, nothing at all — the reopened
// index must converge to the cold rebuild's exact projection bytes.
func TestIndexCrashMidRebuild(t *testing.T) {
	f := newIxFixture(t)
	for i := 0; i < 18; i++ {
		f.append(fmt.Sprintf("inv/%02d", i%7))
	}
	f.append("hot")
	f.purge(8)
	f.append("hot") // resurrection: lineage purged, clue re-lives
	cold := f.coldBytes()

	// Dry run on a healthy disk to learn the rebuild's total byte count.
	dry := faultfs.NewDisk()
	store, err := ixStore(dry)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.Open(f.l, store); err != nil {
		t.Fatal(err)
	}
	total := dry.BytesWritten()
	if total == 0 {
		t.Fatal("rebuild wrote no bytes; crash points would never fire")
	}

	for _, mode := range []faultfs.CrashMode{faultfs.TornWrite, faultfs.DropUnsynced} {
		for _, cut := range []int64{1, total / 4, total / 2, 3 * total / 4, total - 1} {
			d := faultfs.NewDisk()
			d.CrashAtByte(cut)
			if store, err := ixStore(d); err == nil {
				if _, err := index.Open(f.l, store); err == nil {
					t.Fatalf("cut %d: rebuild survived an armed crash", cut)
				}
			}
			if !d.Crashed() {
				t.Fatalf("cut %d: disk never crashed", cut)
			}
			f.reopenConverged(d, mode, cold, fmt.Sprintf("rebuild cut %d", cut))
		}
	}
}

// TestIndexCrashMidTail crashes the sidecar while an already-warm index
// tails new journals (including a purge that truncates the entries log
// and a resurrected clue). The frozen image reopens into the same
// projection bytes as a cold rebuild of the final ledger.
func TestIndexCrashMidTail(t *testing.T) {
	f := newIxFixture(t)
	for i := 0; i < 10; i++ {
		f.append(fmt.Sprintf("inv/%02d", i%5))
	}
	f.append("doomed")

	// Warm one index per crash point BEFORE the stage-2 mutations, all
	// tailing the same ledger from their own sidecar disks.
	const points = 4
	disks := make([]*faultfs.Disk, points+1)
	warm := make([]*index.Index, points+1)
	marks := make([]int64, points+1)
	for k := range disks {
		disks[k] = faultfs.NewDisk()
		store, err := ixStore(disks[k])
		if err != nil {
			t.Fatal(err)
		}
		if warm[k], err = index.Open(f.l, store); err != nil {
			t.Fatal(err)
		}
		marks[k] = disks[k].BytesWritten()
	}

	// Stage 2: new appends, a purge (log truncation on the next sync),
	// and a resurrection.
	for i := 0; i < 8; i++ {
		f.append(fmt.Sprintf("post/%d", i))
	}
	f.purge(9)
	f.append("doomed")
	cold := f.coldBytes()

	// Dry tail on the spare warm index to learn the tail's byte count.
	if err := warm[points].Sync(); err != nil {
		t.Fatal(err)
	}
	tail := disks[points].BytesWritten() - marks[points]
	if tail == 0 {
		t.Fatal("tail wrote no bytes; crash points would never fire")
	}

	for k := 0; k < points; k++ {
		cut := marks[k] + int64(k+1)*tail/(points+1)
		disks[k].CrashAtByte(cut)
		if err := warm[k].Sync(); err == nil {
			t.Fatalf("point %d: tail sync survived an armed crash", k)
		}
		if !disks[k].Crashed() {
			t.Fatalf("point %d: disk never crashed", k)
		}
		mode := faultfs.TornWrite
		if k%2 == 1 {
			mode = faultfs.DropUnsynced
		}
		f.reopenConverged(disks[k], mode, cold, fmt.Sprintf("tail point %d", k))
	}
}

// TestIndexCrashBothStores cuts the power under the ledger AND its
// sidecar at once: both live on one disk image, the entries log flushing
// more often than the journal stream (SyncEvery 2 against 8), so a lost
// write cache leaves the log holding rows for jsns the ledger no longer
// has. The reopened ledger issues those jsns again, to different
// requests; an index that trusted the surplus rows would skip them at
// its watermark and answer with the dead ones. Whatever survives, in
// either crash model, the reopened pair must converge to the cold
// rebuild's projection bytes and a clean cross-check.
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
		ixs, err := ixStore(d)
		if err != nil {
			return nil, nil, err
		}
		ix, err := index.Open(l, ixs)
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

	sawAhead := false
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
			l.Close()

			img := d.Image(mode)
			// How far ahead of the recovered ledger did the log get? Look
			// on a copy: opening stores repairs their tails.
			peek := img.Image(faultfs.TornWrite)
			pl, _, err := open(peek)
			if err != nil {
				t.Fatalf("%s: reopen: %v", ctx, err)
			}
			recovered := pl.Size()
			pl.Close()
			if rows, err := ixStore(img.Image(faultfs.TornWrite)); err == nil {
				if log, err := rows.Stream("entries"); err == nil && log.Len() > recovered {
					sawAhead = true
				}
			}

			l, ix, err = open(img)
			if err != nil {
				t.Fatalf("%s: reopen: %v", ctx, err)
			}
			// The lost jsns come back as different requests.
			if err := workload(l, ix, "post", 10); err != nil {
				t.Fatalf("%s: appends after recovery: %v", ctx, err)
			}
			if err := ix.Sync(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			cold, err := index.Open(l, streamfs.NewMemory())
			if err != nil {
				t.Fatalf("%s: cold rebuild: %v", ctx, err)
			}
			if !bytes.Equal(ix.ProjectionBytes(), cold.ProjectionBytes()) {
				t.Fatalf("%s: recovered projections diverge from the cold rebuild of the %d-journal ledger (recovered at %d)",
					ctx, l.Size(), recovered)
			}
			if err := ix.CrossCheck(); err != nil {
				t.Fatalf("%s: cross-check: %v", ctx, err)
			}
			l.Close()
		}
	}
	if !sawAhead {
		t.Fatal("no crash left the entries log ahead of the ledger; the scenario under test never ran")
	}
}
