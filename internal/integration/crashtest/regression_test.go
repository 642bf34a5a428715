package crashtest

// Deterministic regression tests for the durability fixes, each built to
// fail on the pre-fix code via a faultfs failpoint:
//
//   - TestSerialCommitDurability: the serial (non-pipelined) commit path
//     must fsync at commit points. Before the fix it never synced, so a
//     DropUnsynced crash erased the whole ledger including genesis.
//   - TestPurgeRollForwardAfterCrash: a purge whose decision (purge
//     journal + pseudo genesis, synced) is durable but whose destructive
//     half was interrupted must be rolled forward on reopen.
//   - TestTornPurgeJournalStaysInert: a purge journal without its pseudo
//     genesis (crash mid-snapshot-write) must stay inert forever — no
//     truncation, base unchanged, audits still pass.
//   - TestSelfSyncedJournalKeepsItsPayload: a journal stream that flushes
//     on its own between commit points must flush the payload log first.
//     Before the fix a DropUnsynced crash kept such journals and dropped
//     their payloads, and the payload audit failed from then on.

import (
	"fmt"
	"math/rand"
	"testing"

	"ledgerdb/internal/audit"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/streamfs/faultfs"
)

// fixedRequest builds a deterministic client request (fixed clue, caller
// supplies payload and nonce) so twin runs produce identical byte traces.
func fixedRequest(payload string, nonce uint64) *journal.Request {
	return &journal.Request{
		LedgerURI: uri,
		Type:      journal.TypeNormal,
		Clues:     []string{"det"},
		Payload:   []byte(payload),
		Nonce:     nonce,
	}
}

// detHarness builds a non-random harness: fixed knobs, fixed workload,
// so byte offsets replay identically across runs within one test.
func detHarness(t *testing.T) *harness {
	h := newHarness(t, rand.New(rand.NewSource(1)), "deterministic regression (no repro seed)")
	h.segSize = 1 << 20 // no rollovers: keeps the write trace trivial
	h.diskSync, h.cfgSync = 0, 0
	return h
}

// detSetup opens a ledger with BlockSize 100 (no automatic cuts), runs
// six clue-tagged appends and one explicit block cut, and returns the
// harness ready for a purge at point 4 with survivor 2.
func detSetup(t *testing.T) (*harness, *ledger.PurgeDescriptor, *sig.MultiSig) {
	h := detHarness(t)
	h.blockSize = 100
	// The callers cut at offsets counted back from the purge's last
	// stream writes; keep the payload log's bytes out of that trace.
	h.memBlobs = streamfs.NewMemoryBlobs()
	var err error
	h.disk = faultfs.NewDisk()
	h.l, err = h.open(h.disk)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 6; i++ {
		h.nonce++
		if err := h.appendFixed(fmt.Sprintf("det-%d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := h.l.CutBlock(); err != nil {
		t.Fatalf("cut: %v", err)
	}
	desc := &ledger.PurgeDescriptor{URI: uri, Point: 4, Survivors: []uint64{2}, ErasePayloads: true}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(h.dba); err != nil {
		t.Fatal(err)
	}
	if err := ms.SignWith(h.client); err != nil {
		t.Fatal(err)
	}
	return h, desc, ms
}

// appendFixed appends one clue-tagged journal with a fixed-length
// payload, keeping the byte trace identical across runs.
func (h *harness) appendFixed(payload string) error {
	req := fixedRequest(payload, h.nonce)
	if err := req.Sign(h.client); err != nil {
		return err
	}
	_, err := h.l.Append(req)
	return err
}

func (h *harness) auditRecovered(l2 *ledger.Ledger) error {
	_, err := audit.Audit(l2, nil, audit.Config{
		LSP:           h.lsp.Public(),
		DBA:           h.dba.Public(),
		TrustedTSA:    []sig.PublicKey{h.stamp.Public()},
		CheckPayloads: true,
	})
	return err
}

// TestSerialCommitDurability: block cuts on the serial path are commit
// points and must leave the image fully synced; a power failure right
// after the cut (volatile cache dropped) must preserve the block and
// every journal it covers.
func TestSerialCommitDurability(t *testing.T) {
	h := detHarness(t)
	h.blockSize = 4
	var err error
	h.disk = faultfs.NewDisk()
	h.l, err = h.open(h.disk)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Genesis (jsn 0) + three appends = BlockSize journals: the third
	// append cuts block 0 automatically on the serial path.
	for i := 0; i < 3; i++ {
		h.nonce++
		if err := h.appendFixed(fmt.Sprintf("serial-%d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if h.l.Height() != 1 {
		t.Fatalf("expected automatic block cut, height %d", h.l.Height())
	}
	if !h.disk.AllSynced() {
		t.Fatalf("serial block cut is a commit point but left unsynced bytes on the image")
	}
	// One acknowledged-but-unsynced append beyond the commit point; it
	// is allowed (not required) to vanish in the crash.
	h.nonce++
	if err := h.appendFixed("serial-tail"); err != nil {
		t.Fatalf("tail append: %v", err)
	}
	h.disk.CrashNow()

	l2, err := h.open(h.disk.Image(faultfs.DropUnsynced))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Size() < 4 {
		t.Fatalf("recovered size %d, want >= 4 (genesis + 3 committed journals)", l2.Size())
	}
	if l2.Height() < 1 {
		t.Fatalf("recovered height %d, want >= 1: the cut block was lost", l2.Height())
	}
	for jsn := uint64(0); jsn < 4; jsn++ {
		if _, err := l2.GetJournal(jsn); err != nil {
			t.Fatalf("journal %d lost across the commit point: %v", jsn, err)
		}
	}
	if err := h.auditRecovered(l2); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestSelfSyncedJournalKeepsItsPayload: with DiskOptions.SyncEvery the
// journal stream makes records durable between the ledger's flush
// points. Every journal that survives a lost write cache that way must
// still have its payload.
func TestSelfSyncedJournalKeepsItsPayload(t *testing.T) {
	h := detHarness(t)
	h.blockSize = 100 // no commit point after genesis
	h.diskSync = 2    // the streams flush themselves every other append
	var err error
	h.disk = faultfs.NewDisk()
	if h.l, err = h.open(h.disk); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		h.nonce++
		if err := h.appendFixed(fmt.Sprintf("window-%d", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	h.disk.CrashNow()

	l2, err := h.open(h.disk.Image(faultfs.DropUnsynced))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Size() < 3 {
		t.Fatalf("recovered size %d: the stream's own flushes should have kept window journals, or this test checks nothing", l2.Size())
	}
	for jsn := uint64(1); jsn < l2.Size(); jsn++ {
		if _, err := l2.GetPayload(jsn); err != nil {
			t.Fatalf("journal %d is durable but its payload is not: %v", jsn, err)
		}
	}
	if err := h.auditRecovered(l2); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestPurgeRollForwardAfterCrash crashes inside the purge's destructive
// half — after the decision sync, during the base-meta write — and
// expects reopen to roll the purge forward to its decided state. The
// crash offset comes from a clean twin run: traces are deterministic
// (fixed-size signatures, logical clock), so the byte counts replay.
func TestPurgeRollForwardAfterCrash(t *testing.T) {
	// Twin run 1: clean purge, measuring the write trace.
	ha, descA, msA := detSetup(t)
	before := ha.disk.BytesWritten()
	if _, err := ha.l.Purge(descA, msA); err != nil {
		t.Fatalf("clean purge: %v", err)
	}
	after := ha.disk.BytesWritten()

	// Twin run 2: crash one byte short of the purge's final write (the
	// 12-byte base-meta tmp file, written after the decision sync).
	hb, descB, msB := detSetup(t)
	if got := hb.disk.BytesWritten(); got != before {
		t.Fatalf("nondeterministic write trace: twin runs diverge (%d vs %d bytes)", got, before)
	}
	hb.disk.CrashAtByte(after - 1)
	if _, err := hb.l.Purge(descB, msB); err == nil {
		t.Fatalf("purge succeeded despite crash during truncation")
	}
	if !hb.disk.Crashed() {
		t.Fatalf("crash offset missed the purge's write trace")
	}

	l2, err := hb.open(hb.disk.Image(faultfs.TornWrite))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Base() != descB.Point {
		t.Fatalf("recovered base %d: decided purge (point %d) was not rolled forward", l2.Base(), descB.Point)
	}
	if _, err := l2.GetJournal(3); err == nil {
		t.Fatalf("journal 3 still readable after rolled-forward purge")
	}
	survivors, err := l2.Survivors()
	if err != nil {
		t.Fatalf("survivors: %v", err)
	}
	found := false
	for _, rec := range survivors {
		if rec.JSN == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("survivor journal 2 missing after roll-forward (%d survivors)", len(survivors))
	}
	if err := h2Usable(l2, hb); err != nil {
		t.Fatalf("ledger unusable after roll-forward: %v", err)
	}
	if err := hb.auditRecovered(l2); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestTornPurgeJournalStaysInert crashes while the pseudo-genesis
// snapshot is being written: the purge journal lands on disk but its
// pseudo genesis does not, so the decision never happened. Reopen must
// keep the full journal prefix, never truncate, and still audit clean.
func TestTornPurgeJournalStaysInert(t *testing.T) {
	ha, descA, msA := detSetup(t)
	before := ha.disk.BytesWritten()
	if _, err := ha.l.Purge(descA, msA); err != nil {
		t.Fatalf("clean purge: %v", err)
	}
	after := ha.disk.BytesWritten()

	// The purge's trailing writes are, in order: the pseudo-genesis
	// journal frame, its 40-byte digest frame, and the 12-byte base
	// meta. Cutting 4 bytes before the digest frame lands inside the
	// pseudo-genesis frame (its snapshot is far larger than 4 bytes),
	// before the decision sync could run.
	hb, descB, msB := detSetup(t)
	if got := hb.disk.BytesWritten(); got != before {
		t.Fatalf("nondeterministic write trace: twin runs diverge (%d vs %d bytes)", got, before)
	}
	hb.disk.CrashAtByte(after - 12 - 40 - 4)
	if _, err := hb.l.Purge(descB, msB); err == nil {
		t.Fatalf("purge succeeded despite crash during pseudo-genesis write")
	}

	l2, err := hb.open(hb.disk.Image(faultfs.TornWrite))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Base() != 0 {
		t.Fatalf("recovered base %d: an undecided purge must never truncate", l2.Base())
	}
	for jsn := uint64(0); jsn < 7; jsn++ {
		if _, err := l2.GetJournal(jsn); err != nil {
			t.Fatalf("journal %d unreadable under inert purge journal: %v", jsn, err)
		}
	}
	if err := h2Usable(l2, hb); err != nil {
		t.Fatalf("ledger unusable under inert purge journal: %v", err)
	}
	if err := hb.auditRecovered(l2); err != nil {
		t.Fatalf("audit with inert purge journal: %v", err)
	}
}

// h2Usable proves the recovered ledger accepts new work.
func h2Usable(l2 *ledger.Ledger, h *harness) error {
	h.nonce++
	req := fixedRequest("post-recovery", h.nonce)
	if err := req.Sign(h.client); err != nil {
		return err
	}
	_, err := l2.Append(req)
	return err
}
