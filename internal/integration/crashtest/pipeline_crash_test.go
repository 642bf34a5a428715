package crashtest

// Crash coverage for the coalesced group-fsync schedule: with
// Config.PipelineDepth set, a pipelined group spanning several block
// cuts issues ONE commit-order sync pass at the group end instead of
// one per cut. These tests crash the disk between those coalesced
// syncs — at byte-exact offsets, under both crash models — and prove
// the commit-point contract is unchanged: no receipt accepted before a
// durable point is ever lost, the recovered prefix is byte-identical,
// and recovery ordering (survival→journal→digest→block) still yields a
// ledger that passes a full audit and accepts new work.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ledgerdb/internal/audit"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/streamfs/faultfs"
)

const pipeURI = "ledger://pipeline-crash"

// durableReceipt is one accepted acknowledgement covered by a successful
// Sync: jsn plus the tx-hash the acknowledgement committed to.
type durableReceipt struct {
	jsn    uint64
	txHash [32]byte
}

type pipeHarness struct {
	t     *testing.T
	rng   *rand.Rand
	repro string

	clock  *logicalclock.Clock
	lsp    *sig.KeyPair
	dba    *sig.KeyPair
	client *sig.KeyPair
	disk   *faultfs.Disk
	l      *ledger.Ledger

	segSize     int64
	blobSeg     int64
	blockSize   int
	cfgSync     int
	verifyBatch int

	nonce uint64

	// accepted receipts since the last durable point; promoted into
	// durable on a successful Sync.
	pending []durableReceipt
	durable []durableReceipt
	durSize uint64
	durRoot [32]byte
	haveObs bool
}

func (h *pipeHarness) fatalf(format string, args ...interface{}) {
	h.t.Helper()
	h.t.Fatalf("%s\n%s", fmt.Sprintf(format, args...), h.repro)
}

func newPipeHarness(t *testing.T, rng *rand.Rand, repro string) *pipeHarness {
	h := &pipeHarness{
		t:      t,
		rng:    rng,
		repro:  repro,
		clock:  logicalclock.New(2_000_000),
		lsp:    sig.GenerateDeterministic("pipecrash/lsp"),
		dba:    sig.GenerateDeterministic("pipecrash/dba"),
		client: sig.GenerateDeterministic("pipecrash/client"),
		disk:   faultfs.NewDisk(),
		// Small segments so the crash cut lands on rollovers too — of the
		// streams and of the payload log, which shares the image: the cut
		// hits admission's Puts and the payload flush that now leads every
		// group sync as readily as the stream writes.
		segSize:     int64(96 + 96*rng.Intn(4)),
		blobSeg:     int64(64 + 64*rng.Intn(4)),
		blockSize:   3 + rng.Intn(4),
		cfgSync:     rng.Intn(4),
		verifyBatch: []int{0, 8}[rng.Intn(2)],
	}
	var err error
	h.l, err = h.open(h.disk)
	if err != nil {
		h.fatalf("initial open: %v", err)
	}
	return h
}

func (h *pipeHarness) open(d *faultfs.Disk) (*ledger.Ledger, error) {
	store, err := streamfs.OpenDisk("streams", streamfs.DiskOptions{
		SegmentSize: h.segSize, FS: d,
	})
	if err != nil {
		return nil, err
	}
	blobs, err := streamfs.OpenDiskBlobsOn(d, "blobs", h.blobSeg)
	if err != nil {
		return nil, err
	}
	return ledger.Open(ledger.Config{
		URI:           pipeURI,
		FractalHeight: 3,
		BlockSize:     h.blockSize,
		Clock:         h.clock.Tick,
		LSP:           h.lsp,
		DBA:           h.dba.Public(),
		Store:         store,
		Blobs:         blobs,
		SyncEvery:     h.cfgSync,
		PipelineDepth: 4,
		VerifyBatch:   h.verifyBatch,
		VerifyWorkers: 2,
	})
}

func (h *pipeHarness) request(payload string) *journal.Request {
	h.nonce++
	req := &journal.Request{
		LedgerURI: pipeURI,
		Type:      journal.TypeNormal,
		Payload:   []byte(payload),
		Nonce:     h.nonce,
	}
	if err := req.Sign(h.client); err != nil {
		h.fatalf("sign: %v", err)
	}
	return req
}

// appendOne pushes a single journal through the pipeline. Successful
// acknowledgements are recorded as pending receipts.
func (h *pipeHarness) appendOne() error {
	rcpt, err := h.l.Append(h.request(fmt.Sprintf("pc-%d", h.nonce+1)))
	if err != nil {
		return err
	}
	h.pending = append(h.pending, durableReceipt{jsn: rcpt.JSN, txHash: rcpt.TxHash})
	return nil
}

// appendBatch pushes one batch spanning up to several block cuts — a
// single commit unit, hence a single pipelined group whose block-cut
// syncs all coalesce into one group-end pass. This is the path the
// crash must not be able to tear apart.
func (h *pipeHarness) appendBatch(blocks int) error {
	n := blocks * h.blockSize
	reqs := make([]*journal.Request, n)
	for i := range reqs {
		reqs[i] = h.request(fmt.Sprintf("pcb-%d", h.nonce+1))
	}
	br, txHashes, err := h.l.AppendBatch(reqs)
	if err != nil {
		return err
	}
	if err := br.Verify(h.lsp.Public(), txHashes); err != nil {
		h.fatalf("batch receipt does not verify on healthy disk: %v", err)
	}
	for i, txh := range txHashes {
		h.pending = append(h.pending, durableReceipt{jsn: br.FirstJSN + uint64(i), txHash: txh})
	}
	return nil
}

// syncAndObserve forces durability and promotes every pending receipt:
// from here on, no crash may lose them.
func (h *pipeHarness) syncAndObserve() error {
	if err := h.l.Sync(); err != nil {
		return err
	}
	if h.disk.Crashed() || !h.disk.AllSynced() {
		return nil
	}
	st, err := h.l.State()
	if err != nil {
		h.fatalf("signed state at durable point: %v", err)
	}
	h.durable = append(h.durable, h.pending...)
	h.pending = h.pending[:0]
	h.durSize = h.l.Size()
	h.durRoot = st.JournalRoot
	h.haveObs = true
	return nil
}

// verifyRecovered reopens the frozen image in the given crash mode and
// checks the coalesced-sync invariants.
func (h *pipeHarness) verifyRecovered(mode faultfs.CrashMode) {
	img := h.disk.Image(mode)
	l2, err := h.open(img)
	if err != nil {
		h.fatalf("reopen after crash (mode %d): %v", mode, err)
	}
	defer l2.Close()
	if h.haveObs {
		if l2.Size() < h.durSize {
			h.fatalf("mode %d: recovered size %d < durable size %d", mode, l2.Size(), h.durSize)
		}
		root, err := l2.FamRootAt(h.durSize)
		if err != nil {
			h.fatalf("mode %d: fam root at durable size %d: %v", mode, h.durSize, err)
		}
		if root != h.durRoot {
			h.fatalf("mode %d: fam root diverged at durable size %d", mode, h.durSize)
		}
	}
	// No accepted-and-durable receipt may be lost: the journal behind
	// every durable acknowledgement must still exist and carry exactly
	// the tx-hash the acknowledgement committed to.
	for _, dr := range h.durable {
		rec, err := l2.GetJournal(dr.jsn)
		if err != nil {
			h.fatalf("mode %d: durable receipt jsn %d unreadable: %v", mode, dr.jsn, err)
		}
		if rec.TxHash() != dr.txHash {
			h.fatalf("mode %d: durable receipt jsn %d tx-hash diverged", mode, dr.jsn)
		}
		// Nor its payload: the group flush makes payloads durable before
		// the journals that name them (GetPayload re-hashes the bytes).
		if _, err := l2.GetPayload(dr.jsn); err != nil {
			h.fatalf("mode %d: payload of durable receipt jsn %d: %v", mode, dr.jsn, err)
		}
	}
	// Every surviving journal is readable and the whole ledger passes a
	// full audit — recovery ordering (survival→journal→digest→block)
	// violated in any way would surface here as a gap or root mismatch.
	for jsn := l2.Base(); jsn < l2.Size(); jsn++ {
		if _, err := l2.GetJournal(jsn); err != nil {
			h.fatalf("mode %d: journal %d unreadable after recovery: %v", mode, jsn, err)
		}
	}
	if _, err := audit.Audit(l2, nil, audit.Config{
		LSP:           h.lsp.Public(),
		DBA:           h.dba.Public(),
		CheckPayloads: true,
	}); err != nil {
		h.fatalf("mode %d: audit after recovery: %v", mode, err)
	}
	// Liveness: the recovered (still pipelined) ledger accepts new work.
	rcpt, err := l2.Append(h.request("post-recovery"))
	if err != nil {
		h.fatalf("mode %d: append after recovery: %v", mode, err)
	}
	if err := rcpt.Verify(h.lsp.Public()); err != nil {
		h.fatalf("mode %d: post-recovery receipt: %v", mode, err)
	}
}

func runPipelineIteration(t *testing.T, seed int64, iter int) {
	rng := rand.New(rand.NewSource(seed + int64(iter)*7_777_777))
	repro := fmt.Sprintf("repro: PIPECRASH_SEED=%d PIPECRASH_ITER=%d go test -run TestPipelineCoalescedSyncCrash ./internal/integration/crashtest", seed, iter)
	h := newPipeHarness(t, rng, repro)

	// Phase 1 (healthy): build up state ending on a durable point.
	for op, ops := 0, 2+rng.Intn(4); op < ops; op++ {
		var err error
		if rng.Intn(2) == 0 {
			err = h.appendBatch(1 + rng.Intn(3))
		} else {
			err = h.appendOne()
		}
		if err != nil {
			h.fatalf("phase-1 op failed on healthy disk: %v", err)
		}
	}
	if err := h.syncAndObserve(); err != nil {
		h.fatalf("phase-1 sync: %v", err)
	}

	// Phase 2: arm a byte-exact crash inside the upcoming coalesced
	// writes, then keep pushing groups until it fires.
	h.disk.CrashAtByte(h.disk.BytesWritten() + 1 + rng.Int63n(4000))
	for op := 0; op < 40 && !h.disk.Crashed(); op++ {
		var err error
		switch n := rng.Intn(10); {
		case n < 5:
			err = h.appendBatch(1 + rng.Intn(3))
		case n < 9:
			err = h.appendOne()
		default:
			err = h.syncAndObserve()
		}
		if err != nil && !h.disk.Crashed() {
			h.fatalf("phase-2 op failed on healthy disk: %v", err)
		}
	}
	if !h.disk.Crashed() {
		h.disk.CrashNow()
	}
	h.l.Close() // drain the committer; stream flush errors are expected

	h.verifyRecovered(faultfs.TornWrite)
	h.verifyRecovered(faultfs.DropUnsynced)
}

// TestPipelineCoalescedSyncCrash crashes between coalesced group syncs
// (30 seeded iterations by default; each verifies both crash models).
// PIPECRASH_SEED pins the PRNG, PIPECRASH_ITER replays one iteration.
func TestPipelineCoalescedSyncCrash(t *testing.T) {
	seed := int64(envInt("PIPECRASH_SEED", 0xFADED))
	if s := os.Getenv("PIPECRASH_ITER"); s != "" {
		iter, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad PIPECRASH_ITER %q", s)
		}
		runPipelineIteration(t, seed, iter)
		return
	}
	iters := envInt("PIPECRASH_ITERS", 30)
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		runPipelineIteration(t, seed, i)
	}
}
