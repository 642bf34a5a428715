package crashtest

import (
	"errors"
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
	"ledgerdb/internal/tsa"
)

const uri = "ledger://crash-torture"

// durableObs is the parity expectation recorded at a moment when every
// written byte was covered by a successful fsync (disk.AllSynced): the
// reopened ledger must reproduce exactly this prefix, whichever crash
// mode hits afterwards.
type durableObs struct {
	size, base, height uint64
	state              ledger.SignedState
}

// harness owns one torture iteration: a ledger over a faultfs image, a
// seeded PRNG driving the workload, and the latest durable observation.
type harness struct {
	t     *testing.T
	rng   *rand.Rand
	repro string

	clock  *logicalclock.Clock
	stamp  *tsa.Authority
	lsp    *sig.KeyPair
	dba    *sig.KeyPair
	client *sig.KeyPair
	// memBlobs, when set, replaces the payload log on the disk image with
	// a memory store that survives every "crash": the byte-offset
	// regressions use it to keep their write traces free of payload bytes.
	memBlobs streamfs.BlobStore

	disk *faultfs.Disk
	l    *ledger.Ledger

	segSize   int64
	blobSeg   int64
	diskSync  int
	cfgSync   int
	blockSize int

	nonce   uint64
	normals []uint64 // receipts of normal journals, targets for occult/purge survivors
	durable *durableObs
}

var clueNames = []string{"supply", "invoice", "audit-trail", "kyc"}

func (h *harness) fatalf(format string, args ...interface{}) {
	h.t.Helper()
	h.t.Fatalf("%s\n%s", fmt.Sprintf(format, args...), h.repro)
}

func newHarness(t *testing.T, rng *rand.Rand, repro string) *harness {
	h := &harness{
		t:      t,
		rng:    rng,
		repro:  repro,
		clock:  logicalclock.New(1_000_000),
		lsp:    sig.GenerateDeterministic("crashtest/lsp"),
		dba:    sig.GenerateDeterministic("crashtest/dba"),
		client: sig.GenerateDeterministic("crashtest/client"),
		disk:   faultfs.NewDisk(),
		// Small segments force frequent rollovers so the crash cut lands
		// on segment headers, not just record frames — and, in the payload
		// log, so that erasures rewrite sealed, active and emptied segments.
		segSize:   int64(96 + 96*rng.Intn(4)),
		blobSeg:   int64(64 + 64*rng.Intn(4)),
		diskSync:  rng.Intn(3),
		cfgSync:   rng.Intn(4),
		blockSize: 3 + rng.Intn(4),
	}
	h.stamp = tsa.New("crashtest-tsa", tsa.Options{Clock: h.clock.Now})
	var err error
	h.l, err = h.open(h.disk)
	if err != nil {
		h.fatalf("initial open: %v", err)
	}
	return h
}

func (h *harness) config(store streamfs.Store, blobs streamfs.BlobStore) ledger.Config {
	return ledger.Config{
		URI:           uri,
		FractalHeight: 3,
		BlockSize:     h.blockSize,
		Clock:         h.clock.Tick,
		LSP:           h.lsp,
		DBA:           h.dba.Public(),
		Store:         store,
		Blobs:         blobs,
		SyncEvery:     h.cfgSync,
	}
}

func (h *harness) open(d *faultfs.Disk) (*ledger.Ledger, error) {
	store, err := streamfs.OpenDisk("streams", streamfs.DiskOptions{
		SegmentSize: h.segSize, SyncEvery: h.diskSync, FS: d,
	})
	if err != nil {
		return nil, err
	}
	blobs := h.memBlobs
	if blobs == nil {
		// The payload log shares the image with the streams, so one crash
		// point cuts both and each crash model reopens its own copy.
		if blobs, err = streamfs.OpenDiskBlobsOn(d, "blobs", h.blobSeg); err != nil {
			return nil, err
		}
	}
	return ledger.Open(h.config(store, blobs))
}

// benign errors are legitimate business rejections the random workload
// provokes (purge point out of range, double occult, missing clue, ...);
// anything else while the disk is healthy is a harness failure.
func benign(err error) bool {
	return errors.Is(err, ledger.ErrNotFound) ||
		errors.Is(err, ledger.ErrNotPermitted) ||
		errors.Is(err, ledger.ErrPurged) ||
		errors.Is(err, ledger.ErrOcculted)
}

// step runs one weighted workload operation. It returns false once the
// disk has crashed.
func (h *harness) step() bool {
	var err error
	switch n := h.rng.Intn(100); {
	case n < 55:
		err = h.appendNormal(h.l)
	case n < 65:
		_, err = h.l.CutBlock()
	case n < 72:
		_, err = h.l.AnchorTimeWith(h.stamp.Stamp)
	case n < 80:
		err = h.occult()
	case n < 85:
		err = h.occultClue()
	case n < 91:
		err = h.purge()
	case n < 95:
		_, err = h.l.Reorganize()
	default:
		err = h.l.Sync()
	}
	if h.disk.Crashed() {
		return false
	}
	if err != nil && !benign(err) {
		h.fatalf("workload op failed on healthy disk: %v", err)
	}
	h.observe()
	return true
}

func (h *harness) appendNormal(l *ledger.Ledger) error {
	h.nonce++
	req := &journal.Request{LedgerURI: uri, Type: journal.TypeNormal, Nonce: h.nonce}
	if h.rng.Intn(100) < 70 {
		req.Clues = []string{clueNames[h.rng.Intn(len(clueNames))]}
		if extra := clueNames[h.rng.Intn(len(clueNames))]; h.rng.Intn(4) == 0 && extra != req.Clues[0] {
			req.Clues = append(req.Clues, extra)
		}
	}
	if h.rng.Intn(100) < 30 {
		req.StateKey = []byte(fmt.Sprintf("acct-%d", h.rng.Intn(5)))
	}
	if h.rng.Intn(100) < 10 {
		req.Payload = []byte("shared-payload") // content-addressed: exercises blob refcounts
	} else {
		req.Payload = []byte(fmt.Sprintf("payload-%d", h.nonce))
	}
	if err := req.Sign(h.client); err != nil {
		return err
	}
	rcpt, err := l.Append(req)
	if err != nil {
		return err
	}
	h.normals = append(h.normals, rcpt.JSN)
	return nil
}

func (h *harness) occult() error {
	if len(h.normals) == 0 {
		return nil
	}
	desc := &ledger.OccultDescriptor{
		URI:   uri,
		JSN:   h.normals[h.rng.Intn(len(h.normals))],
		Async: h.rng.Intn(2) == 0,
	}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(h.dba); err != nil {
		return err
	}
	_, err := h.l.Occult(desc, ms)
	return err
}

func (h *harness) occultClue() error {
	desc := &ledger.OccultClueDescriptor{URI: uri, Clue: clueNames[h.rng.Intn(len(clueNames))]}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(h.dba); err != nil {
		return err
	}
	_, err := h.l.OccultClue(desc.Clue, ms)
	return err
}

func (h *harness) purge() error {
	base, size := h.l.Base(), h.l.Size()
	if size-base < 6 {
		return nil
	}
	desc := &ledger.PurgeDescriptor{
		URI:           uri,
		Point:         base + 1 + uint64(h.rng.Intn(int(size-base-1))),
		ErasePayloads: h.rng.Intn(2) == 0,
	}
	for _, jsn := range h.normals {
		if jsn >= base && jsn < desc.Point && len(desc.Survivors) < 2 && h.rng.Intn(3) == 0 {
			desc.Survivors = append(desc.Survivors, jsn)
		}
	}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(h.dba); err != nil {
		return err
	}
	if err := ms.SignWith(h.client); err != nil {
		return err
	}
	_, err := h.l.Purge(desc, ms)
	return err
}

// observe records the parity expectation whenever the image is fully
// durable: a crash at any later point must preserve at least this state.
func (h *harness) observe() {
	if h.disk.Crashed() || !h.disk.AllSynced() {
		return
	}
	st, err := h.l.State()
	if err != nil {
		h.fatalf("signed state at durable point: %v", err)
	}
	h.durable = &durableObs{size: h.l.Size(), base: h.l.Base(), height: h.l.Height(), state: *st}
}

// verifyRecovered reopens a fresh store over the frozen image in the
// given crash mode and checks the three torture invariants.
func (h *harness) verifyRecovered(mode faultfs.CrashMode) {
	img := h.disk.Image(mode)
	l2, err := h.open(img)
	if err != nil {
		h.fatalf("reopen after crash (mode %d): %v", mode, err)
	}
	if d := h.durable; d != nil {
		// (a) Every journal up to the last synced commit point survived.
		if l2.Size() < d.size {
			h.fatalf("mode %d: recovered size %d < durable size %d", mode, l2.Size(), d.size)
		}
		if l2.Base() < d.base {
			h.fatalf("mode %d: recovered base %d < durable base %d", mode, l2.Base(), d.base)
		}
		if l2.Height() < d.height {
			h.fatalf("mode %d: recovered height %d < durable height %d", mode, l2.Height(), d.height)
		}
		// (b) Byte-identical fam root for the durable prefix; full
		// LedgerInfo parity when the crash lost nothing beyond it.
		root, err := l2.FamRootAt(d.size)
		if err != nil {
			h.fatalf("mode %d: fam root at durable size %d: %v", mode, d.size, err)
		}
		if root != d.state.JournalRoot {
			h.fatalf("mode %d: fam root diverged at durable size %d:\n  recorded %x\n  recovered %x",
				mode, d.size, d.state.JournalRoot, root)
		}
		if l2.Size() == d.size && l2.Base() == d.base {
			st2, err := l2.State()
			if err != nil {
				h.fatalf("mode %d: recovered state: %v", mode, err)
			}
			if st2.JSN != d.state.JSN || st2.JournalRoot != d.state.JournalRoot ||
				st2.ClueRoot != d.state.ClueRoot || st2.StateRoot != d.state.StateRoot {
				h.fatalf("mode %d: LedgerInfo diverged at size %d:\n  recorded  jsn=%d fam=%x clue=%x state=%x\n  recovered jsn=%d fam=%x clue=%x state=%x",
					mode, d.size,
					d.state.JSN, d.state.JournalRoot, d.state.ClueRoot, d.state.StateRoot,
					st2.JSN, st2.JournalRoot, st2.ClueRoot, st2.StateRoot)
			}
		}
	}
	// Every surviving journal must be readable (no torn frames, no gaps).
	for jsn := l2.Base(); jsn < l2.Size(); jsn++ {
		if _, err := l2.GetJournal(jsn); err != nil {
			h.fatalf("mode %d: journal %d unreadable after recovery: %v", mode, jsn, err)
		}
	}
	// Every payload acknowledged before the last flush point survived and
	// still hashes to its journal's digest (GetPayload checks that); only
	// occult and purge may have taken it since.
	if d := h.durable; d != nil {
		for jsn := l2.Base(); jsn < d.size; jsn++ {
			rec, _ := l2.GetJournal(jsn)
			if rec.Type != journal.TypeNormal || rec.Occulted {
				continue
			}
			if _, err := l2.GetPayload(jsn); err != nil {
				h.fatalf("mode %d: payload of durable journal %d: %v", mode, jsn, err)
			}
		}
	}
	// (c) The recovered ledger passes a full Dasein audit, payloads
	// included — also past the last flush point: whichever way a journal
	// reached the disk (the group flush, or the stream's own segment-seal
	// and DiskOptions.SyncEvery flushes), its payload got there first.
	if _, err := audit.Audit(l2, nil, audit.Config{
		LSP:            h.lsp.Public(),
		DBA:            h.dba.Public(),
		TrustedTSA:     []sig.PublicKey{h.stamp.Public()},
		CheckPayloads:  true,
		CheckClueRoots: true,
	}); err != nil {
		h.fatalf("mode %d: audit after recovery: %v", mode, err)
	}
	// And it must accept new work: recovery may not leave it poisoned.
	if err := h.appendNormal(l2); err != nil {
		h.fatalf("mode %d: append after recovery: %v", mode, err)
	}
}

func runIteration(t *testing.T, seed int64, iter int) {
	rng := rand.New(rand.NewSource(seed + int64(iter)*1_000_003))
	repro := fmt.Sprintf("repro: CRASHTEST_SEED=%d CRASHTEST_ITER=%d go test -run TestCrashRecoveryTorture ./internal/integration/crashtest", seed, iter)
	h := newHarness(t, rng, repro)
	h.observe() // genesis is a durable commit point

	// Arm the crash: usually a byte-exact cut somewhere in the upcoming
	// writes (it can land mid-frame, mid-header, or between a write and
	// its fsync), sometimes an op-count freeze instead.
	crashAfterOps := -1
	if rng.Intn(5) == 0 {
		crashAfterOps = 1 + rng.Intn(50)
	} else {
		h.disk.CrashAtByte(h.disk.BytesWritten() + 1 + rng.Int63n(3000))
	}

	for op := 0; op < 60; op++ {
		if !h.step() {
			break
		}
		if crashAfterOps >= 0 && op >= crashAfterOps {
			h.disk.CrashNow()
			break
		}
	}
	if !h.disk.Crashed() {
		h.disk.CrashNow() // the armed byte offset was beyond this workload
	}

	// Verify both crash models from the same frozen image.
	h.verifyRecovered(faultfs.TornWrite)
	h.verifyRecovered(faultfs.DropUnsynced)
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// TestCrashRecoveryTorture runs randomized crash points (500 by default,
// CRASHTEST_ITERS overrides; each iteration verifies two crash models).
// CRASHTEST_SEED pins the PRNG, CRASHTEST_ITER replays one failing
// iteration from a repro line.
func TestCrashRecoveryTorture(t *testing.T) {
	seed := int64(envInt("CRASHTEST_SEED", 0xC0FFEE))
	if s := os.Getenv("CRASHTEST_ITER"); s != "" {
		iter, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CRASHTEST_ITER %q", s)
		}
		runIteration(t, seed, iter)
		return
	}
	iters := envInt("CRASHTEST_ITERS", 500)
	if testing.Short() {
		iters = 60
	}
	const shards = 8
	perShard := (iters + shards - 1) / shards
	for s := 0; s < shards; s++ {
		first, last := s*perShard, (s+1)*perShard
		if last > iters {
			last = iters
		}
		if first >= last {
			break
		}
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for i := first; i < last; i++ {
				runIteration(t, seed, i)
			}
		})
	}
}
