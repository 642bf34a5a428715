package crashtest

// Crash coverage for the payload log (streamfs.OpenDiskBlobs) under a
// real ledger. The two randomized tortures (crash_test.go,
// pipeline_crash_test.go) already run over it — the log shares their
// disk image — at random offsets. The sweeps here are exhaustive over
// measured ranges instead: a clean twin run measures the byte range an
// operation writes, then the operation is replayed with a crash armed at
// every stride-th byte of that range, and each frozen image is reopened
// under both crash models. They cover admission's Put and the payload
// flush that leads every group sync (the pipelined append sweep), and the
// erasure rewrite behind a purge and a synchronous occult.
//
// Invariants: a journal acknowledged before a flush point still returns a
// payload that hashes to its digest; a torn payload frame is gone (the
// log reopens, audits, and takes new work); an interrupted erasure is
// either not decided — every payload still served — or rolled forward by
// recovery, with the erased bytes in no file of the image.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs/faultfs"
)

// sweepStride thins a sweep over n byte offsets to about 200 crash
// points (60 with -short); PAYLOADCRASH_STRIDE pins it, 1 for every byte.
func sweepStride(n int64) int64 {
	points := int64(200)
	if testing.Short() {
		points = 60
	}
	return int64(envInt("PAYLOADCRASH_STRIDE", int(max(1, n/points))))
}

// payloadOnDisk reports whether any file of the payload log holds p.
func payloadOnDisk(t *testing.T, d *faultfs.Disk, p []byte) bool {
	t.Helper()
	files, err := d.Glob("blobs/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := d.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, p) {
			return true
		}
	}
	return false
}

// TestPayloadCrashSweepPipelinedAppend crashes a pipelined ledger at
// measured offsets across single appends, multi-block batches and an
// explicit flush: the bytes cut are payload frames, payload-segment
// headers, stream records, and everything between a group's payload
// flush and its stream flushes.
func TestPayloadCrashSweepPipelinedAppend(t *testing.T) {
	const seed = 20240914
	build := func() *pipeHarness {
		h := newPipeHarness(t, rand.New(rand.NewSource(seed)), fmt.Sprintf("pipelined append sweep, seed %d", seed))
		for i := 0; i < 3; i++ {
			if err := h.appendOne(); err != nil {
				h.fatalf("phase-1 append: %v", err)
			}
		}
		if err := h.syncAndObserve(); err != nil {
			h.fatalf("phase-1 sync: %v", err)
		}
		return h
	}
	workload := func(h *pipeHarness) {
		steps := []func() error{
			h.appendOne, h.appendOne,
			func() error { return h.appendBatch(2) },
			h.syncAndObserve,
			h.appendOne,
			func() error { return h.appendBatch(1) },
			h.appendOne,
		}
		for _, step := range steps {
			if err := step(); err != nil {
				if !h.disk.Crashed() {
					h.fatalf("workload step failed on healthy disk: %v", err)
				}
				return
			}
		}
	}
	probe := build()
	from := probe.disk.BytesWritten()
	workload(probe)
	to := probe.disk.BytesWritten()
	probe.l.Close()
	if probe.disk.Crashed() || to <= from {
		t.Fatalf("probe run wrote bytes [%d,%d)", from, to)
	}
	for cut, stride := from, sweepStride(to-from); cut <= to; cut += stride {
		h := build()
		if got := h.disk.BytesWritten(); got != from {
			t.Fatalf("nondeterministic write trace: twin runs diverge (%d vs %d bytes)", got, from)
		}
		h.repro = fmt.Sprintf("pipelined append sweep: crash at byte %d of [%d,%d]", cut, from, to)
		h.disk.CrashAtByte(cut)
		workload(h)
		if !h.disk.Crashed() {
			h.disk.CrashNow()
		}
		h.l.Close()
		h.verifyRecovered(faultfs.TornWrite)
		h.verifyRecovered(faultfs.DropUnsynced)
	}
}

// erasureHarness is a deterministic, sequentially written ledger over
// the payload log: genesis plus ten journals whose 40-byte payloads
// spread over several 160-byte payload segments, all flushed.
func erasureHarness(t *testing.T) (*harness, [][]byte) {
	h := detHarness(t)
	h.blockSize = 100
	h.blobSeg = 160
	var err error
	h.disk = faultfs.NewDisk()
	if h.l, err = h.open(h.disk); err != nil {
		t.Fatalf("open: %v", err)
	}
	payloads := [][]byte{nil} // indexed by jsn; genesis is not ours
	for i := 1; i <= 10; i++ {
		p := fmt.Sprintf("<erase-me-%02d>%s", i, "0123456789abcdefghijklmnop"[:26])
		payloads = append(payloads, []byte(p))
		h.nonce++
		if err := h.appendFixed(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := h.l.CutBlock(); err != nil {
		t.Fatalf("cut: %v", err)
	}
	if files, _ := h.disk.Glob("blobs/payload.seg.*"); len(files) < 3 {
		t.Fatalf("payload log has %d segments, the sweep wants sealed ones and an active one", len(files))
	}
	return h, payloads
}

// sweepErasure measures op on a clean twin, replays it with a crash at
// every stride-th byte of its range, and hands each recovered ledger
// (with its image) to check.
func sweepErasure(t *testing.T, op func(h *harness) error,
	check func(t *testing.T, h *harness, payloads [][]byte, l2 *ledger.Ledger, img *faultfs.Disk)) {
	probe, _ := erasureHarness(t)
	from := probe.disk.BytesWritten()
	if err := op(probe); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	to := probe.disk.BytesWritten()
	for cut, stride := from, sweepStride(to-from); cut <= to; cut += stride {
		h, payloads := erasureHarness(t)
		if got := h.disk.BytesWritten(); got != from {
			t.Fatalf("nondeterministic write trace: twin runs diverge (%d vs %d bytes)", got, from)
		}
		h.disk.CrashAtByte(cut)
		op(h)
		if !h.disk.Crashed() {
			h.disk.CrashNow()
		}
		for _, mode := range []faultfs.CrashMode{faultfs.TornWrite, faultfs.DropUnsynced} {
			img := h.disk.Image(mode)
			h.repro = fmt.Sprintf("erasure sweep: crash at byte %d of [%d,%d], mode %d", cut, from, to, mode)
			l2, err := h.open(img)
			if err != nil {
				h.fatalf("reopen: %v", err)
			}
			if files, _ := img.Glob("blobs/*.tmp"); len(files) != 0 {
				h.fatalf("erasure staging file survived recovery: %v", files)
			}
			check(t, h, payloads, l2, img)
			if err := h.auditRecovered(l2); err != nil {
				h.fatalf("audit: %v", err)
			}
			if err := h2Usable(l2, h); err != nil {
				h.fatalf("append after recovery: %v", err)
			}
		}
	}
}

// TestPayloadCrashSweepPurgeErasure: a purge that erases payloads in
// three payload segments. Undecided, it leaves every payload served;
// decided, recovery finishes it and the purged bytes are gone from disk.
func TestPayloadCrashSweepPurgeErasure(t *testing.T) {
	const point, survivor = 8, 3
	sweepErasure(t,
		func(h *harness) error {
			desc := &ledger.PurgeDescriptor{URI: uri, Point: point, Survivors: []uint64{survivor}, ErasePayloads: true}
			ms := sig.NewMultiSig(desc.Digest())
			if err := ms.SignWith(h.dba); err != nil {
				return err
			}
			if err := ms.SignWith(h.client); err != nil {
				return err
			}
			_, err := h.l.Purge(desc, ms)
			return err
		},
		func(t *testing.T, h *harness, payloads [][]byte, l2 *ledger.Ledger, img *faultfs.Disk) {
			decided := l2.Base() == point
			if !decided && l2.Base() != 0 {
				h.fatalf("recovered base %d, want 0 or %d", l2.Base(), point)
			}
			for jsn := uint64(1); jsn < uint64(len(payloads)); jsn++ {
				switch {
				case decided && jsn < point && jsn != survivor:
					if payloadOnDisk(t, img, payloads[jsn]) {
						h.fatalf("purge rolled forward but payload of journal %d is still on disk", jsn)
					}
				case decided && jsn < point:
					// The survivor's record moved to the survival stream;
					// its payload stays.
					if !payloadOnDisk(t, img, payloads[jsn]) {
						h.fatalf("survivor %d lost its payload", jsn)
					}
				default:
					if got, err := l2.GetPayload(jsn); err != nil || !bytes.Equal(got, payloads[jsn]) {
						h.fatalf("payload of live journal %d: %v", jsn, err)
					}
				}
			}
		})
}

// TestPayloadCrashSweepOccultErasure: a synchronous occult. Once the
// occult journal is durable the payload must be gone after recovery —
// the crash may not leave it hidden but still on disk.
func TestPayloadCrashSweepOccultErasure(t *testing.T) {
	const target = 5
	sweepErasure(t,
		func(h *harness) error {
			desc := &ledger.OccultDescriptor{URI: uri, JSN: target}
			ms := sig.NewMultiSig(desc.Digest())
			if err := ms.SignWith(h.dba); err != nil {
				return err
			}
			_, err := h.l.Occult(desc, ms)
			return err
		},
		func(t *testing.T, h *harness, payloads [][]byte, l2 *ledger.Ledger, img *faultfs.Disk) {
			rec, err := l2.GetJournal(target)
			if err != nil {
				h.fatalf("journal %d: %v", target, err)
			}
			if rec.Occulted && payloadOnDisk(t, img, payloads[target]) {
				h.fatalf("journal %d is occulted but its payload is still on disk", target)
			}
			for jsn := uint64(1); jsn < uint64(len(payloads)); jsn++ {
				if jsn == target && rec.Occulted {
					continue
				}
				if got, err := l2.GetPayload(jsn); err != nil || !bytes.Equal(got, payloads[jsn]) {
					h.fatalf("payload of journal %d: %v", jsn, err)
				}
			}
		})
}
