package faultfs_test

// Crash torture for the payload log (the disk BlobStore) at the store
// level: each scenario is run once on a probe disk to measure the byte
// range its operation writes, then once per byte offset in that range
// with a crash armed exactly there, and every frozen image is reopened
// under both crash models. The ledger-level counterpart lives in
// internal/integration/crashtest.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/streamfs/faultfs"
)

// blobSegSize rolls the log every few payloads.
const blobSegSize = 200

const (
	segHeaderLen = 16 // streamfs segment header
	frameHdrLen  = 8  // [u32 len][u32 crc32c]
)

func openBlobs(t *testing.T, d *faultfs.Disk) streamfs.BlobStore {
	t.Helper()
	s, err := streamfs.OpenDiskBlobsOn(d, "blobs", blobSegSize)
	if err != nil {
		t.Fatalf("open payload log: %v", err)
	}
	return s
}

// testPayload is distinctive enough that a byte search for it cannot hit
// another payload.
func testPayload(i int) []byte {
	return []byte(fmt.Sprintf("<payload-%03d>%s", i, strings.Repeat("z", 20+i%17)))
}

func testPayloads(from, to int) [][]byte {
	var out [][]byte
	for i := from; i < to; i++ {
		out = append(out, testPayload(i))
	}
	return out
}

func putAll(s streamfs.BlobStore, payloads [][]byte) error {
	for _, p := range payloads {
		if err := s.Put(hashutil.Sum(p), p); err != nil {
			return err
		}
	}
	return nil
}

func held(s streamfs.BlobStore, p []byte) (bool, error) {
	got, err := s.Get(hashutil.Sum(p))
	if errors.Is(err, streamfs.ErrBlobNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if !bytes.Equal(got, p) {
		return false, fmt.Errorf("payload %q came back as %q", p, got)
	}
	return true, nil
}

// onDisk reports whether any file of the image contains p.
func onDisk(t *testing.T, d *faultfs.Disk, p []byte) bool {
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

// checkLog is the invariant every recovered payload log must meet: all of
// must is readable, everything of may is either readable or gone, the
// segment files hold exactly the readable payloads' frames — no torn
// tail, no orphan frame, no staging file — and the log takes new work.
func checkLog(t *testing.T, d *faultfs.Disk, s streamfs.BlobStore, must, may [][]byte) {
	t.Helper()
	var frames int64
	for _, p := range must {
		ok, err := held(s, p)
		if err != nil || !ok {
			t.Fatalf("durable payload %q lost (%v)", p[:13], err)
		}
		frames += int64(frameHdrLen + len(p))
	}
	for _, p := range may {
		ok, err := held(s, p)
		if err != nil {
			t.Fatalf("payload %q: %v", p[:13], err)
		}
		if ok {
			frames += int64(frameHdrLen + len(p))
		} else if onDisk(t, d, p) {
			t.Fatalf("payload %q is not served but its bytes are still on disk", p[:13])
		}
	}
	files, _ := d.Glob("blobs/*")
	var size int64
	for _, f := range files {
		if !strings.Contains(f, "payload.seg.") {
			t.Fatalf("stray file %s after recovery", f)
		}
		b, _ := d.ReadFile(f)
		size += int64(len(b))
	}
	if want := frames + int64(len(files))*segHeaderLen; size != want {
		t.Fatalf("segments hold %d bytes, the readable payloads account for %d", size, want)
	}
	extra := []byte("<post-recovery>")
	if err := putAll(s, [][]byte{extra}); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	if ok, err := held(s, extra); err != nil || !ok {
		t.Fatalf("payload put after recovery: %v", err)
	}
}

// crashSweep measures the bytes op writes after prepare, then replays
// prepare+op with a crash armed at every offset of that range. op
// reports the payloads a successful Sync covered before the crash hit.
// check sees each recovered log (and its image) in both crash modes.
func crashSweep(t *testing.T, prepare func(streamfs.BlobStore) error, op func(streamfs.BlobStore) (synced [][]byte),
	check func(t *testing.T, img *faultfs.Disk, s streamfs.BlobStore, synced [][]byte)) {
	t.Helper()
	probe := faultfs.NewDisk()
	ps := openBlobs(t, probe)
	if err := prepare(ps); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	from := probe.BytesWritten()
	op(ps)
	to := probe.BytesWritten()
	if probe.Crashed() || to == from {
		t.Fatalf("probe run wrote bytes [%d,%d)", from, to)
	}
	for cut := from; cut <= to; cut++ {
		d := faultfs.NewDisk()
		s := openBlobs(t, d)
		if err := prepare(s); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		d.CrashAtByte(cut)
		synced := op(s)
		if !d.Crashed() {
			d.CrashNow() // cut == to: the crash comes right after the last byte
		}
		for _, mode := range []faultfs.CrashMode{faultfs.TornWrite, faultfs.DropUnsynced} {
			t.Run(fmt.Sprintf("cut%d/mode%d", cut-from, mode), func(t *testing.T) {
				img := d.Image(mode)
				check(t, img, openBlobs(t, img), synced)
			})
		}
	}
}

// TestPayloadLogCrashDuringPut kills the log at every byte of a run of
// Puts that crosses two segment roll-overs: whatever was flushed before
// survives, and what the crash tore is gone without a trace.
func TestPayloadLogCrashDuringPut(t *testing.T) {
	durable, volatile := testPayloads(0, 5), testPayloads(5, 13)
	crashSweep(t,
		func(s streamfs.BlobStore) error {
			if err := putAll(s, durable); err != nil {
				return err
			}
			return s.Sync()
		},
		func(s streamfs.BlobStore) [][]byte {
			putAll(s, volatile)
			return nil
		},
		func(t *testing.T, img *faultfs.Disk, s streamfs.BlobStore, _ [][]byte) {
			// Appends are ordered: a payload survives only if every
			// earlier one did.
			gap := false
			for _, p := range volatile {
				ok, err := held(s, p)
				if err != nil {
					t.Fatal(err)
				}
				if ok && gap {
					t.Fatalf("payload %q survived a crash that lost an earlier one", p[:13])
				}
				gap = gap || !ok
			}
			checkLog(t, img, s, durable, volatile)
		})
}

// TestPayloadLogCrashAroundFlush interleaves Puts and the group flush:
// once Sync has returned, everything Put before it must survive a crash
// at any later byte, under both models.
func TestPayloadLogCrashAroundFlush(t *testing.T) {
	base, groupA, groupB, tail := testPayloads(0, 3), testPayloads(3, 7), testPayloads(7, 10), testPayloads(10, 12)
	crashSweep(t,
		func(s streamfs.BlobStore) error {
			if err := putAll(s, base); err != nil {
				return err
			}
			return s.Sync()
		},
		func(s streamfs.BlobStore) (synced [][]byte) {
			for _, group := range [][][]byte{groupA, groupB} {
				if putAll(s, group) != nil || s.Sync() != nil {
					return synced
				}
				synced = append(synced, group...)
			}
			putAll(s, tail)
			return synced
		},
		func(t *testing.T, img *faultfs.Disk, s streamfs.BlobStore, synced [][]byte) {
			all := append(append(append([][]byte{}, groupA...), groupB...), tail...)
			checkLog(t, img, s, append(append([][]byte{}, base...), synced...), all[len(synced):])
		})
}

// TestPayloadLogCrashDuringErasure kills the log at every byte of a
// batched Delete that rewrites a sealed segment, empties another and
// rewrites the active one. Each segment's erasure is atomic — a doomed
// payload is either still served or its bytes are in no file — survivors
// are never harmed, and repeating the Delete (the ledger's roll-forward)
// finishes the job.
func TestPayloadLogCrashDuringErasure(t *testing.T) {
	all := testPayloads(0, 14)
	// Where the payloads land is the log's business; read it off a probe.
	probe := faultfs.NewDisk()
	if err := putAll(openBlobs(t, probe), all); err != nil {
		t.Fatal(err)
	}
	files, _ := probe.Glob("blobs/payload.seg.*")
	if len(files) < 3 {
		t.Fatalf("%d test payloads span %d segments, want a sealed pair and an active one", len(all), len(files))
	}
	segOf := func(p []byte) int {
		for i, f := range files {
			if b, _ := probe.ReadFile(f); bytes.Contains(b, p) {
				return i
			}
		}
		t.Fatalf("payload %q is in no segment", p[:13])
		return -1
	}
	// Every second payload of the first segment (rewrite), all of the
	// second (removal), the last payload of the active one (rewrite, then
	// reopen for appends).
	var doomed, survivors [][]byte
	var keys []hashutil.Digest
	for i, p := range all {
		if seg := segOf(p); seg == 0 && i%2 == 1 || seg == 1 || i == len(all)-1 {
			doomed = append(doomed, p)
			keys = append(keys, hashutil.Sum(p))
		} else {
			survivors = append(survivors, p)
		}
	}
	// checkLog leaves one payload of its own behind each time it runs.
	survivorsAndProbe := append(append([][]byte{}, survivors...), []byte("<post-recovery>"))
	crashSweep(t,
		func(s streamfs.BlobStore) error {
			if err := putAll(s, all); err != nil {
				return err
			}
			return s.Sync()
		},
		func(s streamfs.BlobStore) [][]byte {
			s.Delete(keys...)
			return nil
		},
		func(t *testing.T, img *faultfs.Disk, s streamfs.BlobStore, _ [][]byte) {
			checkLog(t, img, s, survivors, doomed)
			if err := s.Delete(keys...); err != nil {
				t.Fatalf("roll-forward delete: %v", err)
			}
			for _, p := range doomed {
				if ok, _ := held(s, p); ok || onDisk(t, img, p) {
					t.Fatalf("payload %q outlived the repeated Delete", p[:13])
				}
			}
			checkLog(t, img, s, survivorsAndProbe, nil)
			// And the rolled-forward image reopens to the same state.
			checkLog(t, img, openBlobs(t, img), survivorsAndProbe, nil)
		})
}

// A stream that flushes on its own (segment seal, DiskOptions.SyncEvery)
// runs its SelfSyncer barrier first. With the payload log's Sync as the
// barrier — what the ledger registers on its journal stream — a lost
// write cache never leaves a record on disk whose payload is not.
func TestSelfSyncBarrierKeepsPayloadsAheadOfRecords(t *testing.T) {
	for _, opts := range []streamfs.DiskOptions{
		{SyncEvery: 3},    // cadence flushes
		{SegmentSize: 90}, // seal flushes only
		{SyncEvery: 2, SegmentSize: 150},
	} {
		d := faultfs.NewDisk()
		blobs := openBlobs(t, d)
		st, err := openStore(t, d, opts).Stream("j")
		if err != nil {
			t.Fatal(err)
		}
		st.(streamfs.SelfSyncer).BeforeSelfSync(blobs.Sync)
		for i := 0; i < 40; i++ {
			p := testPayload(i)
			if err := blobs.Put(hashutil.Sum(p), p); err != nil {
				t.Fatal(err)
			}
			mustAppend(t, st, p) // the record names its payload by content
			img := d.Image(faultfs.DropUnsynced)
			st2, err := openStore(t, img, opts).Stream("j")
			if err != nil {
				t.Fatal(err)
			}
			blobs2 := openBlobs(t, img)
			for seq := uint64(0); seq < st2.Len(); seq++ {
				rec, err := st2.Read(seq)
				if err != nil {
					t.Fatal(err)
				}
				if ok, err := held(blobs2, rec); err != nil || !ok {
					t.Fatalf("%+v: after append %d, record %d survived a lost write cache without its payload (%v)", opts, i, seq, err)
				}
			}
		}
	}
}

// A failing barrier fails the flush it guards: the append that hit the
// cadence reports it, and nothing was flushed.
func TestSelfSyncBarrierFailure(t *testing.T) {
	d := faultfs.NewDisk()
	st, err := openStore(t, d, streamfs.DiskOptions{SyncEvery: 2}).Stream("j")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("payloads not durable")
	st.(streamfs.SelfSyncer).BeforeSelfSync(func() error { return boom })
	mustAppend(t, st, []byte("a"))
	if _, err := st.Append([]byte("b")); !errors.Is(err, boom) {
		t.Fatalf("append at the flush cadence = %v, want the barrier's error", err)
	}
	st2, err := openStore(t, d.Image(faultfs.DropUnsynced), streamfs.DiskOptions{}).Stream("j")
	if err != nil {
		t.Fatal(err)
	}
	if n := st2.Len(); n != 0 {
		t.Fatalf("%d records durable although the barrier refused the flush", n)
	}
}
