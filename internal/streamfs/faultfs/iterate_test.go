package faultfs_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/streamfs/faultfs"
)

// chunkBytes mirrors streamfs's scan read-ahead (scanChunk): Iterate
// reads up to this many bytes of frames per ReadAt.
const chunkBytes = 256 << 10

// iterFileSystems are the two file systems the chunked Iterate must
// agree with the per-record Read loop on.
func iterFileSystems(t *testing.T) map[string]func() (streamfs.FileSystem, string) {
	return map[string]func() (streamfs.FileSystem, string){
		"os":      func() (streamfs.FileSystem, string) { return streamfs.OSFileSystem(), t.TempDir() },
		"faultfs": func() (streamfs.FileSystem, string) { return faultfs.NewDisk(), "streams" },
	}
}

// iterRecord is record seq of size n: its bytes are a function of both,
// so a record delivered under the wrong seq cannot compare equal.
func iterRecord(seq uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seq*131 + uint64(i)*7)
	}
	if n >= 8 {
		binary.BigEndian.PutUint64(b, seq)
	}
	return b
}

type seqRec struct {
	seq uint64
	rec []byte
}

// collectIterate runs Iterate from from, copying every record out of
// the view it is handed.
func collectIterate(st streamfs.Stream, from uint64) ([]seqRec, error) {
	var out []seqRec
	err := st.Iterate(from, func(seq uint64, rec []byte) error {
		out = append(out, seqRec{seq, bytes.Clone(rec)})
		return nil
	})
	return out, err
}

// collectReads is the reference: one Read per record.
func collectReads(t *testing.T, st streamfs.Stream, from uint64) []seqRec {
	t.Helper()
	var out []seqRec
	for seq := from; seq < st.Len(); seq++ {
		rec, err := st.Read(seq)
		if err != nil {
			t.Fatalf("Read(%d): %v", seq, err)
		}
		out = append(out, seqRec{seq, rec})
	}
	return out
}

// segmentFirstSeqs returns the first seq of every segment file of the
// stream, read from the segment headers.
func segmentFirstSeqs(t *testing.T, fsys streamfs.FileSystem, dir, name string) []uint64 {
	t.Helper()
	paths, err := fsys.Glob(filepath.Join(dir, name+".seg.*"))
	if err != nil {
		t.Fatal(err)
	}
	var firsts []uint64
	for _, p := range paths {
		b, err := fsys.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		firsts = append(firsts, binary.BigEndian.Uint64(b[8:16]))
	}
	return firsts
}

// TestChunkedIterateMatchesRead: over the OS file system and faultfs,
// with seeded random record sizes (one larger than a whole chunk), in
// several segments, Iterate from a segment boundary, from mid-chunk and
// from the end hands fn exactly the records the per-record Read loop
// returns — before and after a reopen, which rebuilds the segment index
// from a scan.
func TestChunkedIterateMatchesRead(t *testing.T) {
	for name, mk := range iterFileSystems(t) {
		t.Run(name, func(t *testing.T) {
			fsys, dir := mk()
			opts := streamfs.DiskOptions{SegmentSize: 1 << 20, FS: fsys}
			store, err := streamfs.OpenDisk(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.Stream("j")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for seq := uint64(0); seq < 1200; seq++ {
				n := rng.Intn(2048)
				switch {
				case seq == 500:
					n = chunkBytes + 40_000 // a frame no chunk can hold with others
				case rng.Intn(40) == 0:
					n = 20_000 + rng.Intn(40_000)
				}
				mustAppend(t, st, iterRecord(seq, n))
			}
			check := func(st streamfs.Stream, phase string) {
				t.Helper()
				firsts := segmentFirstSeqs(t, fsys, dir, "j")
				if len(firsts) < 3 {
					t.Fatalf("%s: %d segments, want several", phase, len(firsts))
				}
				froms := []uint64{0, 499, 500, 501, st.Len() - 1, st.Len()}
				for _, f := range firsts {
					froms = append(froms, f, f+7) // a segment boundary, and mid-chunk
				}
				for _, from := range froms {
					got, err := collectIterate(st, from)
					if err != nil {
						t.Fatalf("%s: Iterate(%d): %v", phase, from, err)
					}
					want := collectReads(t, st, from)
					if len(got) != len(want) {
						t.Fatalf("%s: Iterate(%d) handed %d records, Read loop %d", phase, from, len(got), len(want))
					}
					for i := range want {
						if got[i].seq != want[i].seq || !bytes.Equal(got[i].rec, want[i].rec) {
							t.Fatalf("%s: Iterate(%d) record %d: seq %d (%d B), Read loop seq %d (%d B)",
								phase, from, i, got[i].seq, len(got[i].rec), want[i].seq, len(want[i].rec))
						}
					}
				}
				// fn's error ends the walk at once and comes back as is.
				stop := errors.New("stop")
				var seen uint64
				err := st.Iterate(0, func(seq uint64, _ []byte) error {
					if seen++; seq == 700 {
						return stop
					}
					return nil
				})
				if err != stop || seen != 701 {
					t.Fatalf("%s: stop at 700: err %v after %d records", phase, err, seen)
				}
			}
			check(st, "live")
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			if store, err = streamfs.OpenDisk(dir, opts); err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if st, err = store.Stream("j"); err != nil {
				t.Fatal(err)
			}
			check(st, "reopened")
		})
	}
}

// TestChunkedIterateSkipsTruncatedGap: a Truncate issued from fn, while
// the records after the cursor sit in the chunk already read and in
// chunks not yet read, is honoured record by record — the walk resumes
// at the new base, delivering nothing purged.
func TestChunkedIterateSkipsTruncatedGap(t *testing.T) {
	for name, mk := range iterFileSystems(t) {
		t.Run(name, func(t *testing.T) {
			fsys, dir := mk()
			store, err := streamfs.OpenDisk(dir, streamfs.DiskOptions{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			st, _ := store.Stream("j")
			for seq := uint64(0); seq < 1000; seq++ {
				mustAppend(t, st, iterRecord(seq, 1000)) // ~260 records per chunk
			}
			for _, cut := range []uint64{100, 600, 1000} { // same chunk, a later chunk, everything
				from := st.Base()
				var got []uint64
				err := st.Iterate(from, func(seq uint64, rec []byte) error {
					if !bytes.Equal(rec, iterRecord(seq, 1000)) {
						return fmt.Errorf("seq %d: wrong bytes", seq)
					}
					if seq == from+2 {
						if err := st.Truncate(cut); err != nil {
							return err
						}
					}
					got = append(got, seq)
					return nil
				})
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				want := []uint64{from, from + 1, from + 2}
				for seq := cut; seq < 1000; seq++ {
					want = append(want, seq)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("cut %d: visited %d records %v..., want %d from %v...", cut, len(got), got[:min(len(got), 5)], len(want), want[:min(len(want), 5)])
				}
			}
		})
	}
}

// TestChunkedIterateFlippedByte: one byte flipped in a record in the
// middle of a chunk ends the walk with ErrCorrupt naming that record's
// seq, after every record before it has been handed over intact.
func TestChunkedIterateFlippedByte(t *testing.T) {
	dir := t.TempDir()
	store, err := streamfs.OpenDisk(dir, streamfs.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	st, _ := store.Stream("j")
	const size, bad = 2048, 150 // 127 records a chunk: 150 sits mid-chunk
	for seq := uint64(0); seq < 300; seq++ {
		mustAppend(t, st, iterRecord(seq, size))
	}
	f, err := os.OpenFile(filepath.Join(dir, "j.seg.00000000"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(16 + bad*(8+size) + 8 + 100) // segment header, frames, frame header
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, from := range []uint64{0, 140} {
		got, err := collectIterate(st, from)
		if !errors.Is(err, streamfs.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("seq %d:", bad)) {
			t.Fatalf("Iterate(%d): err %v, want ErrCorrupt naming seq %d", from, err, bad)
		}
		if len(got) != bad-int(from) || got[len(got)-1].seq != bad-1 {
			t.Fatalf("Iterate(%d): handed %d records before the damage, want %d", from, len(got), bad-int(from))
		}
		for _, r := range got {
			if !bytes.Equal(r.rec, iterRecord(r.seq, size)) {
				t.Fatalf("Iterate(%d): seq %d handed damaged bytes", from, r.seq)
			}
		}
	}
}
