package streamfs

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ledgerdb/internal/hashutil"
)

// testSegSize makes the log roll every few payloads, so small tests reach
// sealed segments, multi-segment erasure and segment removal.
const testSegSize = 2 << 10

func openTestLog(t testing.TB, dir string) *payloadLog {
	t.Helper()
	s, err := openPayloadLog(OSFileSystem(), dir, testSegSize)
	if err != nil {
		t.Fatalf("open payload log: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t testing.TB, s BlobStore, data []byte) hashutil.Digest {
	t.Helper()
	key := hashutil.Sum(data)
	if err := s.Put(key, data); err != nil {
		t.Fatalf("put %d bytes: %v", len(data), err)
	}
	return key
}

// blobFiles lists every regular file under dir.
func blobFiles(t testing.TB, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// holdsBytes reports which files under dir contain needle.
func holdsBytes(t testing.TB, dir string, needle []byte) []string {
	t.Helper()
	var hits []string
	for _, p := range blobFiles(t, dir) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, needle) {
			hits = append(hits, p)
		}
	}
	return hits
}

func TestPayloadLogBasics(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir)

	hello := mustPut(t, s, []byte("hello"))
	empty := mustPut(t, s, nil)
	mustPut(t, s, []byte("hello")) // duplicate: no second frame
	if got := s.lastSeg().size; got != segHeaderLen+frameHdrLen+5+frameHdrLen {
		t.Fatalf("segment holds %d bytes after hello, empty, duplicate hello", got)
	}
	if got, err := s.Get(hello); err != nil || string(got) != "hello" {
		t.Fatalf("get hello: %q, %v", got, err)
	}
	if got, err := s.Get(empty); err != nil || len(got) != 0 {
		t.Fatalf("get empty: %q, %v", got, err)
	}
	if _, err := s.Get(hashutil.Sum([]byte("absent"))); !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("get absent: %v", err)
	}
	if err := s.Put(hello, []byte("other bytes")); !errors.Is(err, ErrBlobKey) {
		t.Fatalf("put under a foreign key: %v", err)
	}
	if err := s.Put(hashutil.Zero, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}

	// The index is derived from content on reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(hello, []byte("hello")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	s = openTestLog(t, dir)
	if got, err := s.Get(hello); err != nil || string(got) != "hello" {
		t.Fatalf("get hello after reopen: %q, %v", got, err)
	}
	if err := s.Delete(hello, hashutil.Sum([]byte("absent"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(hello); !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("get erased: %v", err)
	}
	if _, err := s.Get(empty); err != nil {
		t.Fatalf("sibling of an erased payload: %v", err)
	}
	mustPut(t, s, []byte("hello")) // erased payloads can come back
	if got, err := s.Get(hello); err != nil || string(got) != "hello" {
		t.Fatalf("get re-put: %q, %v", got, err)
	}
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBlobNotFound):
		return "not found"
	case errors.Is(err, ErrTooLarge):
		return "too large"
	}
	return "other: " + err.Error()
}

// TestPayloadLogMatchesMemoryModel drives the memory store and the
// payload log through the same seeded schedule of Put (fresh, duplicate,
// empty, MaxRecordSize-adjacent), Get, batched Delete, Sync and
// close-and-reopen, and requires identical answers and error classes
// after every step.
func TestPayloadLogMatchesMemoryModel(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runBlobModel(t, seed)
		})
	}
}

func runBlobModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	disk := openTestLog(t, dir)
	model := NewMemoryBlobs()
	stores := func() [2]BlobStore { return [2]BlobStore{model, disk} }

	var pool [][]byte // every payload ever offered, including refused ones
	var giants []int  // 16 MiB payloads around the size limit: one seed, one of each
	if seed == 1 {
		giants = []int{MaxRecordSize - 1, MaxRecordSize, MaxRecordSize + 1}
	}
	fresh := func() []byte {
		n := 1 + rng.Intn(600)
		switch r := rng.Intn(40); {
		case r == 0:
			n = 0
		case r == 1 && len(giants) > 0:
			n, giants = giants[0], giants[1:]
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	pick := func() []byte {
		if len(pool) == 0 || rng.Intn(8) == 0 {
			return fresh() // almost surely absent
		}
		return pool[rng.Intn(len(pool))]
	}
	check := func(op string, step int, errs [2]error) {
		t.Helper()
		if a, b := errClass(errs[0]), errClass(errs[1]); a != b {
			t.Fatalf("step %d %s: memory says %q, payload log says %q", step, op, a, b)
		}
	}
	get := func(step int, data []byte) {
		t.Helper()
		key := hashutil.Sum(data)
		var got [2][]byte
		var errs [2]error
		for i, s := range stores() {
			got[i], errs[i] = s.Get(key)
		}
		check("get", step, errs)
		if !bytes.Equal(got[0], got[1]) {
			t.Fatalf("step %d get %s: stores returned different bytes (%d vs %d)", step, key.Short(), len(got[0]), len(got[1]))
		}
	}

	for step := 0; step < 500; step++ {
		switch r := rng.Intn(100); {
		case r < 45: // put, a quarter of them duplicates
			data := fresh()
			if len(pool) > 0 && rng.Intn(4) == 0 {
				data = pool[rng.Intn(len(pool))]
			}
			pool = append(pool, data)
			key := hashutil.Sum(data)
			var errs [2]error
			for i, s := range stores() {
				errs[i] = s.Put(key, data)
			}
			check("put", step, errs)
		case r < 75:
			get(step, pick())
		case r < 88: // batched delete, absent and repeated keys included
			keys := make([]hashutil.Digest, 1+rng.Intn(6))
			for i := range keys {
				keys[i] = hashutil.Sum(pick())
			}
			var errs [2]error
			for i, s := range stores() {
				errs[i] = s.Delete(keys...)
			}
			check("delete", step, errs)
		case r < 95:
			var errs [2]error
			for i, s := range stores() {
				errs[i] = s.Sync()
			}
			check("sync", step, errs)
		default: // the model has no disk: a reopen must change nothing
			if err := disk.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			disk = openTestLog(t, dir)
		}
	}
	for _, data := range pool {
		get(-1, data)
	}
}

// TestPayloadLogFileCount is the inode guard: the file-per-payload store
// left one file per payload (plus 256 directories); the log leaves one
// file per segment.
func TestPayloadLogFileCount(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.(*payloadLog).Close()
	const n = 10_000
	data := make([]byte, 256)
	for i := 0; i < n; i++ {
		copy(data, fmt.Sprintf("payload-%d", i))
		mustPut(t, s, data)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	bytesHeld := int64(n * (frameHdrLen + len(data)))
	wantFiles := int(bytesHeld/payloadSegmentSize) + 1
	if files := blobFiles(t, dir); len(files) != wantFiles {
		t.Fatalf("%d payloads left %d files, want %d (one per segment)", n, len(files), wantFiles)
	}
	// Framing is 8 bytes a payload, nothing else: no stored key, no hint
	// file, no preallocation.
	var total int64
	for _, p := range blobFiles(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if overhead := total - int64(n*len(data)); overhead > int64(n*16) {
		t.Fatalf("%d bytes of framing for %d payloads (%.1f each), budget is 16", overhead, n, float64(overhead)/n)
	}
}

// TestPayloadLogEraseLeavesNoBytes is the erasure guard: after Delete
// returns, no file under the directory holds the payload — in a sealed
// segment, in the active one, and when the segment empties.
func TestPayloadLogEraseLeavesNoBytes(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir)
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf("<<secret-%04d>>%s", i, strings.Repeat("x", 180)))
	}
	marker := func(i int) []byte { return payload(i)[:15] }
	const n = 64 // ~13 KiB: several sealed segments and an active one
	keys := make([]hashutil.Digest, n)
	for i := range keys {
		keys[i] = mustPut(t, s, payload(i))
	}
	if len(s.segs) < 4 {
		t.Fatalf("want several segments, have %d", len(s.segs))
	}
	first, last := 0, n-1 // a sealed segment's and the active segment's payload
	for _, i := range []int{first, last} {
		if hits := holdsBytes(t, dir, marker(i)); len(hits) != 1 {
			t.Fatalf("payload %d is in %v before erasure", i, hits)
		}
		if err := s.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
		if hits := holdsBytes(t, dir, marker(i)); len(hits) != 0 {
			t.Fatalf("payload %d still on disk after Delete: %v", i, hits)
		}
	}
	// The active segment was rewritten in place and keeps taking appends.
	segs := len(s.segs)
	extra := mustPut(t, s, []byte("after-erasure"))
	if len(s.segs) != segs {
		t.Fatalf("erasing from the active segment started a new one (%d -> %d segments)", segs, len(s.segs))
	}
	// Emptying a segment removes its file.
	files := len(blobFiles(t, dir))
	var inFirst []hashutil.Digest
	for i := 1; i < n-1; i++ {
		if s.index[keys[i]].seg == uint32(s.segs[0].index) {
			inFirst = append(inFirst, keys[i])
		}
	}
	if err := s.Delete(inFirst...); err != nil {
		t.Fatal(err)
	}
	if got := len(blobFiles(t, dir)); got != files-1 {
		t.Fatalf("emptied segment not removed: %d files, had %d", got, files)
	}
	// Everything else survived, here and across a reopen.
	s.Close()
	s = openTestLog(t, dir)
	erased := map[hashutil.Digest]bool{keys[first]: true, keys[last]: true}
	for _, k := range inFirst {
		erased[k] = true
	}
	for i, k := range keys {
		got, err := s.Get(k)
		if erased[k] {
			if !errors.Is(err, ErrBlobNotFound) {
				t.Fatalf("erased payload %d after reopen: %v", i, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("surviving payload %d after reopen: %v", i, err)
		}
	}
	if _, err := s.Get(extra); err != nil {
		t.Fatalf("payload appended after the rewrite: %v", err)
	}
}

// rewriteCounter counts the erasure rewrites reaching the file system.
type rewriteCounter struct {
	FileSystem
	writes, removes int
}

func (c *rewriteCounter) WriteFile(path string, data []byte) error {
	c.writes++
	return c.FileSystem.WriteFile(path, data)
}

func (c *rewriteCounter) Remove(path string) error {
	c.removes++
	return c.FileSystem.Remove(path)
}

// TestPayloadLogDeleteRewritesEachSegmentOnce: a purge hands Delete all
// its keys at once, and pays one rewrite per touched segment, not one
// per key.
func TestPayloadLogDeleteRewritesEachSegmentOnce(t *testing.T) {
	fsys := &rewriteCounter{FileSystem: OSFileSystem()}
	s, err := openPayloadLog(fsys, t.TempDir(), testSegSize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var keys []hashutil.Digest
	for i := 0; i < 60; i++ {
		keys = append(keys, mustPut(t, s, bytes.Repeat([]byte{byte(i)}, 200)))
	}
	// Every payload of segment 0, every second payload of segments 1 and 2.
	var doomed []hashutil.Digest
	for i, k := range keys {
		switch seg := s.index[k].seg; {
		case seg == 0, (seg == 1 || seg == 2) && i%2 == 0:
			doomed = append(doomed, k)
		}
	}
	fsys.removes = 0
	if err := s.Delete(doomed...); err != nil {
		t.Fatal(err)
	}
	if fsys.writes != 2 || fsys.removes != 1 {
		t.Fatalf("erasing %d payloads in 3 segments cost %d rewrites and %d removals, want 2 and 1", len(doomed), fsys.writes, fsys.removes)
	}
}

func TestOpenDiskBlobsRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	key := hashutil.Sum([]byte("old"))
	old := filepath.Join(dir, key.String()[:2], key.String())
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDiskBlobs(dir)
	if !errors.Is(err, ErrBlobLayout) {
		t.Fatalf("open over the file-per-payload tree: %v", err)
	}
	for _, want := range []string{dir, "file-per-payload"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if len(blobFiles(t, dir)) != 1 {
		t.Fatal("a refused open must leave the directory untouched")
	}
}

// The test seam may shrink segments, never grow them past what a 32-bit
// frame offset addresses.
func TestOpenDiskBlobsOnBoundsSegmentSize(t *testing.T) {
	for _, size := range []int64{0, -1, payloadSegmentSize + 1, 1 << 32} {
		if _, err := OpenDiskBlobsOn(OSFileSystem(), t.TempDir(), size); err == nil {
			t.Fatalf("segment size %d accepted", size)
		}
	}
}

func TestPayloadLogTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir)
	kept := mustPut(t, s, []byte("kept"))
	path, size := s.lastSeg().path, s.lastSeg().size
	s.Close()

	// A crash mid-Put: a frame header promising more bytes than follow.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(putFrame(nil, []byte("torn away"))[:frameHdrLen+3])
	f.Close()
	// And the staging file of an erasure that never reached its rename.
	if err := os.WriteFile(filepath.Join(dir, payloadTmp), []byte("half a rewrite"), 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTestLog(t, dir)
	if fi, _ := os.Stat(path); fi.Size() != size {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", fi.Size(), size)
	}
	if len(blobFiles(t, dir)) != 1 {
		t.Fatalf("leftover staging file not removed: %v", blobFiles(t, dir))
	}
	if got, err := s.Get(kept); err != nil || string(got) != "kept" {
		t.Fatalf("payload before the torn frame: %q, %v", got, err)
	}
	next := mustPut(t, s, []byte("next"))
	if got, err := s.Get(next); err != nil || string(got) != "next" {
		t.Fatalf("put after repair: %q, %v", got, err)
	}
}

// TestPayloadLogCorruptFrameIsAnError: damage is ErrCorrupt, never "not
// found" — the ledger ships digest-only proofs for the latter.
func TestPayloadLogCorruptFrameIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir)
	key := mustPut(t, s, []byte("intact payload"))
	loc := s.index[key]
	f, err := os.OpenFile(s.lastSeg().path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, int64(loc.off)+frameHdrLen+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("get of a damaged frame: %v", err)
	}
}

func TestPayloadLogConcurrent(t *testing.T) {
	s := openTestLog(t, t.TempDir())
	const workers, each = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				own := []byte(fmt.Sprintf("worker-%d-payload-%d", w, i))
				shared := []byte(fmt.Sprintf("shared-%d", i))
				for _, data := range [][]byte{own, shared} {
					key := hashutil.Sum(data)
					if err := s.Put(key, data); err != nil {
						t.Error(err)
						return
					}
					if got, err := s.Get(key); err != nil || !bytes.Equal(got, data) {
						t.Errorf("get after put: %v", err)
						return
					}
				}
				switch i % 10 {
				case 3:
					if err := s.Sync(); err != nil {
						t.Error(err)
					}
				case 7:
					if err := s.Delete(hashutil.Sum(own)); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < each; i++ {
		data := []byte(fmt.Sprintf("shared-%d", i))
		if got, err := s.Get(hashutil.Sum(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("shared payload %d: %v", i, err)
		}
	}
}
