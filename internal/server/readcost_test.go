package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/streamfs/faultfs"
)

// countingFS counts what a disk store asks of its file system: files
// created, data writes (File.Write and WriteFile), fsyncs (File.Sync and
// WriteFile, which flushes before it returns) and positioned reads.
type countingFS struct {
	streamfs.FileSystem
	creates, writes, syncs, readAts atomic.Int64
}

type countingFile struct {
	streamfs.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) { f.fs.writes.Add(1); return f.File.Write(p) }
func (f countingFile) Sync() error                 { f.fs.syncs.Add(1); return f.File.Sync() }
func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.readAts.Add(1)
	return f.File.ReadAt(p, off)
}

func (c *countingFS) wrap(f streamfs.File, err error) (streamfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) Create(p string) (streamfs.File, error) {
	c.creates.Add(1)
	return c.wrap(c.FileSystem.Create(p))
}

func (c *countingFS) OpenAppend(p string) (streamfs.File, error) {
	return c.wrap(c.FileSystem.OpenAppend(p))
}

func (c *countingFS) OpenRead(p string) (streamfs.File, error) {
	return c.wrap(c.FileSystem.OpenRead(p))
}

func (c *countingFS) WriteFile(p string, data []byte) error {
	c.creates.Add(1)
	c.writes.Add(1)
	c.syncs.Add(1)
	return c.FileSystem.WriteFile(p, data)
}

// mutations is every create, write and fsync the store has issued.
func (c *countingFS) mutations() int64 {
	return c.creates.Load() + c.writes.Load() + c.syncs.Load()
}

// TestReadsDoNotPayForTheCommitBefore is the count behind the
// mixed_verify claim. It drives ledgerbench's mixed_verify cycle —
// A P A P A C A P A Q, Zipf clues, proofs of the newest 4096 — through
// the Server's handlers in-process, so every ECDSA operation counted is
// the server's own. Each read follows a commit; before proofs were built
// at the newest covering signed state each of the five reads signed a
// state (5 per cycle). Now a read signs only when nothing signed covers
// it, which the query (always at the frontier) and the occasional clue
// proof reaching past the held state account for: at most 2 per cycle.
// The index store sits on a counting file system: ingesting journals on
// the query path must not create, write or fsync anything in it.
func TestReadsDoNotPayForTheCommitBefore(t *testing.T) {
	const preload, cycles, clueSpace = 1500, 200, 1000
	clock := logicalclock.New(7_000_000)
	l, err := ledger.Open(ledger.Config{
		URI: "ledger://readcost", LSP: sig.GenerateDeterministic("readcost/lsp"),
		DBA:   sig.GenerateDeterministic("readcost/dba").Public(),
		Store: streamfs.NewMemory(), Blobs: streamfs.NewMemoryBlobs(), Clock: clock.Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ixFS := &countingFS{FileSystem: faultfs.NewDisk()}
	ixStore, err := streamfs.OpenDisk("index", streamfs.DiskOptions{FS: ixFS})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(l, nil)
	if srv.Index, err = index.Open(l, ixStore); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.1, 1, clueSpace-1)
	client := sig.GenerateDeterministic("readcost/client")
	versions := make([]uint64, clueSpace)
	// Requests are signed up front so that no client-side ECDSA lands in
	// the measured window.
	type signed struct {
		clue int
		body []byte
	}
	reqs := make([]signed, preload+5*cycles)
	for i := range reqs {
		c := int(zipf.Uint64())
		req := &journal.Request{
			LedgerURI: "ledger://readcost", Type: journal.TypeNormal, Nonce: uint64(i + 1),
			Payload: []byte(fmt.Sprintf("payload-%d", i)), Clues: []string{fmt.Sprintf("c%04d", c)},
		}
		if err := req.Sign(client); err != nil {
			t.Fatal(err)
		}
		reqs[i] = signed{c, appendBody(req)}
	}
	call := func(method, target string, body []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
	}
	next := 0
	appendOne := func() {
		call("POST", "/v1/append", reqs[next].body)
		versions[reqs[next].clue]++
		next++
	}
	proof := func() {
		size := l.Size()
		call("GET", fmt.Sprintf("/v1/proof/%d", size-1-rng.Uint64()%min(size, 4096)), nil)
	}
	hotClue := func() int {
		for {
			if c := int(zipf.Uint64()); versions[c] > 0 {
				return c
			}
		}
	}
	for next < preload {
		appendOne()
	}
	call("GET", "/v1/query?kind=prefix&prefix=c0001&limit=16", nil) // ingest the preload

	signs0, _ := sig.OpCounts()
	stateSigs0, _ := l.StateSigStats()
	for i := 0; i < cycles; i++ {
		appendOne()
		proof()
		appendOne()
		proof()
		appendOne()
		c := hotClue()
		n := versions[c]
		call("GET", fmt.Sprintf("/v1/clue/c%04d/proof?begin=%d&end=%d", c, n-min(n, 64), n), nil)
		appendOne()
		proof()
		appendOne()
		call("GET", fmt.Sprintf("/v1/query?kind=prefix&prefix=c%04d&limit=16", hotClue()), nil)
	}
	signs1, _ := sig.OpCounts()
	stateSigs1, reused := l.StateSigStats()
	stateSigs := stateSigs1 - stateSigs0
	// Every other signature of the window is one append's receipt.
	if got := signs1 - signs0 - 5*cycles; got != stateSigs {
		t.Fatalf("%d ECDSA signs beyond the receipts, StateSigStats says %d states were signed", got, stateSigs)
	}
	t.Logf("%d mixed_verify cycles: %d state signatures (%.2f per cycle, 5 reads each), %d reads under a held state, %d index-store creates+writes+fsyncs",
		cycles, stateSigs, float64(stateSigs)/cycles, reused, ixFS.mutations())
	if stateSigs > 2*cycles {
		t.Fatalf("%d state signatures in %d cycles: more than 2 per cycle, reads are paying for the commits before them again", stateSigs, cycles)
	}
	if stateSigs < cycles {
		t.Fatalf("%d state signatures in %d cycles: queries no longer sign the frontier", stateSigs, cycles)
	}
	if n := ixFS.mutations(); n != 0 {
		t.Fatalf("the query path issued %d creates, writes and fsyncs on the index store, want 0", n)
	}
}
