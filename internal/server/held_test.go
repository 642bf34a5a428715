package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/benchkit"
	"ledgerdb/internal/client"
	"ledgerdb/internal/index"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/streamfs/faultfs"
)

// journalReadFS counts the positioned reads a disk store issues against
// the journal stream's segment files.
type journalReadFS struct {
	streamfs.FileSystem
	reads atomic.Int64
}

type journalReadFile struct {
	streamfs.File
	fs *journalReadFS
}

func (f journalReadFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	return f.File.ReadAt(p, off)
}

func (c *journalReadFS) OpenRead(p string) (streamfs.File, error) {
	f, err := c.FileSystem.OpenRead(p)
	if err != nil || !strings.HasPrefix(path.Base(p), ledger.StreamJournals+".seg.") {
		return f, err
	}
	return journalReadFile{f, c}, nil
}

// bodyCounter adds up response body bytes, as ledgerbench's transport
// does for resp_bytes_per_op.
type bodyCounter struct{ n atomic.Int64 }

func (b *bodyCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.n.Add(int64(len(body)))
	resp.Body = io.NopCloser(strings.NewReader(string(body)))
	return resp, err
}

// TestHeldReadsSendNoRecordBytes is the guard scripts/check.sh perf runs
// for held records. On a ledger of 1 024 journals over 300 clues (disk
// streams on a counting file system, the benchmark's δ = 15 and block
// size), a repeat read of an unchanged 64-version clue and a repeat
// Limit-16 query read no journal from the stream, and the warm clue
// reply fits testdata/clue_warm64_bytes_budget. The size repeats exactly
// between runs, so the budget is the measured value: lower it when
// replies shrink, never raise it to admit a regression.
func TestHeldReadsSendNoRecordBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/clue_warm64_bytes_budget")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("bad budget file: %v", err)
	}
	fs := &journalReadFS{FileSystem: faultfs.NewDisk()}
	store, err := streamfs.OpenDisk("ledger", streamfs.DiskOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	lsp := sig.GenerateDeterministic("held/lsp")
	l, err := ledger.Open(ledger.Config{
		URI: "ledger://held", FractalHeight: 15, BlockSize: 128, LSP: lsp,
		DBA:   sig.GenerateDeterministic("held/dba").Public(),
		Store: store, Blobs: streamfs.NewMemoryBlobs(), Clock: logicalclock.New(9_000_000).Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := server.New(l, nil)
	if srv.Index, err = index.Open(l, streamfs.NewMemory()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	counted := &bodyCounter{}
	cli := &client.Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: counted}, LSP: lsp.Public(), URI: "ledger://held"}
	// Another member writes: a client holds its own writes from the start.
	writer := &client.Client{BaseURL: ts.URL, Key: sig.GenerateDeterministic("held/client"), LSP: lsp.Public(), URI: "ledger://held"}
	// Every 16th journal is the hot clue's: 64 versions among 1 024.
	for batch := 0; batch < 4; batch++ {
		payloads, clues := make([][]byte, 256), make([][]string, 256)
		for j := range payloads {
			i := batch*256 + j
			payloads[j] = []byte(fmt.Sprintf("payload-%d", i))
			clues[j] = []string{fmt.Sprintf("c%03d", i%300)}
			if i%16 == 0 {
				clues[j] = []string{"hot"}
			}
		}
		if _, _, err := writer.AppendBatch(payloads, clues); err != nil {
			t.Fatal(err)
		}
	}
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "hot", Limit: 16}
	if _, err := cli.QueryRecords(ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "c001"}); err != nil {
		t.Fatal(err) // the index ingests the ledger here, not inside a measured read
	}

	read := func(what string, do func() (int, error)) (reads, bytes int64) {
		t.Helper()
		r0, b0 := fs.reads.Load(), counted.n.Load()
		if n, err := do(); err != nil || (n != 64 && n != 16) {
			t.Fatalf("%s: %d records, %v", what, n, err)
		}
		return fs.reads.Load() - r0, counted.n.Load() - b0
	}
	hits0, misses0 := cli.HeldStats()
	clue := func() (int, error) { recs, err := cli.VerifyClue("hot", 0, 64); return len(recs), err }
	query := func() (int, error) { recs, err := cli.QueryRecords(q); return len(recs), err }
	coldReads, coldBytes := read("cold clue read", clue)
	warmReads, warmBytes := read("warm clue read", clue)
	qColdReads, qColdBytes := read("cold query", query)
	qWarmReads, qWarmBytes := read("warm query", query)
	hits, misses := cli.HeldStats()
	hits, misses = hits-hits0, misses-misses0
	t.Logf("64-version clue: cold %d B / %d journal reads, warm %d B / %d reads (budget %d B); Limit-16 query: cold %d B / %d reads, warm %d B / %d reads; held records %d hits, %d misses",
		coldBytes, coldReads, warmBytes, warmReads, budget, qColdBytes, qColdReads, qWarmBytes, qWarmReads, hits, misses)
	if coldReads != 64 || qColdReads != 16 {
		t.Fatalf("cold reads read %d and %d journals, want 64 and 16 (is the counter still on the journal stream?)", coldReads, qColdReads)
	}
	if warmReads != 0 || qWarmReads != 0 {
		t.Fatalf("warm reads read %d and %d journals, want 0", warmReads, qWarmReads)
	}
	if hits != 64+16 || misses != 64+16 {
		t.Fatalf("held records: %d hits, %d misses; want 80 and 80", hits, misses)
	}
	if warmBytes > int64(budget) {
		t.Fatalf("warm 64-version clue reply is %d bytes, budget %d (testdata/clue_warm64_bytes_budget)", warmBytes, budget)
	}
}

// TestRouterQueriesWithHeldRecords: the router ignores held, so a member
// reading through it gets whole replies (and files nothing); a
// client-backed router's per-shard clients name held records to their
// shards, and the results they re-encode for the member are whole too.
// Both topologies answer a repeated query correctly.
func TestRouterQueriesWithHeldRecords(t *testing.T) {
	for _, local := range []bool{true, false} {
		tp := newParityTopo(t, local, server.Options{})
		clue := tp.clueOn(1, 0)
		for i := 0; i < 6; i++ {
			if _, err := tp.cli.Append([]byte(fmt.Sprintf("p%d", i)), clue); err != nil {
				t.Fatal(err)
			}
		}
		q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: clue}
		for round := 0; round < 3; round++ {
			recs, err := tp.cli.QueryRecords(q)
			if err != nil || len(recs) != 6 {
				t.Fatalf("%s round %d: %d records, %v", tp.name(), round, len(recs), err)
			}
		}
		if h, m := tp.cli.HeldStats(); h != 0 || m != 0 {
			t.Fatalf("%s: the member filed router replies: %d hits, %d misses", tp.name(), h, m)
		}
		if !local {
			b := tp.router.Backends[1].(*client.Client)
			if h, m := b.HeldStats(); h != 12 || m != 6 {
				t.Fatalf("shard client held stats %d hits / %d misses, want 12 / 6", h, m)
			}
		}
	}
}

// TestWarmSealedProofBytes is the guard scripts/check.sh perf runs for
// held states and learned sealed roots, on the 40 001-journal proof_read
// fixture (benchkit.ProofReadLedger: δ = 15, so epoch 0 is sealed and
// holds 82 % of it). A client's first read of an epoch-0 journal is cold
// and teaches it the epoch's root; its next read of one is the in-epoch
// path alone and fits testdata/proof_warm_bytes_budget (the reply body,
// envelope included), and 1 000 more of them sign no state. The size
// repeats exactly between runs — no signature is in it — so the budget
// is the measured value: lower it when replies shrink, never raise it to
// admit a regression.
func TestWarmSealedProofBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/proof_warm_bytes_budget")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("bad budget file: %v", err)
	}
	tl, _, err := benchkit.ProofReadLedger()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.L.Close()
	ts := httptest.NewServer(server.New(tl.L, nil))
	defer ts.Close()
	counted := &bodyCounter{}
	cli := &client.Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: counted}, LSP: tl.LSP.Public(), URI: tl.L.URI()}
	read := func(jsn uint64) int64 {
		t.Helper()
		b0 := counted.n.Load()
		if rec, _, err := cli.VerifyExistence(jsn, false); err != nil || rec.JSN != jsn {
			t.Fatalf("verify %d: %v", jsn, err)
		}
		return counted.n.Load() - b0
	}
	cold := read(1)
	warm := read(2)
	open := read(tl.L.Size() - 1)
	openWarm := read(tl.L.Size() - 2)
	signed0, _ := tl.L.StateSigStats()
	for i := uint64(0); i < 1000; i++ {
		read(3 + 31*i)
	}
	signed, _ := tl.L.StateSigStats()
	sent, held, none := cli.StateSlotStats()
	t.Logf("epoch-0 journal: cold %d B, warm %d B (budget %d B); open-epoch journal: first %d B, held state %d B; slots sent %d, held %d, none %d",
		cold, warm, budget, open, openWarm, sent, held, none)
	if sent != 1 || held != 2 || none != 1001 {
		t.Fatalf("state slots: sent %d, held %d, none %d; want 1, 2 and 1001", sent, held, none)
	}
	if signed != signed0 {
		t.Fatalf("1 000 warm sealed-epoch proofs signed %d states", signed-signed0)
	}
	if warm > int64(budget) {
		t.Fatalf("warm sealed-epoch reply is %d bytes, budget %d (testdata/proof_warm_bytes_budget)", warm, budget)
	}
}

// TestOwnWritesHeld is the guard scripts/check.sh perf runs for own
// writes. A client appends 16 journals one by one and 16 more in one
// batch (disk streams on a counting file system, the benchmark's δ = 15
// and block size), then proves each and reads the clue's whole lineage:
// every record slot of those 33 replies is a placeholder (HeldStats
// counts 64 hits and no miss) and the service reads no journal from the
// stream. After the first proof, which teaches the client the signed
// state, the 32 replies carry no signature, so their size repeats
// exactly between runs and fits testdata/proof_own_bytes_budget: lower
// it when replies shrink, never raise it to admit a regression. A
// client that wrote nothing gets every record in full.
func TestOwnWritesHeld(t *testing.T) {
	raw, err := os.ReadFile("testdata/proof_own_bytes_budget")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("bad budget file: %v", err)
	}
	fs := &journalReadFS{FileSystem: faultfs.NewDisk()}
	store, err := streamfs.OpenDisk("ledger", streamfs.DiskOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	lsp := sig.GenerateDeterministic("own/lsp")
	l, err := ledger.Open(ledger.Config{
		URI: "ledger://own", FractalHeight: 15, BlockSize: 128, LSP: lsp,
		DBA:   sig.GenerateDeterministic("own/dba").Public(),
		Store: store, Blobs: streamfs.NewMemoryBlobs(), Clock: logicalclock.New(9_000_000).Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ts := httptest.NewServer(server.New(l, nil))
	defer ts.Close()
	counted := &bodyCounter{}
	cli := &client.Client{
		BaseURL: ts.URL, HTTP: &http.Client{Transport: counted},
		Key: sig.GenerateDeterministic("own/client"), LSP: lsp.Public(), URI: "ledger://own",
	}
	const each = 16
	var jsns []uint64
	for i := 0; i < each; i++ {
		rc, err := cli.Append([]byte(fmt.Sprintf("own-%d", i)), "own")
		if err != nil {
			t.Fatal(err)
		}
		jsns = append(jsns, rc.JSN)
	}
	payloads, clues := make([][]byte, each), make([][]string, each)
	for i := range payloads {
		payloads[i], clues[i] = []byte(fmt.Sprintf("own-batch-%d", i)), []string{"own"}
	}
	br, _, err := cli.AppendBatch(payloads, clues)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		jsns = append(jsns, br.FirstJSN+uint64(i))
	}

	// readAll proves every jsn and the clue through c, returning the reply
	// bytes after the first proof and the journal reads of all of them.
	readAll := func(c *client.Client) (bytes, reads int64) {
		t.Helper()
		var b0 int64
		r0 := fs.reads.Load()
		for i, jsn := range jsns {
			if i == 1 {
				b0 = counted.n.Load()
			}
			if rec, _, err := c.VerifyExistence(jsn, false); err != nil || rec.JSN != jsn {
				t.Fatalf("verify %d: %v", jsn, err)
			}
		}
		if recs, err := c.VerifyClue("own", 0, 0); err != nil || len(recs) != 2*each {
			t.Fatalf("clue: %d records, %v", len(recs), err)
		}
		return counted.n.Load() - b0, fs.reads.Load() - r0
	}
	own, ownReads := readAll(cli)
	fresh := &client.Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: counted}, LSP: lsp.Public(), URI: "ledger://own"}
	cold, coldReads := readAll(fresh)
	hits, misses := cli.HeldStats()
	fh, fm := fresh.HeldStats()
	t.Logf("32 own writes: %d B over 31 proofs and one clue read (budget %d B), %d journal reads; a client that wrote nothing: %d B, %d reads",
		own, budget, ownReads, cold, coldReads)
	if hits != 4*each || misses != 0 {
		t.Fatalf("own writes read back with %d hits, %d misses; want %d and 0", hits, misses, 4*each)
	}
	if fh != 0 || fm != 4*each {
		t.Fatalf("a client that wrote nothing: %d hits, %d misses; want 0 and %d", fh, fm, 4*each)
	}
	if ownReads != 0 || coldReads != 4*each {
		t.Fatalf("journal reads: %d for the writer, %d for a fresh client; want 0 and %d", ownReads, coldReads, 4*each)
	}
	if own > int64(budget) {
		t.Fatalf("own-write replies are %d bytes, budget %d (testdata/proof_own_bytes_budget)", own, budget)
	}
}
