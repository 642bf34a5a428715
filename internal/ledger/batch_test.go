package ledger

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ledgerdb/internal/ca"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
)

func batchOf(t testing.TB, e *testEnv, n int) []*journal.Request {
	t.Helper()
	reqs := make([]*journal.Request, n)
	for i := range reqs {
		reqs[i] = e.request(t, fmt.Sprintf("batch-doc-%d", i), "batch-clue")
	}
	return reqs
}

func TestAppendBatchCommitsAll(t *testing.T) {
	e := newEnv(t, nil)
	br, txHashes, err := e.ledger.AppendBatch(batchOf(t, e, 25))
	if err != nil {
		t.Fatal(err)
	}
	if br.FirstJSN != 1 || br.Count != 25 || len(txHashes) != 25 {
		t.Fatalf("receipt: %+v", br)
	}
	if err := br.Verify(e.lsp.Public(), txHashes); err != nil {
		t.Fatalf("batch receipt: %v", err)
	}
	if e.ledger.Size() != 26 {
		t.Fatalf("size = %d", e.ledger.Size())
	}
	// Every journal in the batch verifies individually.
	for jsn := br.FirstJSN; jsn < br.FirstJSN+br.Count; jsn++ {
		p, err := e.ledger.ProveExistence(jsn, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
			t.Fatalf("jsn %d: %v", jsn, err)
		}
	}
	// The clue lineage covers the whole batch.
	if err := e.ledger.VerifyClueServer("batch-clue"); err != nil {
		t.Fatal(err)
	}
	recs, _ := e.ledger.ListClue("batch-clue")
	if len(recs) != 25 {
		t.Fatalf("lineage = %d", len(recs))
	}
}

func TestAppendBatchAllOrNothing(t *testing.T) {
	e := newEnv(t, nil)
	reqs := batchOf(t, e, 10)
	reqs[7].Payload = []byte("tampered-in-flight") // breaks π_c
	_, _, err := e.ledger.AppendBatch(reqs)
	if !errors.Is(err, journal.ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
	if e.ledger.Size() != 1 {
		t.Fatalf("partial batch committed: size = %d", e.ledger.Size())
	}
}

// TestBatchRejectNamesFirstBadRequest: with bad requests at indices 3
// and 20 — a broken π_c, and a time journal a client may not append —
// admission names request 3 on every one of 50 runs, however its
// workers race.
func TestBatchRejectNamesFirstBadRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	e := newEnv(t, nil)
	reqs := batchOf(t, e, 32)
	reqs[3].Payload = []byte("tampered-3")
	reqs[20].Type = journal.TypeTime
	if err := reqs[20].Sign(e.client); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		_, _, err := e.ledger.AppendBatch(reqs)
		if !errors.Is(err, journal.ErrBadSignature) || !strings.HasPrefix(err.Error(), "batch request 3: ") {
			t.Fatalf("run %d: %v; want request 3's bad signature", run, err)
		}
	}
	if e.ledger.Size() != 1 {
		t.Fatalf("a refused batch committed: size = %d", e.ledger.Size())
	}
}

func TestAppendBatchRejectsEmptyAndPrivileged(t *testing.T) {
	e := newEnv(t, nil)
	if _, _, err := e.ledger.AppendBatch(nil); !errors.Is(err, journal.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
	req := e.request(t, "x")
	req.Type = journal.TypeTime
	if err := req.Sign(e.client); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ledger.AppendBatch([]*journal.Request{req}); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v", err)
	}
}

func TestBatchReceiptDetectsTampering(t *testing.T) {
	e := newEnv(t, nil)
	br, txHashes, err := e.ledger.AppendBatch(batchOf(t, e, 5))
	if err != nil {
		t.Fatal(err)
	}
	// A swapped tx-hash list must not verify.
	bad := append([]hashutil.Digest(nil), txHashes...)
	bad[1], bad[2] = bad[2], bad[1]
	if err := br.Verify(e.lsp.Public(), bad); err == nil {
		t.Fatal("reordered batch accepted")
	}
	// A truncated list must not verify.
	if err := br.Verify(e.lsp.Public(), txHashes[:4]); err == nil {
		t.Fatal("truncated batch accepted")
	}
	// LSP repudiation: mutate the range after signing.
	br.Count++
	if err := br.Verify(e.lsp.Public(), nil); !errors.Is(err, journal.ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendBatchMatchesSequentialRoots(t *testing.T) {
	// The batch path must produce exactly the accumulator state a
	// sequential replay of the same records would: rebuild a shadow fam
	// from the digest stream and compare roots, then interleave batches
	// with single appends and re-verify everything.
	e := newEnv(t, nil)
	if _, _, err := e.ledger.AppendBatch(batchOf(t, e, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Append(e.request(t, "single-1", "batch-clue")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ledger.AppendBatch(batchOf(t, e, 5)); err != nil {
		t.Fatal(err)
	}
	shadow := fam.MustNew(e.cfg.FractalHeight)
	for jsn := uint64(0); jsn < e.ledger.Size(); jsn++ {
		d, err := e.ledger.TxHash(jsn)
		if err != nil {
			t.Fatal(err)
		}
		shadow.Append(d)
	}
	want, err := shadow.Root()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := e.ledger.State()
	if st.JournalRoot != want {
		t.Fatal("batch path diverged from sequential digest replay")
	}
	// Recovery reproduces the same roots.
	l2, err := Open(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := l2.State()
	if st2.JournalRoot != st.JournalRoot || st2.ClueRoot != st.ClueRoot {
		t.Fatal("recovery diverged after batched appends")
	}
}

func TestAppendBatchWithRegistry(t *testing.T) {
	// Registry-gated batch: an uncertified client is rejected wholesale.
	auth := ca.NewTestAuthority("batch-root")
	e := newEnv(t, func(c *Config) {
		c.Registry = ca.NewRegistry(auth.Public()) // no user certs admitted
	})
	_, _, err := e.ledger.AppendBatch(batchOf(t, e, 3))
	if !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v", err)
	}
	// Certify the client: the same batch now commits.
	cert, err := auth.Issue(e.client.Public(), ca.RoleUser, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cfg.Registry.Admit(cert); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ledger.AppendBatch(batchOf(t, e, 3)); err != nil {
		t.Fatal(err)
	}
}
