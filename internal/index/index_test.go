package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// env wires a deterministic ledger for the sidecar under test.
type env struct {
	ledger *ledger.Ledger
	lsp    *sig.KeyPair
	dba    *sig.KeyPair
	client *sig.KeyPair
	clock  int64
	nonce  uint64
}

func newEnv(t testing.TB) *env {
	t.Helper()
	e := &env{
		lsp:    sig.GenerateDeterministic("ix-lsp"),
		dba:    sig.GenerateDeterministic("ix-dba"),
		client: sig.GenerateDeterministic("ix-client"),
		clock:  1000,
	}
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://ix",
		FractalHeight: 3,
		BlockSize:     4,
		LSP:           e.lsp,
		DBA:           e.dba.Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock: func() int64 {
			e.clock++
			return e.clock
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	e.ledger = l
	return e
}

func (e *env) append(t testing.TB, payload string, clues ...string) *journal.Receipt {
	t.Helper()
	return e.appendAs(t, e.client, payload, clues...)
}

func (e *env) appendAs(t testing.TB, key *sig.KeyPair, payload string, clues ...string) *journal.Receipt {
	t.Helper()
	e.nonce++
	req := &journal.Request{
		LedgerURI: "ledger://ix",
		Type:      journal.TypeNormal,
		Clues:     clues,
		Payload:   []byte(payload),
		Nonce:     e.nonce,
	}
	if err := req.Sign(key); err != nil {
		t.Fatal(err)
	}
	r, err := e.ledger.Append(req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (e *env) purgeAll(t testing.TB, point uint64) {
	t.Helper()
	desc := &ledger.PurgeDescriptor{URI: "ledger://ix", Point: point, ErasePayloads: true}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(e.dba); err != nil {
		t.Fatal(err)
	}
	if err := ms.SignWith(e.client); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t testing.TB, e *env, store streamfs.Store) *Index {
	t.Helper()
	ix, err := Open(e.ledger, store)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestRebuildIsByteIdentical is the acceptance check: a warm reopen
// from the sidecar log and a cold rebuild from a deleted sidecar must
// produce byte-identical projections.
func TestRebuildIsByteIdentical(t *testing.T) {
	e := newEnv(t)
	store := streamfs.NewMemory()
	ix := mustOpen(t, e, store)
	for i := 0; i < 20; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), fmt.Sprintf("clue-%d", i%5))
	}
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	want := ix.ProjectionBytes()

	warm := mustOpen(t, e, store) // same sidecar log
	if !bytes.Equal(warm.ProjectionBytes(), want) {
		t.Fatal("warm reopen diverges from live projections")
	}
	cold := mustOpen(t, e, streamfs.NewMemory()) // rm -rf equivalent
	if !bytes.Equal(cold.ProjectionBytes(), want) {
		t.Fatal("cold rebuild diverges from live projections")
	}
	if err := cold.CrossCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryKindsVerify exercises all three projections end to end:
// every result must pass offline verification against the LSP key.
func TestQueryKindsVerify(t *testing.T) {
	e := newEnv(t)
	other := sig.GenerateDeterministic("ix-other")
	ix := mustOpen(t, e, streamfs.NewMemory())
	var invoiceJSNs []uint64
	for i := 0; i < 6; i++ {
		r := e.append(t, fmt.Sprintf("inv-%d", i), fmt.Sprintf("invoice/%d", i))
		invoiceJSNs = append(invoiceJSNs, r.JSN)
	}
	e.appendAs(t, other, "foreign", "receipt/1")
	lsp := e.lsp.Public()

	byPrefix := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "invoice/"}
	res, err := ix.Query(byPrefix)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.VerifyQueryResult(lsp, byPrefix, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(invoiceJSNs) {
		t.Fatalf("prefix matched %d records, want %d", len(recs), len(invoiceJSNs))
	}
	for i, rec := range recs {
		if rec.JSN != invoiceJSNs[i] {
			t.Fatalf("record %d: jsn %d, want %d", i, rec.JSN, invoiceJSNs[i])
		}
	}

	bySigner := ledger.Query{Kind: ledger.QueryBySigner, Signer: other.Public()}
	res, err = ix.Query(bySigner)
	if err != nil {
		t.Fatal(err)
	}
	recs, err = ledger.VerifyQueryResult(lsp, bySigner, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ClientPK != other.Public() {
		t.Fatalf("signer query returned %d records", len(recs))
	}

	// Half-open time range covering exactly the middle two appends.
	mid2, err := e.ledger.GetJournal(invoiceJSNs[2])
	if err != nil {
		t.Fatal(err)
	}
	mid3, err := e.ledger.GetJournal(invoiceJSNs[3])
	if err != nil {
		t.Fatal(err)
	}
	byTime := ledger.Query{Kind: ledger.QueryByTime, From: mid2.Timestamp, To: mid3.Timestamp + 1}
	res, err = ix.Query(byTime)
	if err != nil {
		t.Fatal(err)
	}
	recs, err = ledger.VerifyQueryResult(lsp, byTime, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("time window matched %d records, want 2", len(recs))
	}

	// Limits truncate deterministically from the front.
	limited := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "invoice/", Limit: 3}
	res, err = ix.Query(limited)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("limited query must report truncation")
	}
	if recs, err = ledger.VerifyQueryResult(lsp, limited, res); err != nil || len(recs) != 3 {
		t.Fatalf("limited: %d recs, err %v", len(recs), err)
	}
}

// TestEmptyPrefixCarriesAbsence pins the no-trust empty reply: an empty
// prefix result is only acceptable with a verifiable absence proof.
func TestEmptyPrefixCarriesAbsence(t *testing.T) {
	e := newEnv(t)
	ix := mustOpen(t, e, streamfs.NewMemory())
	e.append(t, "doc", "present")
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "missing/"}
	res, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Absence == nil {
		t.Fatal("empty prefix reply must carry an absence proof")
	}
	if recs, err := ledger.VerifyQueryResult(e.lsp.Public(), q, res); err != nil || len(recs) != 0 {
		t.Fatalf("verify: %d recs, err %v", len(recs), err)
	}
}

// TestPurgeThenQuery is the ISSUE regression: after a purge, the purged
// clue must yield a verifiable absence — never a stale hit — on both
// the live-tailing path and a cold rebuild.
func TestPurgeThenQuery(t *testing.T) {
	e := newEnv(t)
	store := streamfs.NewMemory()
	ix := mustOpen(t, e, store)
	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "doomed")
	}
	e.append(t, "keeper", "kept")
	if err := ix.Sync(); err != nil { // projections now hold the doomed rows
		t.Fatal(err)
	}
	e.purgeAll(t, 5) // jsns 1..4 (the whole "doomed" lineage) drop

	check := func(name string, ix *Index) {
		t.Helper()
		q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "doomed"}
		res, err := ix.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Batch != nil {
			t.Fatalf("%s: stale hit for a purged clue", name)
		}
		if res.Absence == nil {
			t.Fatalf("%s: no absence proof", name)
		}
		if recs, err := ledger.VerifyQueryResult(e.lsp.Public(), q, res); err != nil || len(recs) != 0 {
			t.Fatalf("%s: verify: %d recs, err %v", name, len(recs), err)
		}
		if err := ix.CrossCheck(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	check("live-tail", ix)                                      // prune during tailing
	check("warm-reopen", mustOpen(t, e, store))                 // stale log rows skipped
	check("cold-rebuild", mustOpen(t, e, streamfs.NewMemory())) // full replay

	// All three agree byte for byte.
	want := ix.ProjectionBytes()
	if !bytes.Equal(mustOpen(t, e, store).ProjectionBytes(), want) ||
		!bytes.Equal(mustOpen(t, e, streamfs.NewMemory()).ProjectionBytes(), want) {
		t.Fatal("post-purge projections diverge between rebuild paths")
	}

	// The surviving clue still answers.
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "kept"}
	res, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ledger.VerifyQueryResult(e.lsp.Public(), q, res); err != nil || len(recs) != 1 {
		t.Fatalf("survivor: %d recs, err %v", len(recs), err)
	}
}

// TestTamperedIndexNeverServedSilently is the acceptance tamper check:
// corrupt the live projections so the index nominates a wrong record;
// the proof layer must fail verification rather than serve it.
func TestTamperedIndexNeverServedSilently(t *testing.T) {
	e := newEnv(t)
	ix := mustOpen(t, e, streamfs.NewMemory())
	rIn := e.append(t, "in", "wanted")
	rOut := e.append(t, "out", "unrelated")
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}
	// Tamper: point the "wanted" clue at the unrelated record.
	ix.mu.Lock()
	ix.byClue["wanted"] = []uint64{rOut.JSN}
	ix.mu.Unlock()

	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "wanted"}
	res, err := ix.queryOnce(q) // bypass Query's Sync so the tamper persists
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.VerifyQueryResult(e.lsp.Public(), q, res); err == nil {
		t.Fatal("tampered index entry served silently: verification passed")
	}
	if err := ix.CrossCheck(); !errors.Is(err, ErrMismatch) {
		t.Fatalf("CrossCheck err = %v, want ErrMismatch", err)
	}
	_ = rIn
}

// TestCrossCheckCatchesEveryProjection corrupts each projection in turn.
func TestCrossCheckCatchesEveryProjection(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "k")
	}
	corruptions := map[string]func(*Index){
		"by-clue":   func(ix *Index) { ix.byClue["k"] = ix.byClue["k"][:1] },
		"by-time":   func(ix *Index) { ix.byTime[0].ts++ },
		"by-signer": func(ix *Index) { delete(ix.bySigner, e.client.Public()) },
	}
	for name, corrupt := range corruptions {
		ix := mustOpen(t, e, streamfs.NewMemory())
		if err := ix.CrossCheck(); err != nil {
			t.Fatalf("%s: clean index: %v", name, err)
		}
		ix.mu.Lock()
		corrupt(ix)
		ix.mu.Unlock()
		if err := ix.CrossCheck(); !errors.Is(err, ErrMismatch) {
			t.Fatalf("%s: err = %v, want ErrMismatch", name, err)
		}
	}
}

// TestSyncIsIncremental pins the watermark logic: appends after open
// are picked up by the next query without reopening.
func TestSyncIsIncremental(t *testing.T) {
	e := newEnv(t)
	ix := mustOpen(t, e, streamfs.NewMemory())
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "late"}
	res, err := ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Absence == nil {
		t.Fatal("expected verifiable absence before the append")
	}
	e.append(t, "doc", "late")
	res, err = ix.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.VerifyQueryResult(e.lsp.Public(), q, res)
	if err != nil || len(recs) != 1 {
		t.Fatalf("after append: %d recs, err %v", len(recs), err)
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	e := &entry{jsn: 42, ts: -7, signer: sig.GenerateDeterministic("x").Public(), clues: []string{"a", "b"}}
	w := wire.NewWriter(128)
	e.encode(w)
	got, err := decodeEntry(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.jsn != e.jsn || got.ts != e.ts || got.signer != e.signer || len(got.clues) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := decodeEntry(w.Bytes()[:3]); err == nil {
		t.Fatal("truncated entry must not decode")
	}
}

// naiveMatch is the reference the bounded merge replaced: gather every
// matching list whole, sort, dedupe, then cut.
func naiveMatch(lists [][]uint64, limit uint64) ([]uint64, bool) {
	var all []uint64
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:0]
	for i, j := range all {
		if i == 0 || j != all[i-1] {
			out = append(out, j)
		}
	}
	if uint64(len(out)) > limit {
		return out[:limit], true
	}
	return out, false
}

// TestMergeAscendingMatchesNaive: on seeded random non-decreasing lists
// with values shared across lists and repeated within one, and on a lone
// list with repeats, every limit yields the naive result and the same
// truncation verdict.
func TestMergeAscendingMatchesNaive(t *testing.T) {
	check := func(lists [][]uint64) {
		t.Helper()
		for limit := uint64(1); limit <= 40; limit += 3 {
			want, wantCut := naiveMatch(lists, limit)
			got := mergeAscending(lists, limit+1)
			cut := uint64(len(got)) > limit
			if cut {
				got = got[:limit]
			}
			if cut != wantCut || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("lists %v limit %d: got %v (truncated %v), want %v (%v)", lists, limit, got, cut, want, wantCut)
			}
		}
	}
	check([][]uint64{{1, 1, 2, 5, 5, 5, 9}})
	check([][]uint64{{3, 3}, nil})
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		lists := make([][]uint64, rng.Intn(6))
		for i := range lists {
			next := uint64(rng.Intn(4))
			for n := rng.Intn(12); n > 0; n-- {
				lists[i] = append(lists[i], next)
				next += uint64(rng.Intn(3))
			}
		}
		check(lists)
	}
}

// TestRepeatedClueQueryVerifies: a request may name one clue twice, which
// puts its jsn in that clue's list twice; a query matching only that
// clue still answers each journal once and verifies.
func TestRepeatedClueQueryVerifies(t *testing.T) {
	e := newEnv(t)
	first := e.append(t, "twice", "dup", "dup").JSN
	second := e.append(t, "once", "dup").JSN
	ix := mustOpen(t, e, streamfs.NewMemory())
	for _, limit := range []uint64{0, 1} {
		q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "dup", Limit: limit}
		want, cut := []uint64{first, second}, false
		if limit == 1 {
			want, cut = want[:1], true
		}
		if jsns, truncated := ix.match(q); fmt.Sprint(jsns) != fmt.Sprint(want) || truncated != cut {
			t.Fatalf("limit %d: matched %v (truncated %v), want %v (%v)", limit, jsns, truncated, want, cut)
		}
		res, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ledger.VerifyQueryResult(e.lsp.Public(), q, res)
		if err != nil || len(recs) != len(want) {
			t.Fatalf("limit %d: %d recs, err %v", limit, len(recs), err)
		}
	}
}

// TestHotClueQueryReadsOnlyTheLimit: a clue with far more versions than
// the limit answers with its oldest Limit versions in order, flagged
// truncated, in storage of its own; a prefix spanning the hot clue and
// its neighbours merges them, counting a two-clue journal once.
func TestHotClueQueryReadsOnlyTheLimit(t *testing.T) {
	e := newEnv(t)
	var both []uint64 // jsns carrying "hot", "hot/side" or both
	for i := 0; i < 300; i++ {
		clues := []string{"hot"}
		switch {
		case i%50 == 7:
			clues = []string{"hot", "hot/side"}
		case i%3 == 0:
			clues = []string{"hot/side"}
		}
		both = append(both, e.append(t, fmt.Sprintf("d%d", i), clues...).JSN)
	}
	ix := mustOpen(t, e, streamfs.NewMemory())
	for _, c := range []struct {
		name   string
		q      ledger.Query
		want   []uint64
		cutoff bool
	}{
		{"hot clue, limit 16", ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "hot", Limit: 16}, both[:16], true},
		{"signer, limit 16", ledger.Query{Kind: ledger.QueryBySigner, Signer: e.client.Public(), Limit: 16}, nil, true},
		{"whole hot prefix", ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "hot"}, both, false},
	} {
		jsns, truncated := ix.match(c.q)
		if c.want != nil && fmt.Sprint(jsns) != fmt.Sprint(c.want) {
			t.Fatalf("%s: matched %v, want %v", c.name, jsns, c.want)
		}
		if truncated != c.cutoff || uint64(len(jsns)) > c.q.EffectiveLimit() {
			t.Fatalf("%s: %d matches, truncated %v", c.name, len(jsns), truncated)
		}
		if c.cutoff && cap(jsns) > 4*16 {
			t.Fatalf("%s: a 16-match answer holds storage for %d jsns", c.name, cap(jsns))
		}
		res, err := ix.Query(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := ledger.VerifyQueryResult(e.lsp.Public(), c.q, res); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	// A one-list answer must not alias the projection (a later purge
	// compacts that list in place).
	signer := ledger.Query{Kind: ledger.QueryBySigner, Signer: e.client.Public(), Limit: 4}
	first, _ := ix.match(signer)
	first[0] = 1 << 40
	if again, _ := ix.match(signer); again[0] == 1<<40 {
		t.Fatal("match returned the projection's own storage")
	}
}
