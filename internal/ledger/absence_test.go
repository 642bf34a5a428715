package ledger

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
)

func TestAbsenceProveAndVerify(t *testing.T) {
	e := newEnv(t, nil)
	for _, c := range []string{"bravo", "delta", "foxtrot"} {
		e.append(t, "doc-"+c, c)
	}
	lsp := e.lsp.Public()
	for _, q := range []string{"alpha", "charlie", "echo", "zulu"} {
		ap, err := e.ledger.ProveAbsence(q, false)
		if err != nil {
			t.Fatalf("ProveAbsence(%q): %v", q, err)
		}
		if err := VerifyAbsence(lsp, ap); err != nil {
			t.Fatalf("VerifyAbsence(%q): %v", q, err)
		}
	}
	// Boundary shapes: no pred below the set, no succ above it.
	below, _ := e.ledger.ProveAbsence("aaa", false)
	if below.HasPred || !below.HasSucc || below.SuccIndex != 0 {
		t.Fatalf("below-set proof shape wrong: %+v", below)
	}
	above, _ := e.ledger.ProveAbsence("zzz", false)
	if above.HasSucc || !above.HasPred {
		t.Fatalf("above-set proof shape wrong: %+v", above)
	}
}

func TestAbsencePresentClue(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "doc", "invoice/2024")
	if _, err := e.ledger.ProveAbsence("invoice/2024", false); !errors.Is(err, ErrPresent) {
		t.Fatalf("err = %v, want ErrPresent", err)
	}
	if _, err := e.ledger.ProveAbsence("invoice/", true); !errors.Is(err, ErrPresent) {
		t.Fatalf("prefix err = %v, want ErrPresent", err)
	}
	// A different prefix with no live extension proves absent.
	ap, err := e.ledger.ProveAbsence("receipt/", true)
	if err != nil {
		t.Fatalf("ProveAbsence(receipt/): %v", err)
	}
	if err := VerifyAbsence(e.lsp.Public(), ap); err != nil {
		t.Fatal(err)
	}
}

func TestAbsenceEmptyLedger(t *testing.T) {
	e := newEnv(t, nil)
	// Genesis carries no client clues: the clue set is empty.
	ap, err := e.ledger.ProveAbsence("anything", false)
	if err != nil {
		t.Fatal(err)
	}
	if ap.HasPred || ap.HasSucc {
		t.Fatal("empty-set proof must have no neighbors")
	}
	if err := VerifyAbsence(e.lsp.Public(), ap); err != nil {
		t.Fatal(err)
	}
}

// TestAbsenceTamperRejected mutates every load-bearing field of a valid
// proof and checks the verifier rejects each one.
func TestAbsenceTamperRejected(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 8; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), fmt.Sprintf("clue-%02d", i*2))
	}
	lsp := e.lsp.Public()
	fresh := func() *AbsenceProof {
		ap, err := e.ledger.ProveAbsence("clue-07", false)
		if err != nil {
			t.Fatal(err)
		}
		return ap
	}
	mutations := map[string]func(*AbsenceProof){
		"name":        func(p *AbsenceProof) { p.Name = "clue-06" }, // a live clue
		"pred":        func(p *AbsenceProof) { p.Pred = "clue-05" },
		"succ":        func(p *AbsenceProof) { p.Succ = "clue-09" },
		"pred-index":  func(p *AbsenceProof) { p.PredIndex++ },
		"succ-index":  func(p *AbsenceProof) { p.SuccIndex++ },
		"pred-path":   func(p *AbsenceProof) { p.PredPath[0][0] ^= 1 },
		"succ-path":   func(p *AbsenceProof) { p.SuccPath[0][0] ^= 1 },
		"drop-pred":   func(p *AbsenceProof) { p.HasPred = false },
		"drop-succ":   func(p *AbsenceProof) { p.HasSucc = false },
		"clue-count":  func(p *AbsenceProof) { p.State.ClueCount++ },
		"state-root":  func(p *AbsenceProof) { p.State.ClueSetRoot = hashutil.Zero },
		"prefix-flip": func(p *AbsenceProof) { p.Prefix = true; p.Name = "clue-0" }, // live extensions exist
	}
	for name, mutate := range mutations {
		ap := fresh()
		mutate(ap)
		if err := VerifyAbsence(lsp, ap); err == nil {
			t.Fatalf("mutation %q: verification must fail", name)
		}
	}
	// Wrong LSP key fails even on the untampered proof.
	if err := VerifyAbsence(sig.GenerateDeterministic("other").Public(), fresh()); err == nil {
		t.Fatal("wrong LSP key must fail")
	}
}

func TestAbsenceCodecRoundTrip(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "a", "kilo")
	e.append(t, "b", "mike")
	ap, err := e.ledger.ProveAbsence("lima", false)
	if err != nil {
		t.Fatal(err)
	}
	raw := ap.EncodeBytes()
	got, err := DecodeAbsenceProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.EncodeBytes() == nil || string(got.EncodeBytes()) != string(raw) {
		t.Fatal("decode/encode is not a fixpoint")
	}
	if err := VerifyAbsence(e.lsp.Public(), got); err != nil {
		t.Fatalf("decoded proof fails verification: %v", err)
	}
	if _, err := DecodeAbsenceProof(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated proof must not decode")
	}
	if _, err := DecodeAbsenceProof(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing garbage must not decode")
	}
}

// TestAbsenceAfterPurge pins the live-set semantics: a clue whose whole
// lineage is purged leaves the committed clue set, so its absence
// becomes provable even though cmtree still remembers it.
func TestAbsenceAfterPurge(t *testing.T) {
	e := newEnv(t, nil)
	// K's whole lineage (jsns 1..4) sits below the purge point; the
	// "other" record above it keeps the point legal.
	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	e.append(t, "keeper", "other")
	desc := &PurgeDescriptor{URI: "ledger://test", Point: 5, ErasePayloads: true}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(e.dba); err != nil {
		t.Fatal(err)
	}
	if err := ms.SignWith(e.client); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.ProveAbsence("K", false); !errors.Is(err, ErrPresent) {
		t.Fatalf("pre-purge err = %v, want ErrPresent", err)
	}
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	ap, err := e.ledger.ProveAbsence("K", false)
	if err != nil {
		t.Fatalf("post-purge ProveAbsence: %v", err)
	}
	if err := VerifyAbsence(e.lsp.Public(), ap); err != nil {
		t.Fatalf("post-purge VerifyAbsence: %v", err)
	}
	// A clue appended after the purge is live again.
	e.append(t, "fresh", "K")
	if _, err := e.ledger.ProveAbsence("K", false); !errors.Is(err, ErrPresent) {
		t.Fatalf("re-append err = %v, want ErrPresent", err)
	}
}

func TestQueryValidateAndMatches(t *testing.T) {
	var q Query
	if err := q.Validate(); err == nil {
		t.Fatal("zero query must not validate")
	}
	q = Query{Kind: QueryByTime, From: 10, To: 5}
	if err := q.Validate(); err == nil {
		t.Fatal("inverted time range must not validate")
	}
	q = Query{Kind: QueryBySigner}
	if err := q.Validate(); err == nil {
		t.Fatal("zero signer must not validate")
	}
	q = Query{Kind: QueryByPrefix, Prefix: "inv"}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.EffectiveLimit() != MaxProofBatch {
		t.Fatalf("unlimited EffectiveLimit = %d, want %d", q.EffectiveLimit(), MaxProofBatch)
	}
	q.Limit = 7
	if q.EffectiveLimit() != 7 {
		t.Fatalf("EffectiveLimit = %d, want 7", q.EffectiveLimit())
	}
}

func TestQueryCodecRoundTrip(t *testing.T) {
	qs := []Query{
		{Kind: QueryByPrefix, Prefix: "invoice/", Limit: 9, WithPayload: true},
		{Kind: QueryByTime, From: -5, To: 1 << 40},
		{Kind: QueryBySigner, Signer: sig.GenerateDeterministic("s").Public()},
	}
	for _, q := range qs {
		raw := q.EncodeBytes()
		got, err := DecodeQuery(raw)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip: got %+v, want %+v", got, q)
		}
	}
}

// TestVerifyQueryResultRejectsNonMatch pins the tamper defense: a
// server cannot slip a proven-but-irrelevant record into a query reply,
// because the verifier re-checks the predicate against proven content.
func TestVerifyQueryResultRejectsNonMatch(t *testing.T) {
	e := newEnv(t, nil)
	r1 := e.append(t, "doc-1", "invoice/1")
	e.append(t, "doc-2", "receipt/1")
	lsp := e.lsp.Public()

	q := Query{Kind: QueryByPrefix, Prefix: "invoice/"}
	batch, err := e.ledger.ProveExistenceBatch([]uint64{r1.JSN}, false, Held{})
	if err != nil {
		t.Fatal(err)
	}
	res := &QueryResult{Query: q, Batch: batch}
	recs, err := VerifyQueryResult(lsp, q, res)
	if err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].JSN != r1.JSN {
		t.Fatalf("got %d records", len(recs))
	}

	// Echoed query mismatch.
	if _, err := VerifyQueryResult(lsp, Query{Kind: QueryByPrefix, Prefix: "receipt/"}, res); err == nil {
		t.Fatal("query echo mismatch must fail")
	}
	// Proven record that does not satisfy the predicate.
	wrong := Query{Kind: QueryByPrefix, Prefix: "receipt/"}
	res2 := &QueryResult{Query: wrong, Batch: batch}
	if _, err := VerifyQueryResult(lsp, wrong, res2); err == nil ||
		!strings.Contains(err.Error(), "non-match") {
		t.Fatalf("non-matching record: err = %v", err)
	}
	// Empty prefix reply without an absence proof.
	empty := &QueryResult{Query: q}
	if _, err := VerifyQueryResult(lsp, q, empty); err == nil {
		t.Fatal("empty prefix reply without absence proof must fail")
	}
}

func TestQueryResultCodecRoundTrip(t *testing.T) {
	e := newEnv(t, nil)
	r := e.append(t, "doc", "golf")
	q := Query{Kind: QueryByPrefix, Prefix: "golf"}
	batch, err := e.ledger.ProveExistenceBatch([]uint64{r.JSN}, true, Held{})
	if err != nil {
		t.Fatal(err)
	}
	res := &QueryResult{Query: q, Batch: batch}
	raw := res.EncodeBytes()
	got, err := DecodeQueryResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.EncodeBytes()) != string(raw) {
		t.Fatal("decode/encode is not a fixpoint")
	}
	if _, err := VerifyQueryResult(e.lsp.Public(), q, got); err != nil {
		t.Fatal(err)
	}

	// Absence-carrying empty result round-trips too.
	ap, err := e.ledger.ProveAbsence("hotel", true)
	if err != nil {
		t.Fatal(err)
	}
	qa := Query{Kind: QueryByPrefix, Prefix: "hotel"}
	resA := &QueryResult{Query: qa, Absence: ap}
	gotA, err := DecodeQueryResult(resA.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyQueryResult(e.lsp.Public(), qa, gotA); err != nil {
		t.Fatal(err)
	}
}
