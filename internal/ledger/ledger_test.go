package ledger

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/ca"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// testEnv wires a ledger with deterministic keys and a logical clock.
type testEnv struct {
	ledger *Ledger
	lsp    *sig.KeyPair
	dba    *sig.KeyPair
	client *sig.KeyPair
	clock  atomic.Int64
	store  streamfs.Store
	blobs  streamfs.BlobStore
	cfg    Config
	nonce  uint64
}

func newEnv(t testing.TB, mutate func(*Config)) *testEnv {
	t.Helper()
	e := &testEnv{
		lsp:    sig.GenerateDeterministic("lsp"),
		dba:    sig.GenerateDeterministic("dba"),
		client: sig.GenerateDeterministic("client"),
		store:  streamfs.NewMemory(),
		blobs:  streamfs.NewMemoryBlobs(),
	}
	e.clock.Store(1000)
	e.cfg = Config{
		URI:           "ledger://test",
		FractalHeight: 3,
		BlockSize:     4,
		LSP:           e.lsp,
		DBA:           e.dba.Public(),
		Store:         e.store,
		Blobs:         e.blobs,
		Clock: func() int64 {
			return e.clock.Add(1)
		},
	}
	if mutate != nil {
		mutate(&e.cfg)
	}
	l, err := Open(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.ledger = l
	return e
}

func (e *testEnv) request(t testing.TB, payload string, clues ...string) *journal.Request {
	t.Helper()
	e.nonce++
	req := &journal.Request{
		LedgerURI: "ledger://test",
		Type:      journal.TypeNormal,
		Clues:     clues,
		Payload:   []byte(payload),
		Nonce:     e.nonce,
	}
	if err := req.Sign(e.client); err != nil {
		t.Fatal(err)
	}
	return req
}

func (e *testEnv) append(t testing.TB, payload string, clues ...string) *journal.Receipt {
	t.Helper()
	r, err := e.ledger.Append(e.request(t, payload, clues...))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOpenWritesGenesis(t *testing.T) {
	e := newEnv(t, nil)
	if e.ledger.Size() != 1 {
		t.Fatalf("Size = %d, want 1 (genesis)", e.ledger.Size())
	}
	rec, err := e.ledger.GetJournal(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != journal.TypeGenesis {
		t.Fatalf("jsn 0 type = %s", rec.Type)
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	_, err := Open(Config{})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendAssignsDenseJSNs(t *testing.T) {
	e := newEnv(t, nil)
	for i := 1; i <= 10; i++ {
		r := e.append(t, fmt.Sprintf("payload-%d", i))
		if r.JSN != uint64(i) {
			t.Fatalf("jsn = %d, want %d", r.JSN, i)
		}
		if err := r.Verify(e.lsp.Public()); err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
	}
}

func TestAppendRejectsBadSignature(t *testing.T) {
	e := newEnv(t, nil)
	req := e.request(t, "payload")
	req.Payload = []byte("tampered-in-flight") // threat-A
	if _, err := e.ledger.Append(req); !errors.Is(err, journal.ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestAppendRejectsWrongURI(t *testing.T) {
	e := newEnv(t, nil)
	req := e.request(t, "payload")
	req.LedgerURI = "ledger://other"
	if err := req.Sign(e.client); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Append(req); !errors.Is(err, journal.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendRejectsPrivilegedTypes(t *testing.T) {
	e := newEnv(t, nil)
	for _, typ := range []journal.Type{journal.TypePurge, journal.TypeOccult, journal.TypeTime, journal.TypeGenesis} {
		req := e.request(t, "payload")
		req.Type = typ
		if err := req.Sign(e.client); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ledger.Append(req); !errors.Is(err, ErrNotPermitted) {
			t.Fatalf("type %s: err = %v, want ErrNotPermitted", typ, err)
		}
	}
}

func TestRegistryGatesAppends(t *testing.T) {
	auth := ca.NewTestAuthority("root")
	reg := ca.NewRegistry(auth.Public())
	e := newEnv(t, func(c *Config) { c.Registry = reg })
	// Uncertified client is rejected.
	if _, err := e.ledger.Append(e.request(t, "payload")); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v, want ErrNotPermitted", err)
	}
	cert, _ := auth.Issue(e.client.Public(), ca.RoleUser, "alice")
	if err := reg.Admit(cert); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Append(e.request(t, "payload")); err != nil {
		t.Fatalf("certified append: %v", err)
	}
}

func TestBlocksCutAtBlockSize(t *testing.T) {
	e := newEnv(t, nil) // BlockSize 4
	for i := 0; i < 13; i++ {
		e.append(t, fmt.Sprintf("p%d", i))
	}
	// 14 journals total (genesis + 13) => 3 full blocks of 4, 2 pending.
	if got := e.ledger.Height(); got != 3 {
		t.Fatalf("Height = %d, want 3", got)
	}
	h0, _ := e.ledger.Header(0)
	h1, _ := e.ledger.Header(1)
	h2, _ := e.ledger.Header(2)
	if h1.Prev != h0.Hash() || h2.Prev != h1.Hash() {
		t.Fatal("block chain broken")
	}
	if h0.FirstJSN != 0 || h0.Count != 4 || h1.FirstJSN != 4 {
		t.Fatalf("block ranges wrong: %+v %+v", h0, h1)
	}
	// CutBlock seals the partial tail.
	h3, err := e.ledger.CutBlock()
	if err != nil {
		t.Fatal(err)
	}
	if h3.Height != 3 || h3.FirstJSN != 12 || h3.Count != 2 {
		t.Fatalf("tail block: %+v", h3)
	}
	// CutBlock with nothing pending returns the last header.
	again, err := e.ledger.CutBlock()
	if err != nil || again.Height != 3 {
		t.Fatalf("idempotent cut: %+v, %v", again, err)
	}
}

func TestGetJournalAndPayload(t *testing.T) {
	e := newEnv(t, nil)
	r := e.append(t, "the payload", "clue-x")
	rec, err := e.ledger.GetJournal(r.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TxHash() != r.TxHash {
		t.Fatal("record tx-hash differs from receipt")
	}
	payload, err := e.ledger.GetPayload(r.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "the payload" {
		t.Fatalf("payload = %q", payload)
	}
	if _, err := e.ledger.GetJournal(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCorruptedBlobStoreDetected(t *testing.T) {
	// A malicious or faulty shared storage returns different bytes under
	// the recorded digest key: every payload read must fail loudly.
	e := newEnv(t, nil)
	r := e.append(t, "the true payload")
	rec, _ := e.ledger.GetJournal(r.JSN)
	if err := e.blobs.Delete(rec.PayloadDigest); err != nil {
		t.Fatal(err)
	}
	if err := e.blobs.Put(rec.PayloadDigest, []byte("substituted bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.GetPayload(r.JSN); !errors.Is(err, ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", err)
	}
	// The client-side verification also rejects the substituted payload.
	p, err := e.ledger.ProveExistence(r.JSN, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Payload != nil {
		if _, err := VerifyExistence(p, e.lsp.Public()); err == nil {
			t.Fatal("substituted payload verified")
		}
	}
}

func TestExistenceProofRoundTrip(t *testing.T) {
	e := newEnv(t, nil)
	var receipts []*journal.Receipt
	for i := 0; i < 30; i++ {
		receipts = append(receipts, e.append(t, fmt.Sprintf("doc-%d", i)))
	}
	for _, r := range receipts {
		p, err := e.ledger.ProveExistence(r.JSN, true)
		if err != nil {
			t.Fatalf("ProveExistence(%d): %v", r.JSN, err)
		}
		rec, err := VerifyExistence(p, e.lsp.Public())
		if err != nil {
			t.Fatalf("VerifyExistence(%d): %v", r.JSN, err)
		}
		if rec.JSN != r.JSN {
			t.Fatalf("verified record jsn %d, want %d", rec.JSN, r.JSN)
		}
		if string(p.Payload) != fmt.Sprintf("doc-%d", rec.JSN-1) {
			t.Fatalf("payload = %q", p.Payload)
		}
	}
}

func TestExistenceVerifyDetectsTampering(t *testing.T) {
	e := newEnv(t, nil)
	r := e.append(t, "original")
	p, _ := e.ledger.ProveExistence(r.JSN, true)

	// Tampered record bytes ("foobar" -> "foopar").
	bad := *p
	bad.RecordBytes = append([]byte(nil), p.RecordBytes...)
	bad.RecordBytes[len(bad.RecordBytes)/2] ^= 0x01
	if _, err := VerifyExistence(&bad, e.lsp.Public()); err == nil {
		t.Fatal("tampered record accepted")
	}
	// Tampered payload.
	bad2 := *p
	bad2.Payload = []byte("originaL")
	if _, err := VerifyExistence(&bad2, e.lsp.Public()); !errors.Is(err, ErrVerify) {
		t.Fatal("tampered payload accepted")
	}
	// Wrong LSP key.
	if _, err := VerifyExistence(p, sig.GenerateDeterministic("evil").Public()); err == nil {
		t.Fatal("wrong LSP accepted")
	}
}

// TestExistenceAnchored: a requester that learned epoch 0's root from a
// cold proof gets the proof at that epoch's end for a journal there — its
// in-epoch path alone, no state — and checks it against the learned root; a verifier without
// the root refuses it, and a proof of an open-epoch journal names no
// stateless path however many roots the request claims.
func TestExistenceAnchored(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 40; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i))
	}
	q := requester{roots: learnedRoots(t, e.ledger, 2)}
	p, err := e.ledger.ProveExistenceHeld(2, false, Held{Sealed: uint64(len(q.roots))})
	if err != nil {
		t.Fatal(err)
	}
	if ep, ok := p.Fam.SealedEpoch(); p.Slot != StateNone || p.State != nil || !ok || ep != 0 {
		t.Fatalf("learned-anchor proof: slot %d, at size %d", p.Slot, p.Fam.Size)
	}
	if _, err := q.verifyExistence(p, Verifier{LSP: e.lsp.Public()}); err != nil {
		t.Fatalf("anchored verify: %v", err)
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); !errors.Is(err, ErrVerify) {
		t.Fatalf("stateless proof without the learned root: err = %v", err)
	}
	p, err = e.ledger.ProveExistenceHeld(40, false, Held{Sealed: 1 << 40})
	if err != nil || p.Slot != StateSent {
		t.Fatalf("open-epoch journal under an oversized sealed count: slot %d, err %v", p.Slot, err)
	}
	if _, err := q.verifyExistence(p, Verifier{LSP: e.lsp.Public()}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSideVerify(t *testing.T) {
	e := newEnv(t, nil)
	r := e.append(t, "doc")
	if err := e.ledger.VerifyExistenceServer(r.JSN); err != nil {
		t.Fatalf("server verify: %v", err)
	}
}

func TestClueLineageEndToEnd(t *testing.T) {
	e := newEnv(t, nil)
	const n = 9
	for i := 0; i < n; i++ {
		e.append(t, fmt.Sprintf("artwork-v%d", i), "DCI001")
		e.append(t, fmt.Sprintf("noise-%d", i), "OTHER")
	}
	recs, err := e.ledger.ListClue("DCI001")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("lineage has %d records", len(recs))
	}
	// Server-side.
	if err := e.ledger.VerifyClueServer("DCI001"); err != nil {
		t.Fatalf("server clue verify: %v", err)
	}
	// Client-side, whole clue.
	b, err := e.ledger.ProveClue("DCI001", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyClue(b, e.lsp.Public())
	if err != nil {
		t.Fatalf("client clue verify: %v", err)
	}
	if len(got) != n {
		t.Fatalf("verified %d records", len(got))
	}
	// Client-side, range.
	b2, err := e.ledger.ProveClue("DCI001", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClue(b2, e.lsp.Public()); err != nil {
		t.Fatalf("range clue verify: %v", err)
	}
}

func TestClueVerifyDetectsTampering(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("v%d", i), "K")
	}
	b, _ := e.ledger.ProveClue("K", 0, 0)
	// Tamper with one shipped record.
	b.Records[2] = append([]byte(nil), b.Records[2]...)
	b.Records[2][len(b.Records[2])/3] ^= 0x01
	if _, err := VerifyClue(b, e.lsp.Public()); err == nil {
		t.Fatal("tampered lineage accepted")
	}
	// Drop a record: count mismatch must be caught.
	b2, _ := e.ledger.ProveClue("K", 0, 0)
	b2.Records = b2.Records[:4]
	if _, err := VerifyClue(b2, e.lsp.Public()); err == nil {
		t.Fatal("dropped record accepted")
	}
}

func TestWorldState(t *testing.T) {
	e := newEnv(t, nil)
	req := e.request(t, "balance=100")
	req.StateKey = []byte("account/alice")
	if err := req.Sign(e.client); err != nil {
		t.Fatal(err)
	}
	r1, err := e.ledger.Append(req)
	if err != nil {
		t.Fatal(err)
	}
	jsn, digest, err := e.ledger.GetState([]byte("account/alice"))
	if err != nil {
		t.Fatal(err)
	}
	if jsn != r1.JSN || digest != hashutil.Sum([]byte("balance=100")) {
		t.Fatalf("state = (%d, %s)", jsn, digest.Short())
	}
	// Overwrite moves to the newer journal.
	req2 := e.request(t, "balance=80")
	req2.StateKey = []byte("account/alice")
	if err := req2.Sign(e.client); err != nil {
		t.Fatal(err)
	}
	r2, _ := e.ledger.Append(req2)
	jsn, _, _ = e.ledger.GetState([]byte("account/alice"))
	if jsn != r2.JSN {
		t.Fatalf("state jsn = %d, want %d", jsn, r2.JSN)
	}
	if _, _, err := e.ledger.GetState([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestStateProofRoundTrip(t *testing.T) {
	e := newEnv(t, nil)
	req := e.request(t, "balance=42")
	req.StateKey = []byte("acct/bob")
	if err := req.Sign(e.client); err != nil {
		t.Fatal(err)
	}
	r, err := e.ledger.Append(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.ledger.ProveState([]byte("acct/bob"))
	if err != nil {
		t.Fatal(err)
	}
	jsn, digest, err := VerifyState(p, e.lsp.Public())
	if err != nil {
		t.Fatalf("VerifyState: %v", err)
	}
	if jsn != r.JSN || digest != hashutil.Sum([]byte("balance=42")) {
		t.Fatalf("state = (%d, %s)", jsn, digest.Short())
	}
	// Wire round trip.
	got, err := DecodeStateProof(p.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyState(got, e.lsp.Public()); err != nil {
		t.Fatalf("decoded state proof rejected: %v", err)
	}
	// Forged value must fail.
	bad := *p
	bad.Value = encodeStateValue(r.JSN+1, digest)
	if _, _, err := VerifyState(&bad, e.lsp.Public()); err == nil {
		t.Fatal("forged state value accepted")
	}
	// Wrong LSP must fail.
	if _, _, err := VerifyState(p, sig.GenerateDeterministic("evil").Public()); err == nil {
		t.Fatal("wrong LSP accepted")
	}
	// Missing key.
	if _, err := e.ledger.ProveState([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestSignedStateVerifies(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "doc")
	st, err := e.ledger.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(e.lsp.Public()); err != nil {
		t.Fatal(err)
	}
	st.JSN++
	if err := st.Verify(e.lsp.Public()); err == nil {
		t.Fatal("tampered state accepted")
	}
}

func TestAnchorTime(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "doc")
	st, _ := e.ledger.State()
	tsa := sig.GenerateDeterministic("tsa")
	ta := &journal.TimeAttestation{Digest: st.Digest(), Timestamp: 5000, TSAPK: tsa.Public()}
	ta.TSASig = tsa.MustSign(ta.SignedDigest())
	r, err := e.ledger.AnchorTime(ta)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := e.ledger.GetJournal(r.JSN)
	if rec.Type != journal.TypeTime {
		t.Fatalf("type = %s", rec.Type)
	}
	got, err := journal.DecodeTimeAttestation(rec.Extra)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != 5000 {
		t.Fatalf("timestamp = %d", got.Timestamp)
	}
	// A forged attestation is rejected.
	forged := &journal.TimeAttestation{Digest: st.Digest(), Timestamp: 1, TSAPK: tsa.Public()}
	forged.TSASig = ta.TSASig
	if _, err := e.ledger.AnchorTime(forged); !errors.Is(err, journal.ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoveryPlain(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 17; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), fmt.Sprintf("clue-%d", i%3))
	}
	stBefore, _ := e.ledger.State()

	// Reopen over the same stores.
	l2, err := Open(e.cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Size() != e.ledger.Size() {
		t.Fatalf("size after reopen: %d vs %d", l2.Size(), e.ledger.Size())
	}
	stAfter, _ := l2.State()
	if stBefore.JournalRoot != stAfter.JournalRoot {
		t.Fatal("fam root changed across reopen")
	}
	if stBefore.ClueRoot != stAfter.ClueRoot {
		t.Fatal("clue root changed across reopen")
	}
	if stBefore.StateRoot != stAfter.StateRoot {
		t.Fatal("state root changed across reopen")
	}
	// Proofs still work.
	p, err := l2.ProveExistence(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatal(err)
	}
	if err := l2.VerifyClueServer("clue-1"); err != nil {
		t.Fatal(err)
	}
	// New appends continue seamlessly.
	req := e.request(t, "post-recovery")
	if _, err := l2.Append(req); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendAndProve(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 50; i++ {
		e.append(t, fmt.Sprintf("warm-%d", i))
	}
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 100; i++ {
			req := &journal.Request{
				LedgerURI: "ledger://test", Type: journal.TypeNormal,
				Payload: []byte(fmt.Sprintf("conc-%d", i)), Nonce: uint64(1000 + i),
			}
			if err := req.Sign(e.client); err != nil {
				done <- err
				return
			}
			if _, err := e.ledger.Append(req); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 100; i++ {
			p, err := e.ledger.ProveExistence(uint64(1+i%50), false)
			if err != nil {
				done <- err
				return
			}
			if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
