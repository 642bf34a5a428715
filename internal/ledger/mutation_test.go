package ledger

import (
	"errors"
	"fmt"
	"testing"

	"ledgerdb/internal/ca"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// PendingErasures reports the async occult backlog.
func (l *Ledger) PendingErasures() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.eraseQueue)
}

// purgeSetup appends n journals from the shared test client and returns
// a ready multisig for a purge at point.
func purgeSetup(t *testing.T, e *testEnv, n int, point uint64, survivors ...uint64) (*PurgeDescriptor, *sig.MultiSig) {
	t.Helper()
	for i := 0; i < n; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	desc := &PurgeDescriptor{URI: "ledger://test", Point: point, Survivors: survivors, ErasePayloads: true}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(e.dba); err != nil {
		t.Fatal(err)
	}
	if err := ms.SignWith(e.client); err != nil {
		t.Fatal(err)
	}
	return desc, ms
}

func TestPurgeBasics(t *testing.T) {
	e := newEnv(t, nil)
	desc, ms := purgeSetup(t, e, 10, 6)
	sizeBefore := e.ledger.Size()
	rootBefore, _ := e.ledger.State()

	receipt, err := e.ledger.Purge(desc, ms)
	if err != nil {
		t.Fatalf("Purge: %v", err)
	}
	// Purge + pseudo genesis journals were appended.
	if e.ledger.Size() != sizeBefore+2 {
		t.Fatalf("size = %d, want %d", e.ledger.Size(), sizeBefore+2)
	}
	if e.ledger.Base() != 6 {
		t.Fatalf("base = %d", e.ledger.Base())
	}
	// Purged journals are gone.
	if _, err := e.ledger.GetJournal(3); !errors.Is(err, ErrPurged) {
		t.Fatalf("err = %v, want ErrPurged", err)
	}
	// Live journals remain.
	if _, err := e.ledger.GetJournal(7); err != nil {
		t.Fatal(err)
	}
	// The purge journal records the descriptor and signatures.
	prec, err := e.ledger.GetJournal(receipt.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if prec.Type != journal.TypePurge {
		t.Fatalf("type = %s", prec.Type)
	}
	extra, err := DecodePurgeExtra(prec.Extra)
	if err != nil {
		t.Fatal(err)
	}
	if extra.Desc.Point != 6 {
		t.Fatalf("recorded point = %d", extra.Desc.Point)
	}
	if err := extra.Sigs.VerifyAll(extra.Desc.Digest(), []sig.PublicKey{e.dba.Public()}); err != nil {
		t.Fatal(err)
	}
	// The pseudo genesis follows, doubly linked to the purge journal.
	grec, err := e.ledger.GetJournal(receipt.JSN + 1)
	if err != nil {
		t.Fatal(err)
	}
	if grec.Type != journal.TypePseudoGenesis {
		t.Fatalf("type = %s", grec.Type)
	}
	info, err := DecodePseudoGenesis(grec.Extra)
	if err != nil {
		t.Fatal(err)
	}
	if info.PurgeJSN != receipt.JSN || info.Point != 6 {
		t.Fatalf("pseudo genesis info: %+v", info)
	}
	// fam proofs for live journals still verify against the new state.
	p, err := e.ledger.ProveExistence(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatal(err)
	}
	_ = rootBefore
}

func TestPurgeRequiresAllMemberSignatures(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i))
	}
	desc := &PurgeDescriptor{URI: "ledger://test", Point: 3}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(e.dba); err != nil { // DBA only, client missing
		t.Fatal(err)
	}
	if _, err := e.ledger.Purge(desc, ms); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v, want ErrNotPermitted", err)
	}
}

func TestPurgeRequiresDBA(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i))
	}
	desc := &PurgeDescriptor{URI: "ledger://test", Point: 3}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(e.client); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Purge(desc, ms); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v, want ErrNotPermitted", err)
	}
}

func TestPurgeBoundsChecked(t *testing.T) {
	e := newEnv(t, nil)
	desc, ms := purgeSetup(t, e, 5, 3)
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	// A second purge below the base is rejected.
	desc2 := &PurgeDescriptor{URI: "ledger://test", Point: 2}
	ms2 := sig.NewMultiSig(desc2.Digest())
	ms2.SignWith(e.dba)
	if _, err := e.ledger.Purge(desc2, ms2); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v", err)
	}
	// Beyond the ledger size is rejected.
	desc3 := &PurgeDescriptor{URI: "ledger://test", Point: 999}
	ms3 := sig.NewMultiSig(desc3.Digest())
	ms3.SignWith(e.dba)
	if _, err := e.ledger.Purge(desc3, ms3); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v", err)
	}
}

func TestPurgeSurvivors(t *testing.T) {
	e := newEnv(t, nil)
	desc, ms := purgeSetup(t, e, 8, 5, 2, 4)
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	survivors, err := e.ledger.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	if len(survivors) != 2 {
		t.Fatalf("survivors = %d", len(survivors))
	}
	if survivors[0].JSN != 2 || survivors[1].JSN != 4 {
		t.Fatalf("survivor jsns = %d, %d", survivors[0].JSN, survivors[1].JSN)
	}
	// Survivor records still verify against the fam tree via the digest
	// stream (their tx-hashes were never erased).
	d, err := e.ledger.TxHash(2)
	if err != nil {
		t.Fatal(err)
	}
	if survivors[0].TxHash() != d {
		t.Fatal("survivor tx-hash mismatch")
	}
}

func TestPurgeErasesPayloadBlobs(t *testing.T) {
	e := newEnv(t, nil)
	desc, ms := purgeSetup(t, e, 6, 4)
	rec3, _ := e.ledger.GetJournal(3)
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	if _, err := e.blobs.Get(rec3.PayloadDigest); !errors.Is(err, streamfs.ErrBlobNotFound) {
		t.Fatalf("purged payload still present: %v", err)
	}
}

func TestPurgeKeepsSharedBlobs(t *testing.T) {
	e := newEnv(t, nil)
	// Same payload before and after the purge point: content addressing
	// must keep the live copy readable.
	e.append(t, "shared-payload") // jsn 1 (purged)
	e.append(t, "filler")         // jsn 2 (purged)
	e.append(t, "shared-payload") // jsn 3 (live)
	desc := &PurgeDescriptor{URI: "ledger://test", Point: 3, ErasePayloads: true}
	ms := sig.NewMultiSig(desc.Digest())
	ms.SignWith(e.dba)
	ms.SignWith(e.client)
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	got, err := e.ledger.GetPayload(3)
	if err != nil {
		t.Fatalf("shared payload erased: %v", err)
	}
	if string(got) != "shared-payload" {
		t.Fatalf("payload = %q", got)
	}
}

func TestPurgeWithFamErasure(t *testing.T) {
	// δ=3 (from newEnv): epoch 0 holds journals 0-7. Purging at 20 with
	// EraseFamNodes releases the sealed epochs fully below the point.
	e := newEnv(t, nil)
	for i := 0; i < 30; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	desc := &PurgeDescriptor{URI: "ledger://test", Point: 20, ErasePayloads: true, EraseFamNodes: true}
	ms := sig.NewMultiSig(desc.Digest())
	for _, kp := range []*sig.KeyPair{e.dba, e.client} {
		if err := ms.SignWith(kp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	// Journals at/after the purge point still prove and verify.
	for _, jsn := range []uint64{20, 25, e.ledger.Size() - 1} {
		p, err := e.ledger.ProveExistence(jsn, false)
		if err != nil {
			t.Fatalf("ProveExistence(%d): %v", jsn, err)
		}
		if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
			t.Fatalf("VerifyExistence(%d): %v", jsn, err)
		}
	}
	// Appends continue normally after the erasure.
	if _, err := e.ledger.Append(e.request(t, "post-erasure", "K")); err != nil {
		t.Fatal(err)
	}
	// The recorded descriptor carries the erasure flag for auditors.
	var purgeRec *journal.Record
	for jsn := e.ledger.Base(); jsn < e.ledger.Size(); jsn++ {
		rec, err := e.ledger.GetJournal(jsn)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == journal.TypePurge {
			purgeRec = rec
		}
	}
	extra, err := DecodePurgeExtra(purgeRec.Extra)
	if err != nil {
		t.Fatal(err)
	}
	if !extra.Desc.EraseFamNodes {
		t.Fatal("erasure flag lost in the purge journal")
	}
}

func TestRecoveryAfterPurge(t *testing.T) {
	e := newEnv(t, nil)
	desc, ms := purgeSetup(t, e, 12, 7, 3)
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("post-purge-%d", i), "K")
	}
	stBefore, _ := e.ledger.State()
	// Purged lineage journals are unreadable, so ListClue over "K" fails
	// on both sides of the restart; the authenticated structures must
	// still agree.
	if _, err := e.ledger.ListClue("K"); !errors.Is(err, ErrPurged) {
		t.Fatalf("ListClue before reopen: err = %v, want ErrPurged", err)
	}

	l2, err := Open(e.cfg)
	if err != nil {
		t.Fatalf("reopen after purge: %v", err)
	}
	stAfter, _ := l2.State()
	if stBefore.JournalRoot != stAfter.JournalRoot {
		t.Fatal("fam root changed across purge+reopen")
	}
	if stBefore.ClueRoot != stAfter.ClueRoot {
		t.Fatal("clue root changed across purge+reopen")
	}
	if l2.Base() != 7 {
		t.Fatalf("base = %d", l2.Base())
	}
	// Clue verification still passes: digests of purged journals come
	// from the retained digest stream.
	if err := l2.VerifyClueServer("K"); err != nil {
		t.Fatalf("clue verify after recovery: %v", err)
	}
	if _, err := l2.ListClue("K"); !errors.Is(err, ErrPurged) {
		t.Fatalf("ListClue after reopen: err = %v, want ErrPurged", err)
	}
}

func TestOccultSync(t *testing.T) {
	auth := ca.NewTestAuthority("root")
	regKey := sig.GenerateDeterministic("regulator")
	reg := ca.NewRegistry(auth.Public())
	for _, grant := range []struct {
		key  sig.PublicKey
		role ca.Role
	}{
		{regKey.Public(), ca.RoleRegulator},
		{sig.GenerateDeterministic("client").Public(), ca.RoleUser},
	} {
		cert, err := auth.Issue(grant.key, grant.role, "member")
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Admit(cert); err != nil {
			t.Fatal(err)
		}
	}
	e2 := newEnv(t, func(c *Config) { c.Registry = reg })
	r := e2.append(t, "sensitive-pii", "K")
	desc := &OccultDescriptor{URI: "ledger://test", JSN: r.JSN}
	ms := sig.NewMultiSig(desc.Digest())
	ms.SignWith(e2.dba)
	ms.SignWith(regKey)
	if _, err := e2.ledger.Occult(desc, ms); err != nil {
		t.Fatalf("Occult: %v", err)
	}
	// Payload is gone; metadata and digest remain.
	if _, err := e2.ledger.GetPayload(r.JSN); !errors.Is(err, ErrOcculted) {
		t.Fatalf("err = %v, want ErrOcculted", err)
	}
	rec, err := e2.ledger.GetJournal(r.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Occulted {
		t.Fatal("occult bit not set")
	}
	// Protocol 2: the ledger remains verifiable — the retained digest
	// still proves into fam.
	p, err := e2.ledger.ProveExistence(r.JSN, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Payload != nil {
		t.Fatal("occulted proof shipped a payload")
	}
	if _, err := VerifyExistence(p, e2.lsp.Public()); err != nil {
		t.Fatalf("occulted journal no longer verifiable: %v", err)
	}
	// And the clue lineage still verifies.
	if err := e2.ledger.VerifyClueServer("K"); err != nil {
		t.Fatal(err)
	}
}

func TestOccultAsyncAndReorganize(t *testing.T) {
	e := newEnv(t, nil) // no registry: DBA-only prerequisite
	r := e.append(t, "to-hide")
	desc := &OccultDescriptor{URI: "ledger://test", JSN: r.JSN, Async: true}
	ms := sig.NewMultiSig(desc.Digest())
	ms.SignWith(e.dba)
	if _, err := e.ledger.Occult(desc, ms); err != nil {
		t.Fatal(err)
	}
	// Retrieval is already blocked (the bit is set)...
	if _, err := e.ledger.GetPayload(r.JSN); !errors.Is(err, ErrOcculted) {
		t.Fatalf("err = %v", err)
	}
	// ...but the blob still physically exists until reorganization.
	rec, _ := e.ledger.GetJournal(r.JSN)
	if _, err := e.blobs.Get(rec.PayloadDigest); err != nil {
		t.Fatal("async occult erased payload immediately")
	}
	if e.ledger.PendingErasures() != 1 {
		t.Fatalf("pending = %d", e.ledger.PendingErasures())
	}
	n, err := e.ledger.Reorganize()
	if err != nil || n != 1 {
		t.Fatalf("Reorganize = %d, %v", n, err)
	}
	if _, err := e.blobs.Get(rec.PayloadDigest); !errors.Is(err, streamfs.ErrBlobNotFound) {
		t.Fatal("payload survives reorganization")
	}
}

func TestOccultPrerequisites(t *testing.T) {
	e := newEnv(t, nil)
	r := e.append(t, "doc")
	desc := &OccultDescriptor{URI: "ledger://test", JSN: r.JSN}
	// Without the DBA signature.
	ms := sig.NewMultiSig(desc.Digest())
	ms.SignWith(e.client)
	if _, err := e.ledger.Occult(desc, ms); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v", err)
	}
	// Occulting a non-normal journal (genesis) is rejected.
	desc2 := &OccultDescriptor{URI: "ledger://test", JSN: 0}
	ms2 := sig.NewMultiSig(desc2.Digest())
	ms2.SignWith(e.dba)
	if _, err := e.ledger.Occult(desc2, ms2); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v", err)
	}
	// Double occult is rejected.
	ms3 := sig.NewMultiSig(desc.Digest())
	ms3.SignWith(e.dba)
	if _, err := e.ledger.Occult(desc, ms3); err != nil {
		t.Fatal(err)
	}
	ms4 := sig.NewMultiSig(desc.Digest())
	ms4.SignWith(e.dba)
	if _, err := e.ledger.Occult(desc, ms4); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoveryAfterOccult(t *testing.T) {
	e := newEnv(t, nil)
	r := e.append(t, "hidden")
	e.append(t, "visible")
	desc := &OccultDescriptor{URI: "ledger://test", JSN: r.JSN}
	ms := sig.NewMultiSig(desc.Digest())
	ms.SignWith(e.dba)
	if _, err := e.ledger.Occult(desc, ms); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := l2.GetJournal(r.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Occulted {
		t.Fatal("occult bit lost across recovery")
	}
	if _, err := l2.GetPayload(r.JSN); !errors.Is(err, ErrOcculted) {
		t.Fatalf("err = %v", err)
	}
}
