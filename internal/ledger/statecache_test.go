package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
)

// TestStateCacheSharesSignature: while nothing is committed every State
// call returns the same held object — one signature total. The test
// clock ticks on every read, so a fresh sign would be visible as a
// moving Timestamp.
func TestStateCacheSharesSignature(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "doc-1")
	st1, err := e.ledger.State()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		st, err := e.ledger.State()
		if err != nil {
			t.Fatal(err)
		}
		if st != st1 {
			t.Fatalf("read %d re-signed the state (timestamp %d vs %d)", i, st.Timestamp, st1.Timestamp)
		}
	}
	if err := st1.Verify(e.lsp.Public()); err != nil {
		t.Fatal(err)
	}
	if signed, reused := e.ledger.StateSigStats(); signed != 1 || reused != 5 {
		t.Fatalf("StateSigStats = %d signed, %d reused; want 1, 5", signed, reused)
	}
}

// reuseEnv is a ledger whose block is wide enough to watch a signed
// state being reused across appends: 12 journals, "K" on every third.
func reuseEnv(t testing.TB) *testEnv {
	e := newEnv(t, func(c *Config) { c.BlockSize = 8 })
	for i := 1; i < 12; i++ {
		if i%3 == 0 {
			e.append(t, fmt.Sprintf("doc-%d", i), "K")
		} else {
			e.append(t, fmt.Sprintf("doc-%d", i), fmt.Sprintf("solo-%d", i))
		}
	}
	return e
}

// TestReusedStateProofsDifferential: a proof served at a reused state S
// is byte for byte the proof the server gave when S was its frontier —
// same fam path, same CM-Tree1 path, same S — so it verifies and every
// single-byte mutation of it is refused exactly as the fresh one's is.
func TestReusedStateProofsDifferential(t *testing.T) {
	e := reuseEnv(t)
	lsp := e.lsp.Public()
	prove := func() (*ExistenceProof, *ExistenceProofBatch, *ClueProofBundle) {
		t.Helper()
		p, err := e.ledger.ProveExistence(4, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.ledger.ProveExistenceBatch([]uint64{2, 9, 5}, true)
		if err != nil {
			t.Fatal(err)
		}
		c, err := e.ledger.ProveClue("K", 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return p, b, c
	}
	p0, b0, c0 := prove()
	s := p0.State
	if s.JSN != e.ledger.Size() || b0.State != s || c0.State != s {
		t.Fatalf("fresh proofs not at one frontier state (%d of %d)", s.JSN, e.ledger.Size())
	}
	// The frontier moves on, the hot clue included.
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("later-%d", i), "K")
	}
	p1, b1, c1 := prove()
	if p1.State != s || b1.State != s || c1.State != s {
		t.Fatal("a covered proof re-signed the state")
	}
	if !bytes.Equal(p1.EncodeBytes(), p0.EncodeBytes()) || !bytes.Equal(b1.EncodeBytes(), b0.EncodeBytes()) ||
		!bytes.Equal(c1.EncodeBytes(), c0.EncodeBytes()) {
		t.Fatal("proof at a reused state differs from the proof given at that state's frontier")
	}
	for _, c := range []proofCodec{
		existenceCodec(t, "existence-reused", p1, nil),
		batchCodec(t, "batch-reused", b1),
		clueCodec(t, "clue-reused", c1),
	} {
		v, err := c.decode(c.enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.verify(v, Verifier{LSP: lsp}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.checkCorruption(t, lsp)
	}
	if signed, _ := e.ledger.StateSigStats(); signed != 1 {
		t.Fatalf("%d state signatures for two rounds of covered proofs, want 1", signed)
	}
}

// TestStateReuseStops: a signed state is reused only while it covers the
// request and trails the frontier by less than one block; queries,
// State and anchored proofs always take the frontier; purge, occult and
// reorganize drop it even for requests it would cover.
func TestStateReuseStops(t *testing.T) {
	e := reuseEnv(t)
	lsp := e.lsp.Public()
	stateOf := func(jsn uint64) *SignedState {
		t.Helper()
		p, err := e.ledger.ProveExistence(jsn, true)
		if err != nil {
			t.Fatalf("prove %d: %v", jsn, err)
		}
		if _, err := VerifyExistence(p, lsp); err != nil {
			t.Fatalf("proof of %d: %v", jsn, err)
		}
		return p.State
	}
	fresh := func(step string, st *SignedState) {
		t.Helper()
		if st.JSN != e.ledger.Size() {
			t.Fatalf("%s: state covers %d journals, ledger has %d", step, st.JSN, e.ledger.Size())
		}
	}
	s := stateOf(3)
	fresh("first proof", s)

	// Coverage: the journal S does not hold needs a new state, and so
	// does a clue range reaching past S's version count or a batch
	// naming one uncovered jsn.
	r := e.append(t, "uncovered", "K")
	if stateOf(3) != s {
		t.Fatal("covered proof re-signed")
	}
	s2 := stateOf(r.JSN)
	fresh("uncovered jsn", s2)
	e.append(t, "uncovered-2", "K")
	if c, err := e.ledger.ProveClue("K", 0, 3); err != nil || c.State != s2 {
		t.Fatalf("covered clue range re-signed (err %v)", err)
	}
	if c, err := e.ledger.ProveClue("K", 0, 0); err != nil || c.State.JSN != e.ledger.Size() {
		t.Fatalf("whole-clue proof past the held state's versions reused it (err %v)", err)
	}
	s2 = stateOf(3)
	e.append(t, "uncovered-3")
	if b, err := e.ledger.ProveExistenceBatch([]uint64{1, e.ledger.Size() - 1}, false); err != nil || b.State == s2 {
		t.Fatalf("batch naming an uncovered jsn reused the state (err %v)", err)
	}

	// Frontier-only surfaces, with a covering state held.
	s3 := stateOf(3)
	e.append(t, "moves the frontier")
	if stateOf(3) != s3 {
		t.Fatal("covered proof re-signed")
	}
	if b, err := e.ledger.ProveQueryBatch([]uint64{1, 2}, false); err != nil || b.State.JSN != e.ledger.Size() {
		t.Fatalf("query batch not at the frontier (err %v)", err)
	}
	e.append(t, "moves it again")
	if st, err := e.ledger.State(); err != nil || st.JSN != e.ledger.Size() {
		t.Fatalf("State not at the frontier (err %v)", err)
	}
	e.append(t, "and again")
	if p, err := e.ledger.ProveExistenceAnchored(3, e.ledger.Anchor(), false); err != nil || p.State.JSN != e.ledger.Size() {
		t.Fatalf("anchored proof not at the frontier (err %v)", err)
	}

	// The one-block bound: BlockSize-1 appends behind is still served, a
	// whole block behind is not. A block cut in between changes nothing
	// a SignedState says, and drops nothing.
	s4 := stateOf(3)
	for i := 0; i < e.cfg.BlockSize-1; i++ {
		e.append(t, fmt.Sprintf("within-block-%d", i))
	}
	if _, err := e.ledger.CutBlock(); err != nil {
		t.Fatal(err)
	}
	if stateOf(3) != s4 {
		t.Fatal("state less than one block behind was not reused")
	}
	e.append(t, "one block behind")
	fresh("one-block bound", stateOf(3))

	// Occult: S would cover both the occulted journal and any other, and
	// must answer for neither.
	sOcc := stateOf(3)
	e.append(t, "pre-occult")
	odesc := &OccultDescriptor{URI: "ledger://test", JSN: 2, Async: true}
	oms := sig.NewMultiSig(odesc.Digest())
	if err := oms.SignWith(e.dba); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Occult(odesc, oms); err != nil {
		t.Fatal(err)
	}
	p, err := e.ledger.ProveExistence(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Payload != nil || p.State == sOcc {
		t.Fatal("occulted journal proven with its payload or at the pre-occult state")
	}
	fresh("occult-then-prove", p.State)
	if _, err := VerifyExistence(p, lsp); err != nil {
		t.Fatal(err)
	}

	// Reorganize: roots and frontier stay, the state goes.
	sReorg := stateOf(3)
	if _, err := e.ledger.Reorganize(); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(3); st == sReorg || st.Timestamp <= sReorg.Timestamp {
		t.Fatal("reorganize did not drop the signed state")
	}

	// Purge: the prefix behind the pseudo genesis is gone.
	sPurge := stateOf(9)
	pdesc := &PurgeDescriptor{URI: "ledger://test", Point: 6, ErasePayloads: true}
	pms := sig.NewMultiSig(pdesc.Digest())
	for _, kp := range []*sig.KeyPair{e.dba, e.client} {
		if err := pms.SignWith(kp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ledger.Purge(pdesc, pms); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(9); st == sPurge {
		t.Fatal("purge did not drop the signed state")
	} else {
		fresh("purge", st)
	}
	if _, err := e.ledger.ProveExistence(3, false); !errors.Is(err, ErrPurged) {
		t.Fatalf("purged jsn: %v, want ErrPurged", err)
	}
}

// TestStateReuseHammer races appends (block cuts included) against
// readers that prove covered journals and clue ranges: every proof must
// verify, name the record asked for, and sit at a state that covers it.
// Run under -race by scripts/check.sh race.
func TestStateReuseHammer(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.BlockSize = 16
		c.PipelineDepth = 8
		var clock atomic.Int64
		c.Clock = func() int64 { return clock.Add(1) }
	})
	defer e.ledger.Close()
	for i := 0; i < 24; i++ {
		e.append(t, fmt.Sprintf("seed-%d", i), "K")
	}
	appends := 300
	if testing.Short() {
		appends = 60
	}
	reqs := make(chan *journal.Request, appends) // every send happens before the first receive
	for i := 0; i < appends; i++ {
		reqs <- e.request(t, fmt.Sprintf("hammer-%d", i), "K")
	}
	close(reqs)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range reqs {
				if _, err := e.ledger.Append(req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ver := Verifier{LSP: e.lsp.Public(), Memo: new(sig.Memo)}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := uint64(r); ; n += 3 {
				select {
				case <-done:
					return
				default:
				}
				jsn := 1 + n%20
				p, err := e.ledger.ProveExistence(jsn, false)
				if err != nil {
					t.Error(err)
					return
				}
				if rec, err := ver.VerifyExistenceAnchored(p, nil); err != nil || rec.JSN != jsn || p.State.JSN <= jsn {
					t.Errorf("existence of %d at state %d: %v", jsn, p.State.JSN, err)
					return
				}
				c, err := e.ledger.ProveClue("K", n%8, n%8+8)
				if err != nil {
					t.Error(err)
					return
				}
				if recs, err := ver.VerifyClue(c); err != nil || len(recs) != 8 {
					t.Errorf("clue range at state %d: %d records, %v", c.State.JSN, len(recs), err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	signed, reused := e.ledger.StateSigStats()
	if reused == 0 {
		t.Fatalf("no read reused a signed state (%d signed)", signed)
	}
	t.Logf("%d appends against reusing readers: %d states signed, %d reads served under a held one", appends, signed, reused)
}
