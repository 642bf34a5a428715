package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// heldFixture is one ledger's clue, query and existence replies for a
// requester that holds most of the answer — records, the signed state
// and the root of sealed fam epoch 0 — next to the replies for one that
// holds nothing.
type heldFixture struct {
	lsp                  sig.PublicKey
	held                 Held
	get                  func(jsn uint64) ([]byte, bool) // the requester's verified bytes
	state                *SignedState                    // the requester's verified state, which held.State names
	roots                []hashutil.Digest               // the sealed roots held.Sealed names
	coldClue, warmClue   *ClueProofBundle
	query                Query
	coldQuery, warmQuery *QueryResult
	// sealed proves a journal of sealed epoch 0 (no state), open one of
	// the open epoch (state held back), heldRec a held journal of the open
	// epoch (record and state held back, payload sent); coldSealed,
	// coldOpen and coldHeldRec are their cold replies.
	sealed, open, heldRec, coldSealed, coldOpen, coldHeldRec *ExistenceProof
}

// buildHeldFixture interleaves clue K's nine versions with another
// clue's journals, so the lineage's jsns are not dense, and holds every
// version of K but the third and the last. Thirteen journals at δ = 3
// seal fam epoch 0; the requester learned its root from a cold proof.
func buildHeldFixture(tb testing.TB) *heldFixture {
	tb.Helper()
	e := newEnv(tb, nil)
	var jsns []uint64
	for i := 0; i < 12; i++ {
		if i%4 == 3 {
			e.append(tb, fmt.Sprintf("other-%d", i), "L")
			continue
		}
		jsns = append(jsns, e.append(tb, fmt.Sprintf("doc-%d", i), "K").JSN)
	}
	f := &heldFixture{lsp: e.lsp.Public(), query: Query{Kind: QueryByPrefix, Prefix: "K", WithPayload: true}}
	f.held = NewHeld(slices.Concat(jsns[:2], jsns[3:len(jsns)-1]))
	var err error
	if f.coldClue, err = e.ledger.ProveClue("K", 0, 0); err != nil {
		tb.Fatal(err)
	}
	f.state = f.coldClue.State
	f.roots = learnedRoots(tb, e.ledger, 2)
	f.held.State, f.held.Sealed = f.state.Digest(), uint64(len(f.roots))
	if f.warmClue, err = e.ledger.ProveClueHeld("K", 0, 0, f.held); err != nil {
		tb.Fatal(err)
	}
	cold, err := e.ledger.ProveQueryBatch(jsns, true, Held{})
	if err != nil {
		tb.Fatal(err)
	}
	warm, err := e.ledger.ProveQueryBatch(jsns, true, f.held)
	if err != nil {
		tb.Fatal(err)
	}
	f.coldQuery = &QueryResult{Query: f.query, Batch: cold}
	f.warmQuery = &QueryResult{Query: f.query, Batch: warm}
	prove := func(jsn uint64, held Held) *ExistenceProof {
		p, err := e.ledger.ProveExistenceHeld(jsn, true, held)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	// jsns[2] is the unheld version in epoch 0, jsns[7] a held one past it.
	last := jsns[len(jsns)-1]
	f.sealed, f.coldSealed = prove(jsns[2], f.held), prove(jsns[2], Held{})
	f.open, f.coldOpen = prove(last, f.held), prove(last, Held{})
	f.heldRec, f.coldHeldRec = prove(jsns[7], f.held), prove(jsns[7], Held{})
	if f.warmClue.Slot != StateHeld || warm.Slot != StateHeld || f.open.Slot != StateHeld || f.sealed.Slot != StateNone || f.heldRec.Slot != StateHeld {
		tb.Fatalf("warm replies carry state slots %d, %d, %d, %d, %d", f.warmClue.Slot, warm.Slot, f.open.Slot, f.sealed.Slot, f.heldRec.Slot)
	}
	if f.sealed.Held != nil || f.open.Held != nil || f.heldRec.Held == nil || f.heldRec.Payload == nil {
		tb.Fatal("existence replies left out the wrong records")
	}
	store := make(map[uint64][]byte)
	for _, raw := range f.coldClue.Records {
		jsn, err := journal.PeekJSN(raw)
		if err != nil {
			tb.Fatal(err)
		}
		if f.held.Has(jsn) {
			store[jsn] = raw
		}
	}
	f.get = func(jsn uint64) ([]byte, bool) { raw, ok := store[jsn]; return raw, ok }
	return f
}

func nothingHeld(uint64) ([]byte, bool) { return nil, false }

// learnedRoots is what a requester learns from verified cold proofs of
// jsns (SealedRoot): the roots of sealed epochs 0, 1, ….
func learnedRoots(tb testing.TB, l *Ledger, jsns ...uint64) []hashutil.Digest {
	tb.Helper()
	roots := make(map[int]hashutil.Digest)
	for _, jsn := range jsns {
		p, err := l.ProveExistence(jsn, false)
		if err != nil {
			tb.Fatal(err)
		}
		rec, err := VerifyExistence(p, l.LSPPublic())
		if err != nil {
			tb.Fatal(err)
		}
		if e, root, ok := p.SealedRoot(rec); ok {
			roots[e] = root
		}
	}
	learned := contiguous(roots)
	if len(learned) == 0 {
		tb.Fatalf("no cold proof of %v crossed a sealed epoch", jsns)
	}
	return learned
}

// requester is what a check fills a reply from: held record bytes, the
// named state and the named sealed roots (zero values name nothing).
type requester struct {
	get   func(jsn uint64) ([]byte, bool)
	state *SignedState
	roots []hashutil.Digest
}

func (f *heldFixture) warmRequester() requester {
	return requester{get: f.get, state: f.state, roots: f.roots}
}

var coldRequester = requester{get: nothingHeld}

// verifyExistence fills p as the requester would and runs the existence
// verifier under the named roots.
func (q requester) verifyExistence(p *ExistenceProof, v Verifier) (*journal.Record, error) {
	if err := p.FillState(q.state, uint64(len(q.roots))); err != nil {
		return nil, err
	}
	return v.VerifyExistenceLearned(p, q.roots)
}

// heldShape is one reply format that can carry placeholders: decode a
// transported reply, re-encode it as decoded, fill it from get and
// verify it under v.
type heldShape struct {
	name string
	enc  []byte
	// loose are the offsets of the bytes no digest or signature covers:
	// occult bytes, and a query result's advisory Truncated flag.
	loose map[int]bool
	check func(b []byte, q requester, v Verifier) (again []byte, err error)
}

// slotOccult records, while replaying a slot's encoding into w, the
// offset of its last byte: the occult byte of a record or placeholder.
func slotOccult(w *wire.Writer, at map[int]bool, raw []byte, p *Placeholder) {
	writeSlot(w, raw, p)
	at[w.Len()-1] = true
}

func (f *heldFixture) shapes() []heldShape {
	clueOccult := make(map[int]bool)
	w := newTestWriter()
	w.String(f.warmClue.Clue)
	w.Uvarint(uint64(len(f.warmClue.Records)))
	for i, raw := range f.warmClue.Records {
		slotOccult(w, clueOccult, raw, f.warmClue.Held[i])
	}

	// The batch sits inside the query result as one length-prefixed blob.
	batch := f.warmQuery.Batch.EncodeBytes()
	w = newTestWriter()
	f.query.Encode(w)
	queryLoose := map[int]bool{w.Len(): true}
	w.Bool(f.warmQuery.Truncated)
	w.Uvarint(uint64(len(batch)))
	items := newTestWriter()
	items.Uvarint(uint64(len(f.warmQuery.Batch.Items)))
	batchOccult := make(map[int]bool)
	for _, it := range f.warmQuery.Batch.Items {
		slotOccult(items, batchOccult, it.RecordBytes, it.Held)
		items.WriteBytes(it.Payload)
	}
	for at := range batchOccult {
		queryLoose[w.Len()+at] = true
	}

	return []heldShape{
		{
			name: "clue bundle", enc: f.warmClue.EncodeBytes(), loose: clueOccult,
			check: func(b []byte, q requester, v Verifier) ([]byte, error) {
				got, err := DecodeClueProofBundle(b)
				if err != nil {
					return nil, err
				}
				again := got.EncodeBytes()
				if _, err := got.Fill(q.get); err != nil {
					return again, err
				}
				if err := got.FillState(q.state); err != nil {
					return again, err
				}
				_, err = v.VerifyClue(got)
				return again, err
			},
		},
		{
			name: "query result", enc: f.warmQuery.EncodeBytes(), loose: queryLoose,
			check: func(b []byte, q requester, v Verifier) ([]byte, error) {
				res, err := DecodeQueryResult(b)
				if err != nil {
					return nil, err
				}
				again := res.EncodeBytes()
				if res.Batch != nil {
					if _, err := res.Batch.Fill(q.get); err != nil {
						return again, err
					}
					if err := res.Batch.FillState(q.state); err != nil {
						return again, err
					}
				}
				_, err = v.VerifyQueryResult(f.query, res)
				return again, err
			},
		},
		existenceShape("existence, sealed epoch", f.sealed),
		existenceShape("existence, held state", f.open),
		existenceShape("existence, held record", f.heldRec),
	}
}

// existenceShape is a single existence reply. Its record's (or
// placeholder's) occult flag is unauthenticated. The fam proof names no
// position or epoch of its own and its size is bound to the signed one
// or to a learned epoch's end, but its Height is bound only by the fold:
// a walk that stays in one epoch after the first hashes no epoch number,
// so another height under which that walk has the same shape folds to
// the same root (no hash or signature the verifier holds states δ).
// A reply with a placeholder in its record slot is held to the
// placeholder's occult byte alone: no other byte of it may move and
// still verify.
func existenceShape(name string, p *ExistenceProof) heldShape {
	w := newTestWriter()
	loose := make(map[int]bool)
	slotOccult(w, loose, p.RecordBytes, p.Held)
	w.WriteBytes(p.Payload)
	if rec, err := journal.DecodeRecord(p.RecordBytes); err == nil && p.Slot != StateNone && oneLaterEpoch(p.Fam, rec.JSN) {
		loose[w.Len()] = true
	}
	return heldShape{
		name: name, enc: p.EncodeBytes(), loose: loose,
		check: func(b []byte, q requester, v Verifier) ([]byte, error) {
			got, err := DecodeExistenceProof(b)
			if err != nil {
				return nil, err
			}
			again := got.EncodeBytes()
			if _, err := got.Fill(q.get); err != nil {
				return again, err
			}
			_, err = q.verifyExistence(got, v)
			return again, err
		},
	}
}

// oneLaterEpoch reports whether p's walk for journal jsn stays inside one
// epoch after the first.
func oneLaterEpoch(p *fam.BatchProof, jsn uint64) bool {
	if p.Height == 0 {
		return false
	}
	epoch := func(i uint64) uint64 {
		c := uint64(1) << p.Height
		if i < c {
			return 0
		}
		return 1 + (i-c)/(c-1)
	}
	return epoch(jsn) == epoch(p.Size-1)
}

// TestHeldRepliesFillToColdReplies: a reply for a requester that holds
// records states placeholders for exactly those, and filled from the
// requester's bytes it is byte for byte the reply a requester holding
// nothing gets — which is why the unchanged verifiers can run on it.
func TestHeldRepliesFillToColdReplies(t *testing.T) {
	f := buildHeldFixture(t)
	for i, raw := range f.warmClue.Records {
		if p := f.warmClue.Held[i]; (p != nil) != (raw == nil) || (p != nil && !f.held.Has(p.JSN)) {
			t.Fatalf("clue slot %d: record %d bytes, placeholder %+v", i, len(raw), p)
		}
	}
	for _, it := range f.warmQuery.Batch.Items {
		if it.Payload == nil {
			t.Fatal("a held query match lost its payload")
		}
	}
	if warm, cold := len(f.warmClue.EncodeBytes()), len(f.coldClue.EncodeBytes()); warm >= cold/2 {
		t.Fatalf("held clue bundle is %d bytes, cold %d", warm, cold)
	}

	b, err := DecodeClueProofBundle(f.warmClue.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.Fill(f.get); err != nil || n != len(f.held.JSNs) {
		t.Fatalf("clue bundle: filled %d of %d, %v", n, len(f.held.JSNs), err)
	}
	if err := b.FillState(f.state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.EncodeBytes(), f.coldClue.EncodeBytes()) {
		t.Fatal("filled clue bundle differs from the cold one")
	}
	res, err := DecodeQueryResult(f.warmQuery.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res.Batch.Fill(f.get); err != nil || n != len(f.held.JSNs) {
		t.Fatalf("query result: filled %d of %d, %v", n, len(f.held.JSNs), err)
	}
	if err := res.Batch.FillState(f.state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.EncodeBytes(), f.coldQuery.EncodeBytes()) {
		t.Fatal("filled query result differs from the cold one")
	}
	p, err := DecodeExistenceProof(f.open.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FillState(f.state, uint64(len(f.roots))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.EncodeBytes(), f.coldOpen.EncodeBytes()) {
		t.Fatal("filled open-epoch existence proof differs from the cold one")
	}
	if p, err = DecodeExistenceProof(f.heldRec.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Fill(f.get); err != nil || n != 1 {
		t.Fatalf("held-record existence proof: filled %d, %v", n, err)
	}
	if err := p.FillState(f.state, uint64(len(f.roots))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.EncodeBytes(), f.coldHeldRec.EncodeBytes()) {
		t.Fatal("filled held-record existence proof differs from the cold one")
	}
	if warm, cold := len(f.heldRec.EncodeBytes()), len(f.coldHeldRec.EncodeBytes()); cold-warm < len(p.RecordBytes)+len(stateBytes(f.state))-8 {
		t.Fatalf("held-record existence proof is %d bytes, cold %d", warm, cold)
	}
	if e, ok := f.sealed.Fam.SealedEpoch(); !ok || e != 0 || len(f.sealed.EncodeBytes())+len(stateBytes(f.state)) >= len(f.coldSealed.EncodeBytes()) {
		t.Fatalf("sealed-epoch reply: ends epoch %d (%v), %d bytes; cold %d", e, ok, len(f.sealed.EncodeBytes()), len(f.coldSealed.EncodeBytes()))
	}

	for _, s := range f.shapes() {
		if _, err := s.check(s.enc, f.warmRequester(), Verifier{LSP: f.lsp}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if _, err := s.check(s.enc, coldRequester, Verifier{LSP: f.lsp}); !errors.Is(err, ErrVerify) {
			t.Fatalf("%s: a requester that named nothing accepted placeholders: %v", s.name, err)
		}
	}
}

// TestHeldMutationSoundness is the PR 15 sweep over replies carrying
// placeholders: every byte × masks 0x01/0x80/0xFF plus the benchmark's
// two-adjacent-byte flip, each mutant filled from the requester's bytes
// and verified by a warm verifier (a memo that has seen the answer) and
// a cold one (no memo). Every mutant is refused, or decodes to the very
// object the untouched bytes decode to, or moved only an occult byte
// (or a query result's advisory Truncated flag) — and warm and cold
// accept exactly the same mutants.
func TestHeldMutationSoundness(t *testing.T) {
	f := buildHeldFixture(t)
	warm := Verifier{LSP: f.lsp, Memo: new(sig.Memo)}
	if _, err := warm.VerifyClue(f.coldClue); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.VerifyQueryResult(f.query, f.coldQuery); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*ExistenceProof{f.coldOpen, f.coldHeldRec} {
		if _, err := warm.VerifyExistenceLearned(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	cold := Verifier{LSP: f.lsp}
	for _, s := range f.shapes() {
		mut := make([]byte, len(s.enc))
		accepted := 0
		atProcs(t, func(note func(string)) {
			accepted = 0
			for _, mask := range [][2]byte{{0x01}, {0x80}, {0xFF}, {0x01, 0x01}} {
				for i := range s.enc {
					copy(mut, s.enc)
					mut[i] ^= mask[0]
					if i+1 < len(s.enc) {
						mut[i+1] ^= mask[1]
					}
					again, werr := s.check(mut, f.warmRequester(), warm)
					_, cerr := s.check(mut, f.warmRequester(), cold)
					note(verdict(werr) + " | " + verdict(cerr))
					if (werr == nil) != (cerr == nil) {
						t.Fatalf("%s: byte %d ^ %#02x: warm verdict %v, cold verdict %v", s.name, i, mask, werr, cerr)
					}
					if werr != nil {
						continue
					}
					accepted++
					if bytes.Equal(again, s.enc) {
						continue // a lenient read of the same object
					}
					if s.loose[i] && mask[1] == 0 {
						again[i] = s.enc[i]
						if bytes.Equal(again, s.enc) {
							continue // only an unauthenticated byte moved
						}
					}
					t.Fatalf("%s: byte %d ^ %#02x: mutant decoded to a different reply AND verified", s.name, i, mask)
				}
			}
		})
		t.Logf("%s: %d bytes, %d of %d mutants accepted", s.name, len(s.enc), accepted, 4*len(s.enc))
	}
}

// TestHeldPlaceholderListMutations: dropping, repeating, swapping or
// appending a placeholder, or pointing one at a jsn the requester did
// not name or at another named one, is refused as ErrVerify.
func TestHeldPlaceholderListMutations(t *testing.T) {
	f := buildHeldFixture(t)
	ver := Verifier{LSP: f.lsp}
	type slot struct {
		raw     []byte
		p       *Placeholder
		payload []byte
	}
	clueSlots := func() []slot {
		var s []slot
		for i, raw := range f.warmClue.Records {
			s = append(s, slot{raw: raw, p: f.warmClue.Held[i]})
		}
		return s
	}
	querySlots := func() []slot {
		var s []slot
		for _, it := range f.warmQuery.Batch.Items {
			s = append(s, slot{raw: it.RecordBytes, p: it.Held, payload: it.Payload})
		}
		return s
	}
	// Through the wire, so the counts move with the lists.
	shapes := map[string]struct {
		slots func() []slot
		check func([]slot) error
	}{
		"clue bundle": {clueSlots, func(s []slot) error {
			b := &ClueProofBundle{Clue: f.warmClue.Clue, CM: f.warmClue.CM, Slot: f.warmClue.Slot, Held: make([]*Placeholder, len(s))}
			for i := range s {
				b.Records = append(b.Records, s[i].raw)
				b.Held[i] = s[i].p
			}
			_, err := heldShapeCheck(f, "clue bundle")(b.EncodeBytes(), f.warmRequester(), ver)
			return err
		}},
		"query result": {querySlots, func(s []slot) error {
			batch := &ExistenceProofBatch{Fam: f.warmQuery.Batch.Fam, Slot: f.warmQuery.Batch.Slot}
			for i := range s {
				batch.Items = append(batch.Items, ExistenceItem{RecordBytes: s[i].raw, Payload: s[i].payload, Held: s[i].p})
			}
			res := &QueryResult{Query: f.query, Batch: batch}
			_, err := heldShapeCheck(f, "query result")(res.EncodeBytes(), f.warmRequester(), ver)
			return err
		}},
	}
	for name, sh := range shapes {
		refuse := func(what string, s []slot) {
			t.Helper()
			if err := sh.check(s); !errors.Is(err, ErrVerify) {
				t.Fatalf("%s: %s: err = %v, want ErrVerify", name, what, err)
			}
		}
		if err := sh.check(sh.slots()); err != nil {
			t.Fatalf("%s: untouched: %v", name, err)
		}
		orig := sh.slots()
		for i := range orig {
			if orig[i].p == nil {
				continue
			}
			refuse(fmt.Sprintf("placeholder %d dropped", i), slices.Delete(sh.slots(), i, i+1))
			refuse(fmt.Sprintf("placeholder %d repeated", i), slices.Insert(sh.slots(), i, orig[i]))
			refuse(fmt.Sprintf("placeholder %d appended again", i), append(sh.slots(), orig[i]))
			for j := range orig {
				if j != i && orig[j].p != nil {
					s := sh.slots()
					s[i], s[j] = s[j], s[i]
					refuse(fmt.Sprintf("placeholders %d and %d swapped", i, j), s)
					s = sh.slots()
					s[i].p = &Placeholder{JSN: orig[j].p.JSN}
					refuse(fmt.Sprintf("placeholder %d renamed to held jsn %d", i, orig[j].p.JSN), s)
				}
			}
			s := sh.slots()
			s[i].p = &Placeholder{JSN: 4} // journal 4 is clue L's: never named
			refuse(fmt.Sprintf("placeholder %d for an unnamed jsn", i), s)
		}
	}
}

// heldShapeCheck is the named shape's fill-and-verify body.
func heldShapeCheck(f *heldFixture, name string) func([]byte, requester, Verifier) ([]byte, error) {
	for _, s := range f.shapes() {
		if s.name == name {
			return s.check
		}
	}
	panic(name)
}

// TestHeldPlaceholderCarriesOccultBit: the occult byte is the one byte
// the held bytes may lack, so filling takes it from the placeholder —
// into a copy, never into the requester's store.
func TestHeldPlaceholderCarriesOccultBit(t *testing.T) {
	f := buildHeldFixture(t)
	for _, p := range f.warmClue.Held {
		if p != nil && p.Occult != 0 {
			t.Fatalf("placeholder for live jsn %d has occult byte %d", p.JSN, p.Occult)
		}
	}
	held, _ := f.get(f.held.JSNs[0])
	fl := filler{get: f.get}
	var raw []byte
	if err := fl.slot(&raw, newPlaceholder(f.held.JSNs[0], true)); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.DecodeRecord(raw)
	if err != nil || !rec.Occulted {
		t.Fatalf("filled record: %v, %v", rec, err)
	}
	if held[len(held)-1] != 0 {
		t.Fatal("filling wrote through to the requester's held bytes")
	}
}

// TestProveClueBounds: bounds that cannot describe a range are a bad
// request; a range past the clue's versions is not found — neither is a
// bare cmtree error that the service would answer 500.
func TestProveClueBounds(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 3; i++ {
		e.append(t, fmt.Sprintf("v%d", i), "K")
	}
	for _, c := range []struct {
		begin, end uint64
		want       error
	}{
		{2, 2, journal.ErrBadRequest},
		{3, 1, journal.ErrBadRequest},
		{0, 4, ErrNotFound},
		{3, 0, ErrNotFound},
		{5, 0, ErrNotFound},
	} {
		if _, err := e.ledger.ProveClue("K", c.begin, c.end); !errors.Is(err, c.want) {
			t.Errorf("ProveClue(K, %d, %d): err = %v, want %v", c.begin, c.end, err, c.want)
		}
	}
	if _, err := e.ledger.ProveClue("K", 2, 0); err != nil {
		t.Fatalf("last version alone: %v", err)
	}
}
