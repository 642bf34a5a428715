package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/tsa"
	"ledgerdb/internal/wire"
)

func newTestWriter() *wire.Writer { return wire.NewWriter(256) }

// proofCodec abstracts one proof wire format for the exhaustive
// truncation/corruption sweep: encode the server-built object, decode
// transported bytes, and run the client-side verification.
type proofCodec struct {
	name   string
	enc    []byte
	decode func([]byte) (any, error)
	// reencode re-serializes a decoded object; round-trip bytes must be
	// identical (the format is deterministic).
	reencode func(any) []byte
	// verify runs the client-side check on a decoded object under a
	// trust root (with or without a verified-signature memo).
	verify func(any, Verifier) error
	// claims extracts the authenticated content — what a relying party
	// acts on after verification succeeds. Corruption may only survive
	// decode+verify when it left the claims untouched (i.e., it hit
	// pure path metadata that every check re-derives).
	claims func(any) []byte
}

// buildProofCodecs makes one ledger with clues, state keys, a time
// journal and sealed fam epochs, then captures every proof shape a
// client verifies over it, plus the LSP key they verify under and the
// π_c of every request appended, as the client that signed them holds
// them.
func buildProofCodecs(t *testing.T) ([]proofCodec, sig.PublicKey, []sig.Check) {
	t.Helper()
	e := newEnv(t, nil)
	var signed []sig.Check
	appendReq := func(req *journal.Request) {
		signed = append(signed, sig.Check{PK: req.ClientPK, Digest: req.Hash(), Sig: req.ClientSig})
		if _, err := e.ledger.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		e.nonce++
		req := e.request(t, fmt.Sprintf("doc-%d", i), "K", fmt.Sprintf("solo-%d", i))
		req.StateKey = []byte(fmt.Sprintf("acct-%d", i%3))
		if err := req.Sign(e.client); err != nil {
			t.Fatal(err)
		}
		appendReq(req)
	}
	// A time journal gives bundles a when-chain; the tail seals fam
	// epochs so the anchored proof is the short one.
	authority := tsa.New("codecs", tsa.Options{Clock: e.cfg.Clock})
	if _, err := e.ledger.AnchorTimeWith(authority.Stamp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 33; i++ {
		appendReq(e.request(t, fmt.Sprintf("tail-%d", i)))
	}
	roots := learnedRoots(t, e.ledger, 3)

	ep, err := e.ledger.ProveExistence(3, true)
	if err != nil {
		t.Fatal(err)
	}
	// The learned-anchor reply (no state) and replies that leave out the
	// state the requester names.
	held := Held{State: ep.State.Digest(), Sealed: uint64(len(roots))}
	ea, err := e.ledger.ProveExistenceHeld(3, true, held)
	if err != nil {
		t.Fatal(err)
	}
	eh, err := e.ledger.ProveExistenceHeld(e.ledger.Size()-1, true, held)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := e.ledger.ProveClue("K", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cbh, err := e.ledger.ProveClueHeld("K", 0, 0, held)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Slot != StateNone || eh.Slot != StateHeld || cbh.Slot != StateHeld {
		t.Fatalf("state slots %d, %d, %d", ea.Slot, eh.Slot, cbh.Slot)
	}
	sp, err := e.ledger.ProveState([]byte("acct-1"))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.ledger.ProveExistenceBatch([]uint64{1, 3, 5}, true, Held{})
	if err != nil {
		t.Fatal(err)
	}
	batchHeld, err := e.ledger.ProveExistenceBatch([]uint64{1, 3, 5}, true, held)
	if err != nil || batchHeld.Slot != StateHeld {
		t.Fatalf("held batch: slot %d, err %v", batchHeld.Slot, err)
	}
	named := requester{state: ep.State, roots: roots}
	ap, err := e.ledger.ProveAbsence("M", false) // sorts between "K" and "solo-0": both neighbors set
	if err != nil {
		t.Fatal(err)
	}
	pap, err := e.ledger.ProveAbsence("M", true)
	if err != nil {
		t.Fatal(err)
	}
	qHit := Query{Kind: QueryByPrefix, Prefix: "K", WithPayload: true}
	qMiss := Query{Kind: QueryByPrefix, Prefix: "M"}
	pb, err := e.ledger.ExportBundle(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if pb.TimeRecordBytes == nil {
		t.Fatal("fixture bundle has no when-chain")
	}

	// Name/Prefix are the question echo, not a claim: the client binds
	// them to the question it asked (decodeVerifiedAbsence), and any
	// echo the proof still verifies under is itself a true absence
	// statement about the same committed gap — e.g. the exact proof for
	// "M" upgraded to the prefix question, which the verifier re-checks
	// against the successor. The authenticated answer is the neighbor
	// set and the signed state.
	absenceClaims := func(p *AbsenceProof) []byte {
		w := newTestWriter()
		w.Bool(p.HasPred)
		if p.HasPred {
			w.String(p.Pred)
			w.Uvarint(p.PredIndex)
			w.DigestSlice(p.PredPath)
		}
		w.Bool(p.HasSucc)
		if p.HasSucc {
			w.String(p.Succ)
			w.Uvarint(p.SuccIndex)
			w.DigestSlice(p.SuccPath)
		}
		return claimBytes(w.Bytes(), stateBytes(p.State))
	}
	// A query result's claims are its proofs'; the echo is bound to the
	// issued query by the verifier, and Truncated is advisory (the
	// ledger does not commit to completeness of non-empty replies).
	queryCodec := func(name string, q Query, res *QueryResult) proofCodec {
		return proofCodec{
			name:     name,
			enc:      res.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeQueryResult(b) },
			reencode: func(v any) []byte { return v.(*QueryResult).EncodeBytes() },
			verify: func(v any, ver Verifier) error {
				_, err := ver.VerifyQueryResult(q, v.(*QueryResult))
				return err
			},
			claims: func(v any) []byte {
				r := v.(*QueryResult)
				if r.Batch != nil {
					return batchClaims(t, r.Batch)
				}
				return absenceClaims(r.Absence)
			},
		}
	}

	return []proofCodec{
		existenceCodec(t, "existence", ep, requester{}),
		existenceCodec(t, "existence-anchored", ea, named),
		existenceCodec(t, "existence-held-state", eh, named),
		clueCodec(t, "clue-bundle", cb, nil),
		clueCodec(t, "clue-bundle-held-state", cbh, ep.State),
		{
			name:     "state",
			enc:      sp.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeStateProof(b) },
			reencode: func(v any) []byte { return v.(*StateProof).EncodeBytes() },
			verify: func(v any, ver Verifier) error {
				_, _, err := ver.VerifyState(v.(*StateProof))
				return err
			},
			claims: func(v any) []byte {
				p := v.(*StateProof)
				return claimBytes(p.Key, p.Value, stateBytes(p.State))
			},
		},
		batchCodec(t, "existence-batch", batch, nil),
		batchCodec(t, "existence-batch-held-state", batchHeld, ep.State),
		{
			name:     "absence",
			enc:      ap.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeAbsenceProof(b) },
			reencode: func(v any) []byte { return v.(*AbsenceProof).EncodeBytes() },
			verify:   func(v any, ver Verifier) error { return ver.VerifyAbsence(v.(*AbsenceProof)) },
			claims:   func(v any) []byte { return absenceClaims(v.(*AbsenceProof)) },
		},
		queryCodec("query-result", qHit, &QueryResult{Query: qHit, Batch: batch}),
		queryCodec("query-absence", qMiss, &QueryResult{Query: qMiss, Absence: pap}),
		{
			name:     "bundle",
			enc:      pb.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeProofBundle(b) },
			reencode: func(v any) []byte { return v.(*ProofBundle).EncodeBytes() },
			verify: func(v any, ver Verifier) error {
				_, _, err := ver.VerifyBundle(v.(*ProofBundle), []sig.PublicKey{authority.Public()})
				return err
			},
			claims: func(v any) []byte {
				b := v.(*ProofBundle)
				parts := [][]byte{[]byte(b.URI), recordClaims(t, b.RecordBytes), b.Payload, stateBytes(b.State)}
				if b.TimeRecordBytes != nil {
					parts = append(parts, recordClaims(t, b.TimeRecordBytes))
				}
				return claimBytes(parts...)
			},
		},
	}, e.lsp.Public(), signed
}

// existenceCodec, clueCodec and batchCodec wrap one captured proof of
// their shape for the sweeps. verify fills a copy of the decoded proof
// from what the requester named (the zero requester named nothing), so
// the decoded object still re-encodes to the transported bytes.
func existenceCodec(t *testing.T, name string, p *ExistenceProof, q requester) proofCodec {
	return proofCodec{
		name:     name,
		enc:      p.EncodeBytes(),
		decode:   func(b []byte) (any, error) { return DecodeExistenceProof(b) },
		reencode: func(v any) []byte { return v.(*ExistenceProof).EncodeBytes() },
		verify: func(v any, ver Verifier) error {
			p := *v.(*ExistenceProof)
			_, err := q.verifyExistence(&p, ver)
			return err
		},
		claims: func(v any) []byte {
			p := v.(*ExistenceProof)
			return claimBytes(recordClaims(t, p.RecordBytes), p.Payload, stateBytes(p.State))
		},
	}
}

func clueCodec(t *testing.T, name string, b *ClueProofBundle, named *SignedState) proofCodec {
	return proofCodec{
		name:     name,
		enc:      b.EncodeBytes(),
		decode:   func(b []byte) (any, error) { return DecodeClueProofBundle(b) },
		reencode: func(v any) []byte { return v.(*ClueProofBundle).EncodeBytes() },
		verify: func(v any, ver Verifier) error {
			b := *v.(*ClueProofBundle)
			if err := b.FillState(named); err != nil {
				return err
			}
			_, err := ver.VerifyClue(&b)
			return err
		},
		claims: func(v any) []byte {
			b := v.(*ClueProofBundle)
			parts := [][]byte{[]byte(b.Clue), stateBytes(b.State)}
			for _, raw := range b.Records {
				parts = append(parts, recordClaims(t, raw))
			}
			return claimBytes(parts...)
		},
	}
}

func batchCodec(t *testing.T, name string, b *ExistenceProofBatch, named *SignedState) proofCodec {
	return proofCodec{
		name:     name,
		enc:      b.EncodeBytes(),
		decode:   func(b []byte) (any, error) { return DecodeExistenceProofBatch(b) },
		reencode: func(v any) []byte { return v.(*ExistenceProofBatch).EncodeBytes() },
		verify: func(v any, ver Verifier) error {
			b := *v.(*ExistenceProofBatch)
			if err := b.FillState(named); err != nil {
				return err
			}
			_, err := ver.VerifyExistenceBatch(&b)
			return err
		},
		claims: func(v any) []byte { return batchClaims(t, v.(*ExistenceProofBatch)) },
	}
}

func batchClaims(t *testing.T, b *ExistenceProofBatch) []byte {
	parts := [][]byte{stateBytes(b.State)}
	for i := range b.Items {
		parts = append(parts, recordClaims(t, b.Items[i].RecordBytes), b.Items[i].Payload)
	}
	return claimBytes(parts...)
}

// recordClaims reduces a transported record to its authenticated
// content: the tx-hash, which covers every field except the occult bit.
// The occult bit is unauthenticated BY DESIGN (Protocol 2: occulting a
// journal must not change its tx-hash, so the bitmap lives outside the
// accumulator) — a relying party must not trust it from a proof, and
// the corruption sweep accordingly treats it as re-derived metadata.
func recordClaims(t *testing.T, raw []byte) []byte {
	t.Helper()
	rec, err := journal.DecodeRecord(raw)
	if err != nil {
		t.Fatalf("verified proof carries undecodable record: %v", err)
	}
	d := rec.TxHash()
	return d[:]
}

// claimBytes length-prefix-joins byte fields so adjacent claims cannot
// alias under concatenation.
func claimBytes(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, byte(len(p)), byte(len(p)>>8), byte(len(p)>>16))
		out = append(out, p...)
	}
	return out
}

func stateBytes(st *SignedState) []byte {
	if st == nil {
		return nil // a state the reply left out is the requester's own
	}
	w := newTestWriter()
	st.Encode(w)
	return w.Bytes()
}

// TestProofCodecRoundTrip: decode(encode(p)) re-encodes to the exact
// original bytes and still verifies.
func TestProofCodecRoundTrip(t *testing.T) {
	codecs, lsp, _ := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			v, err := c.decode(c.enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := c.verify(v, Verifier{LSP: lsp}); err != nil {
				t.Fatalf("verify after round trip: %v", err)
			}
			if !bytes.Equal(c.reencode(v), c.enc) {
				t.Fatal("re-encoded bytes differ from original")
			}
		})
	}
}

// TestProofCodecTruncation: every strict prefix of a valid encoding
// must fail to decode — cleanly, without panicking.
func TestProofCodecTruncation(t *testing.T) {
	codecs, _, _ := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < len(c.enc); i++ {
				if _, err := c.decode(c.enc[:i]); err == nil {
					t.Fatalf("decode accepted a %d/%d-byte prefix", i, len(c.enc))
				}
			}
		})
	}
}

// forEachByteFlip calls fn with every decodable single-byte corruption
// of c.enc under mask. Undecodable mutants are skipped: the decoder
// must merely not panic on them.
func (c *proofCodec) forEachByteFlip(mask byte, fn func(i int, v any)) {
	mut := make([]byte, len(c.enc))
	for i := range c.enc {
		copy(mut, c.enc)
		mut[i] ^= mask
		if v, err := c.decode(mut); err == nil {
			fn(i, v)
		}
	}
}

// TestProofCodecCorruption flips each byte of each encoding in turn:
// the decoder must never panic, and a corrupted proof must never both
// decode AND verify — every semantic byte is covered by a digest or a
// signature.
func TestProofCodecCorruption(t *testing.T) {
	codecs, lsp, _ := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) { c.checkCorruption(t, lsp) })
	}
}

func (c *proofCodec) checkCorruption(t *testing.T, lsp sig.PublicKey) {
	t.Helper()
	orig, err := c.decode(c.enc)
	if err != nil {
		t.Fatal(err)
	}
	c.forEachByteFlip(0xFF, func(i int, v any) {
		if err := c.verify(v, Verifier{LSP: lsp}); err == nil {
			// Surviving both is only acceptable when the
			// corruption left every authenticated claim intact
			// (it hit re-derived path metadata).
			if !bytes.Equal(c.claims(v), c.claims(orig)) {
				t.Fatalf("%s byte %d: corrupted proof decoded AND verified with altered claims", c.name, i)
			}
		}
	})
}

// TestProofCodecTrailingGarbage: appended bytes must be rejected (the
// readers demand full consumption).
func TestProofCodecTrailingGarbage(t *testing.T) {
	codecs, _, _ := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.decode(append(append([]byte(nil), c.enc...), 0xAB)); err == nil {
				t.Fatal("decode accepted trailing garbage")
			}
		})
	}
}

// buildBatchFixture proves jsns — one of them asked for twice — into one
// batch with payloads, on a ledger of the given size (δ = 3: more than 8
// journals seal fam epochs, fewer leave the first one open).
func buildBatchFixture(tb testing.TB, journals int, jsns ...uint64) (*ExistenceProofBatch, sig.PublicKey) {
	tb.Helper()
	e := newEnv(tb, nil)
	for i := 1; i < journals; i++ { // jsn 0 is genesis
		e.append(tb, fmt.Sprintf("doc-%d", i), "K")
	}
	b, err := e.ledger.ProveExistenceBatch(append(jsns, jsns[0]), true, Held{})
	if err != nil {
		tb.Fatal(err)
	}
	return b, e.lsp.Public()
}

// buildSealedBatchFixture spreads the batch over sealed epochs and the
// open one.
func buildSealedBatchFixture(tb testing.TB) (*ExistenceProofBatch, sig.PublicKey) {
	tb.Helper()
	b, lsp := buildBatchFixture(tb, 41, 2, 5, 9, 10, 30, 38)
	if b.Fam.Height == 0 || len(b.Fam.Nodes) < 8 {
		tb.Fatalf("fixture proof spans one epoch (height %d, %d nodes)", b.Fam.Height, len(b.Fam.Nodes))
	}
	return b, lsp
}

// occultFlagOffsets locates the last byte of every record inside an
// encoded batch: the occult flag, the one byte of a proof no digest
// covers (see recordClaims).
func occultFlagOffsets(b *ExistenceProofBatch) map[int]bool {
	w := newTestWriter()
	w.Uvarint(uint64(len(b.Items)))
	flags := make(map[int]bool, len(b.Items))
	for i := range b.Items {
		w.WriteBytes(b.Items[i].RecordBytes)
		flags[w.Len()-1] = true
		w.WriteBytes(b.Items[i].Payload)
	}
	return flags
}

// TestExistenceBatchMutationSoundness: the batch codec carries no byte a
// verifier does not hold to account. Every single-byte change of a valid
// encoding — one bit, the top bit, all bits — and every two-adjacent-byte
// change is refused by the decoder
// or the verifier, or decodes to the very object the untouched bytes
// decode to; the records' occult flags are the only bytes that may
// change and still verify, and then nothing else may have. On the
// decoded object, every node dropped, repeated, swapped or appended, and
// every other fam size, is refused.
func TestExistenceBatchMutationSoundness(t *testing.T) {
	b, lsp := buildSealedBatchFixture(t)
	ver := Verifier{LSP: lsp}
	open, openLSP := buildBatchFixture(t, 6, 1, 3, 4)
	if open.Fam.Height != 0 {
		t.Fatalf("one-epoch fixture states height %d", open.Fam.Height)
	}
	for _, fx := range []struct {
		name  string
		batch *ExistenceProofBatch
		ver   Verifier
	}{{"sealed epochs", b, ver}, {"first epoch open", open, Verifier{LSP: openLSP}}} {
		enc := fx.batch.EncodeBytes()
		if _, err := fx.ver.VerifyExistenceBatch(fx.batch); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		flags := occultFlagOffsets(fx.batch)
		mut := make([]byte, len(enc))
		// The last mode is the end-to-end benchmark's tamper gate: one bit
		// in each of two adjacent bytes, so that an occult flag never
		// takes the whole hit.
		atProcs(t, func(note func(string)) {
			for _, mask := range [][2]byte{{0x01}, {0x80}, {0xFF}, {0x01, 0x01}} {
				for i := range enc {
					copy(mut, enc)
					mut[i] ^= mask[0]
					if i+1 < len(enc) {
						mut[i+1] ^= mask[1]
					}
					got, err := DecodeExistenceProofBatch(mut)
					if err != nil {
						continue
					}
					_, err = fx.ver.VerifyExistenceBatch(got)
					note(verdict(err))
					if err != nil {
						continue
					}
					again := got.EncodeBytes()
					if bytes.Equal(again, enc) {
						continue // a lenient read of the same object
					}
					if flags[i] && mask[1] == 0 {
						again[i] = enc[i]
						if bytes.Equal(again, enc) {
							continue // only the unauthenticated occult flag moved
						}
					}
					t.Fatalf("%s: byte %d ^ %#02x: mutant decoded to a different batch AND verified", fx.name, i, mask)
				}
			}
		})
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeExistenceProofBatch(enc[:i]); err == nil {
				t.Fatalf("%s: %d/%d-byte prefix decoded", fx.name, i, len(enc))
			}
		}
	}

	refuse := func(name string, fp *fam.BatchProof) {
		t.Helper()
		m := &ExistenceProofBatch{Items: b.Items, Fam: fp, State: b.State}
		// Through the wire, so the count prefix moves with the list.
		got, err := DecodeExistenceProofBatch(m.EncodeBytes())
		if err != nil {
			return
		}
		if _, err := ver.VerifyExistenceBatch(got); !errors.Is(err, ErrVerify) {
			t.Fatalf("%s: err = %v, want ErrVerify", name, err)
		}
	}
	nodes := b.Fam.Nodes
	with := func(n []hashutil.Digest) *fam.BatchProof {
		return &fam.BatchProof{Height: b.Fam.Height, Size: b.Fam.Size, Nodes: n}
	}
	clone := func() []hashutil.Digest { return append([]hashutil.Digest(nil), nodes...) }
	for i := range nodes {
		refuse(fmt.Sprintf("node %d dropped", i), with(append(clone()[:i], nodes[i+1:]...)))
		refuse(fmt.Sprintf("node %d repeated", i), with(append(clone()[:i+1], nodes[i:]...)))
		for j := i + 1; j < len(nodes); j++ {
			swapped := clone()
			swapped[i], swapped[j] = swapped[j], swapped[i]
			refuse(fmt.Sprintf("nodes %d and %d swapped", i, j), with(swapped))
		}
		refuse(fmt.Sprintf("node %d appended again", i), with(append(clone(), nodes[i])))
	}
	refuse("foreign node appended", with(append(clone(), hashutil.Sum([]byte("foreign")))))
	for _, size := range []uint64{b.Fam.Size - 1, b.Fam.Size + 1, b.Fam.Size + 8} {
		refuse(fmt.Sprintf("fam size %d under a state signing %d", size, b.State.JSN),
			&fam.BatchProof{Height: b.Fam.Height, Size: size, Nodes: nodes})
	}
	refuse("height dropped", &fam.BatchProof{Size: b.Fam.Size, Nodes: nodes})

	// A record moved to another item's slot keeps verifying (order is the
	// request's, not the proof's); a record REPLACED by another proven
	// one is a batch the proof does not cover.
	dup := &ExistenceProofBatch{Items: append([]ExistenceItem(nil), b.Items...), Fam: b.Fam, State: b.State}
	dup.Items[1] = dup.Items[2]
	if _, err := ver.VerifyExistenceBatch(dup); !errors.Is(err, ErrVerify) {
		t.Fatalf("batch with an uncovered leaf set: err = %v", err)
	}
}

// TestDecodeExistenceProofBatchHostileCounts: neither the item count nor
// the node count can size an allocation the input does not back (the
// decodeBatchReceipt lesson).
func TestDecodeExistenceProofBatchHostileCounts(t *testing.T) {
	b, _ := buildSealedBatchFixture(t)
	items := newTestWriter()
	items.Uvarint(MaxProofBatch) // promised by three bytes of input
	items.Uint8(0)

	nodes := newTestWriter()
	nodes.Uvarint(1)
	nodes.WriteBytes(b.Items[0].RecordBytes)
	nodes.WriteBytes(nil)
	nodes.Uint8(b.Fam.Height)
	nodes.Uvarint(b.Fam.Size)
	nodes.Uvarint(1 << 40) // nodes promised
	nodes.Digest(b.Fam.Nodes[0])
	b.State.Encode(nodes)

	for name, enc := range map[string][]byte{"item count": items.Bytes(), "node count": nodes.Bytes()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeExistenceProofBatch(enc)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("hostile %s decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
			t.Fatalf("hostile %s: decoder allocated %d bytes before refusing a %d-byte input", name, grew, len(enc))
		}
	}
}
