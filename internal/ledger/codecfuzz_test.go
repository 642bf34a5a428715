package ledger

import (
	"bytes"
	"fmt"
	"testing"

	"ledgerdb/internal/journal"
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
// client verifies over it, plus the LSP key they verify under.
func buildProofCodecs(t *testing.T) ([]proofCodec, sig.PublicKey) {
	t.Helper()
	e := newEnv(t, nil)
	for i := 0; i < 7; i++ {
		e.nonce++
		req := e.request(t, fmt.Sprintf("doc-%d", i), "K", fmt.Sprintf("solo-%d", i))
		req.StateKey = []byte(fmt.Sprintf("acct-%d", i%3))
		if err := req.Sign(e.client); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ledger.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	// A time journal gives bundles a when-chain; the tail seals fam
	// epochs so the anchored proof is the short one.
	authority := tsa.New("codecs", tsa.Options{Clock: e.cfg.Clock})
	if _, err := e.ledger.AnchorTimeWith(authority.Stamp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 33; i++ {
		e.append(t, fmt.Sprintf("tail-%d", i))
	}
	anchor := e.ledger.Anchor()
	if anchor.Epochs == 0 {
		t.Fatal("fixture sealed no fam epoch")
	}

	ep, err := e.ledger.ProveExistence(3, true)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := e.ledger.ProveExistenceAnchored(3, anchor, true)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := e.ledger.ProveClue("K", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := e.ledger.ProveState([]byte("acct-1"))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.ledger.ProveExistenceBatch([]uint64{1, 3, 5}, true)
	if err != nil {
		t.Fatal(err)
	}
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

	existenceClaims := func(v any) []byte {
		p := v.(*ExistenceProof)
		return claimBytes(recordClaims(t, p.RecordBytes), p.Payload, stateBytes(p.State))
	}
	batchClaims := func(b *ExistenceProofBatch) []byte {
		parts := [][]byte{stateBytes(b.State)}
		for i := range b.Items {
			parts = append(parts, recordClaims(t, b.Items[i].RecordBytes), b.Items[i].Payload)
		}
		return claimBytes(parts...)
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
					return batchClaims(r.Batch)
				}
				return absenceClaims(r.Absence)
			},
		}
	}

	return []proofCodec{
		{
			name:     "existence",
			enc:      ep.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeExistenceProof(b) },
			reencode: func(v any) []byte { return v.(*ExistenceProof).EncodeBytes() },
			verify: func(v any, ver Verifier) error {
				_, err := ver.VerifyExistenceAnchored(v.(*ExistenceProof), nil)
				return err
			},
			claims: existenceClaims,
		},
		{
			name:     "existence-anchored",
			enc:      ea.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeExistenceProof(b) },
			reencode: func(v any) []byte { return v.(*ExistenceProof).EncodeBytes() },
			verify: func(v any, ver Verifier) error {
				_, err := ver.VerifyExistenceAnchored(v.(*ExistenceProof), anchor)
				return err
			},
			claims: existenceClaims,
		},
		{
			name:     "clue-bundle",
			enc:      cb.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeClueProofBundle(b) },
			reencode: func(v any) []byte { return v.(*ClueProofBundle).EncodeBytes() },
			verify: func(v any, ver Verifier) error {
				_, err := ver.VerifyClue(v.(*ClueProofBundle))
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
		},
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
		{
			name:     "existence-batch",
			enc:      batch.EncodeBytes(),
			decode:   func(b []byte) (any, error) { return DecodeExistenceProofBatch(b) },
			reencode: func(v any) []byte { return v.(*ExistenceProofBatch).EncodeBytes() },
			verify: func(v any, ver Verifier) error {
				_, err := ver.VerifyExistenceBatch(v.(*ExistenceProofBatch))
				return err
			},
			claims: func(v any) []byte { return batchClaims(v.(*ExistenceProofBatch)) },
		},
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
	}, e.lsp.Public()
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
	w := newTestWriter()
	st.Encode(w)
	return w.Bytes()
}

// TestProofCodecRoundTrip: decode(encode(p)) re-encodes to the exact
// original bytes and still verifies.
func TestProofCodecRoundTrip(t *testing.T) {
	codecs, lsp := buildProofCodecs(t)
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
	codecs, _ := buildProofCodecs(t)
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
	codecs, lsp := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
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
						t.Fatalf("byte %d: corrupted proof decoded AND verified with altered claims", i)
					}
				}
			})
		})
	}
}

// TestProofCodecTrailingGarbage: appended bytes must be rejected (the
// readers demand full consumption).
func TestProofCodecTrailingGarbage(t *testing.T) {
	codecs, _ := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.decode(append(append([]byte(nil), c.enc...), 0xAB)); err == nil {
				t.Fatal("decode accepted trailing garbage")
			}
		})
	}
}
