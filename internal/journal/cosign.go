package journal

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// CoSignature is an additional party's signature over a request-hash.
// Multi-signed journals (the Sig-1…Sig-7 workloads of Figure 7's who
// breakdown) carry one CoSignature per extra signer; who-verification
// cost scales linearly with their count.
type CoSignature struct {
	PK  sig.PublicKey
	Sig sig.Signature
}

// CoSign appends a co-signer's signature to the request. The co-signer
// signs the same request-hash as the primary client (the hash does not
// cover co-signatures, so signing order is immaterial).
func (r *Request) CoSign(kp *sig.KeyPair) error {
	s, err := kp.Sign(r.Hash())
	if err != nil {
		return err
	}
	r.CoSigners = append(r.CoSigners, CoSignature{PK: kp.Public(), Sig: s})
	return nil
}

// VerifyAllSigs checks π_c and every co-signature.
func (r *Request) VerifyAllSigs() error {
	return r.VerifyAllSigsAt(r.Hash())
}

// VerifyAllSigsAt is VerifyAllSigs against a request-hash the caller has
// already computed, hashing the request exactly once per admission.
func (r *Request) VerifyAllSigsAt(h hashutil.Digest) error {
	if err := r.VerifySigAt(h); err != nil {
		return err
	}
	for i, cs := range r.CoSigners {
		if err := sig.Verify(cs.PK, h, cs.Sig); err != nil {
			return fmt.Errorf("%w: co-signer %d (%s): %v", ErrBadSignature, i, cs.PK, err)
		}
	}
	return nil
}

// VerifyRecordSigs re-checks a committed record's client signature and
// co-signatures against its request-hash — the who leg of a Dasein audit.
func VerifyRecordSigs(rec *Record) error { return VerifyRecordSigsMemo(rec, nil) }

// VerifyRecordSigsMemo is VerifyRecordSigs for a verifier that keeps a
// memo of signatures it has already checked (nil = none). A committed
// record is immutable, so a reader that proves the same record again
// presents the same triples.
func VerifyRecordSigsMemo(rec *Record, m *sig.Memo) error {
	if rec.Type == TypeTime {
		// Time journals carry the TSA attestation instead; the audit
		// verifies π_t separately.
		return nil
	}
	if err := m.Verify(rec.ClientPK, rec.RequestHash, rec.ClientSig); err != nil {
		return fmt.Errorf("%w: record %d π_c: %v", ErrBadSignature, rec.JSN, err)
	}
	for i, cs := range rec.CoSigners {
		if err := m.Verify(cs.PK, rec.RequestHash, cs.Sig); err != nil {
			return fmt.Errorf("%w: record %d co-signer %d: %v", ErrBadSignature, rec.JSN, i, err)
		}
	}
	return nil
}

func encodeCoSigners(w *wire.Writer, cs []CoSignature) {
	w.Uvarint(uint64(len(cs)))
	for _, c := range cs {
		sig.EncodePublicKey(w, c.PK)
		sig.EncodeSignature(w, c.Sig)
	}
}

func decodeCoSigners(r *wire.Reader) ([]CoSignature, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 256 {
		return nil, fmt.Errorf("%w: %d co-signers", ErrDecode, n)
	}
	out := make([]CoSignature, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, CoSignature{PK: sig.DecodePublicKey(r), Sig: sig.DecodeSignature(r)})
	}
	return out, r.Err()
}
