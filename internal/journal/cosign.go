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
func VerifyRecordSigs(rec *Record) error {
	_, err := VerifyRecordsSigs([]*Record{rec}, nil)
	return err
}

// VerifyRecordsSigs is VerifyRecordSigs for every record of a reply,
// through a memo of signatures the verifier has already checked (nil =
// none; a committed record is immutable, so a reader that proves the
// same record again presents the same triples). The signatures are
// flattened into checks in record order, π_c before co-signers, and run
// by m.VerifyAll — memo hits first, then the misses on every core — so
// the verdict is the record-by-record loop's: the index of the first
// record with a bad signature and that signature's error, or
// (len(recs), nil).
func VerifyRecordsSigs(recs []*Record, m *sig.Memo) (int, error) {
	n := 0
	for _, rec := range recs {
		n += rec.sigCount()
	}
	cs := make([]sig.Check, 0, n)
	for _, rec := range recs {
		if rec.sigCount() == 0 {
			continue
		}
		cs = append(cs, sig.Check{PK: rec.ClientPK, Digest: rec.RequestHash, Sig: rec.ClientSig})
		for _, co := range rec.CoSigners {
			cs = append(cs, sig.Check{PK: co.PK, Digest: rec.RequestHash, Sig: co.Sig})
		}
	}
	bad, err := m.VerifyAll(cs)
	if err == nil {
		return len(recs), nil
	}
	for i, rec := range recs { // walk the failed check back to its record
		switch k := rec.sigCount(); {
		case bad >= k:
			bad -= k
		case bad == 0:
			return i, fmt.Errorf("%w: record %d π_c: %v", ErrBadSignature, rec.JSN, err)
		default:
			return i, fmt.Errorf("%w: record %d co-signer %d: %v", ErrBadSignature, rec.JSN, bad-1, err)
		}
	}
	return len(recs), err // unreachable: bad indexes cs
}

// sigCount is how many signatures who-verification checks on rec: π_c
// and each co-signature, or none on a time journal, which carries the
// TSA attestation instead (the audit verifies π_t separately).
func (rec *Record) sigCount() int {
	if rec.Type == TypeTime {
		return 0
	}
	return 1 + len(rec.CoSigners)
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
