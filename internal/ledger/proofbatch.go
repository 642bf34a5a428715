package ledger

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements batched existence proofs: N journals proven
// against ONE shared SignedState. The LSP signature — the dominant cost
// of a single proof — is paid once per batch (and, with the state
// cache, once per commit generation), while each journal keeps its own
// fam path. Client-side, VerifyExistenceBatch checks the state
// signature once and then folds every record through its path.

// MaxProofBatch bounds the journals per batched proof request, both at
// the prover (request validation) and the decoder (hostile input).
const MaxProofBatch = 1024

// ExistenceItem is one journal's share of a batched proof: the raw
// record, its optional payload, and its fam path. The shared signed
// state lives on the enclosing batch.
type ExistenceItem struct {
	RecordBytes []byte
	Payload     []byte // nil for occulted journals or digest-only proofs
	Fam         *fam.Proof
}

// ExistenceProofBatch carries N existence proofs anchored to one signed
// state.
type ExistenceProofBatch struct {
	Items []ExistenceItem
	State *SignedState
}

// ProveExistenceBatch builds existence proofs for every jsn in one
// read-lock section, so all fam paths and the shared signed state
// describe the same commit generation. Like ProveExistence, the lock
// covers only in-memory snapshotting; journal-stream and blob reads run
// after it is dropped.
func (l *Ledger) ProveExistenceBatch(jsns []uint64, withPayload bool) (*ExistenceProofBatch, error) {
	if len(jsns) == 0 {
		return nil, fmt.Errorf("%w: empty proof batch", journal.ErrBadRequest)
	}
	if len(jsns) > MaxProofBatch {
		return nil, fmt.Errorf("%w: proof batch of %d exceeds %d", journal.ErrBadRequest, len(jsns), MaxProofBatch)
	}
	l.mu.RLock()
	// Followers prove against the newest primary-signed checkpoint (the
	// same historical-proof path as proveExistence); primaries prove
	// against the live frontier and sign it.
	var st *SignedState
	var stErr error
	size := l.nextJSN
	if l.cfg.ApplyOnly {
		if st, stErr = l.replicaAnyStateLocked(); stErr != nil {
			l.mu.RUnlock()
			return nil, stErr
		}
		size = st.JSN
	}
	fps := make([]*fam.Proof, len(jsns))
	occ := make([]bool, len(jsns))
	for i, jsn := range jsns {
		if jsn >= size {
			l.mu.RUnlock()
			if jsn < l.nextJSN {
				return nil, fmt.Errorf("%w: jsn %d not covered by checkpoint at %d", ErrStaleCheckpoint, jsn, size)
			}
			return nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, size)
		}
		if jsn < l.base {
			l.mu.RUnlock()
			return nil, fmt.Errorf("%w: jsn %d", ErrPurged, jsn)
		}
		fp, err := l.fam.ProveAt(jsn, size)
		if err != nil {
			l.mu.RUnlock()
			return nil, err
		}
		fps[i] = fp
		occ[i] = l.occulted[jsn]
	}
	if st == nil {
		st, stErr = l.stateLocked()
	}
	l.mu.RUnlock()
	if stErr != nil {
		return nil, stErr
	}
	b := &ExistenceProofBatch{Items: make([]ExistenceItem, len(jsns)), State: st}
	for i, jsn := range jsns {
		raw, err := l.readJournalBytes(jsn)
		if err != nil {
			return nil, err
		}
		b.Items[i] = ExistenceItem{RecordBytes: raw, Fam: fps[i]}
		if withPayload && !occ[i] {
			if b.Items[i].Payload, err = l.proofPayload(raw); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// VerifyExistenceBatch is the client-side check of a batched proof: one
// LSP signature verification over the shared state, then per journal
// the same what/who checks as VerifyExistence. Returns the decoded
// records in batch order.
func VerifyExistenceBatch(b *ExistenceProofBatch, lsp sig.PublicKey) ([]*journal.Record, error) {
	return Verifier{LSP: lsp}.VerifyExistenceBatch(b)
}

// VerifyExistenceBatch is the package-level VerifyExistenceBatch under v.
func (v Verifier) VerifyExistenceBatch(b *ExistenceProofBatch) ([]*journal.Record, error) {
	if b == nil || b.State == nil {
		return nil, fmt.Errorf("%w: incomplete proof batch", ErrVerify)
	}
	if err := v.VerifySignedState(b.State); err != nil {
		return nil, err
	}
	recs := make([]*journal.Record, 0, len(b.Items))
	for i := range b.Items {
		it := &b.Items[i]
		rec, err := v.verifyExistenceItem(it.RecordBytes, it.Payload, it.Fam, nil, b.State.JournalRoot)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// verifyExistenceItem runs the per-journal half of existence
// verification (everything except the state signature, which the caller
// has already checked): decode, fold the tx-hash through the fam path
// to root, re-verify client signatures, and match any shipped payload
// against the recorded digest. Only v.Memo is consulted; v.LSP has done
// its work on the state (or is not the root's authority at all).
func (v Verifier) verifyExistenceItem(recordBytes, payload []byte, fp *fam.Proof, a *fam.Anchor, root hashutil.Digest) (*journal.Record, error) {
	if fp == nil {
		return nil, fmt.Errorf("%w: incomplete proof", ErrVerify)
	}
	rec, err := journal.DecodeRecord(recordBytes)
	if err != nil {
		return nil, err
	}
	// The fam fold below binds the record's content; this binds the
	// path's claimed position, which fam.Verify treats as metadata.
	if fp.Index != rec.JSN {
		return nil, fmt.Errorf("%w: fam proof is for journal %d, record is %d", ErrVerify, fp.Index, rec.JSN)
	}
	txHash := rec.TxHash()
	if a != nil {
		err = fam.VerifyAnchored(txHash, fp, a, root)
	} else {
		err = fam.Verify(txHash, fp, root)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: what: %v", ErrVerify, err)
	}
	if err := journal.VerifyRecordSigsMemo(rec, v.Memo); err != nil {
		return nil, fmt.Errorf("%w: who: %v", ErrVerify, err)
	}
	if payload != nil {
		if hashutil.Sum(payload) != rec.PayloadDigest {
			return nil, fmt.Errorf("%w: payload does not match recorded digest", ErrVerify)
		}
	}
	return rec, nil
}

// EncodeBytes serializes a batched proof for transport.
func (b *ExistenceProofBatch) EncodeBytes() []byte {
	w := wire.NewWriter(4096)
	w.Uvarint(uint64(len(b.Items)))
	for i := range b.Items {
		w.WriteBytes(b.Items[i].RecordBytes)
		w.WriteBytes(b.Items[i].Payload)
		b.Items[i].Fam.Encode(w)
	}
	b.State.Encode(w)
	return w.Bytes()
}

// DecodeExistenceProofBatch parses a transported batched proof.
func DecodeExistenceProofBatch(raw []byte) (*ExistenceProofBatch, error) {
	r := wire.NewReader(raw)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n == 0 || n > MaxProofBatch {
		return nil, fmt.Errorf("%w: %d proof items", ErrVerify, n)
	}
	b := &ExistenceProofBatch{Items: make([]ExistenceItem, n)}
	for i := uint64(0); i < n; i++ {
		b.Items[i].RecordBytes = r.BytesCopy()
		if payload := r.BytesCopy(); len(payload) > 0 {
			b.Items[i].Payload = payload
		}
		fp, err := fam.DecodeProof(r)
		if err != nil {
			return nil, err
		}
		b.Items[i].Fam = fp
	}
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	b.State = st
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}
