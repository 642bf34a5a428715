package ledger

import (
	"fmt"
	"slices"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements batched existence proofs: N journals proven
// against ONE shared SignedState by ONE shared fam proof. The LSP
// signature — the dominant cost of a single proof — is paid once per
// batch (and, with the state cache, once per commit generation), and the
// fam nodes two journals' paths have in common — the merged-leaf hops,
// the frontier, the upper siblings — are stated once (fam.BatchProof).
// Client-side, VerifyExistenceBatch checks the state signature once and
// folds all records to the signed root in one pass.

// MaxProofBatch bounds the journals per batched proof request, both at
// the prover (request validation) and the decoder (hostile input).
const MaxProofBatch = 1024

// ExistenceItem is one journal's share of a batched proof: the raw
// record and its optional payload. The fam proof and the signed state
// are shared and live on the enclosing batch.
type ExistenceItem struct {
	RecordBytes []byte
	Payload     []byte // nil for occulted journals or digest-only proofs
	// Held is set, and RecordBytes empty, where a query reply left the
	// record out for a requester that holds it (see Fill).
	Held *Placeholder
}

// ExistenceProofBatch carries N existence proofs anchored to one signed
// state. Fam proves every item's tx-hash at its record's jsn; it names
// no positions of its own, so it cannot disagree with the records.
type ExistenceProofBatch struct {
	Items []ExistenceItem
	Fam   *fam.BatchProof
	State *SignedState // nil unless Slot is StateSent
	Slot  StateSlot
}

// ProveExistenceBatch builds existence proofs for every jsn in one
// read-lock section, at the newest signed state that covers them all
// (provingStateLocked), held back when it is the one held.State names.
// Like ProveExistence, the lock covers only in-memory snapshotting;
// journal-stream and blob reads run after it is dropped.
func (l *Ledger) ProveExistenceBatch(jsns []uint64, withPayload bool, held Held) (*ExistenceProofBatch, error) {
	return l.proveExistenceBatch(jsns, withPayload, false, held)
}

// ProveQueryBatch is ProveExistenceBatch for the sidecar index: a query
// reply anchors to the ledger the index just caught up with — the
// frontier state (frontierStateLocked) — not to an earlier one that
// happens to cover the matches. Matches the requester holds go out as
// placeholders (slotBytes), and so does the state when it is the one
// held.State names.
func (l *Ledger) ProveQueryBatch(jsns []uint64, withPayload bool, held Held) (*ExistenceProofBatch, error) {
	return l.proveExistenceBatch(jsns, withPayload, true, held)
}

func (l *Ledger) proveExistenceBatch(jsns []uint64, withPayload, frontier bool, held Held) (*ExistenceProofBatch, error) {
	if len(jsns) == 0 {
		return nil, fmt.Errorf("%w: empty proof batch", journal.ErrBadRequest)
	}
	if len(jsns) > MaxProofBatch {
		return nil, fmt.Errorf("%w: proof batch of %d exceeds %d", journal.ErrBadRequest, len(jsns), MaxProofBatch)
	}
	l.mu.RLock()
	occ := make([]bool, len(jsns))
	for i, jsn := range jsns {
		if jsn >= l.nextJSN {
			l.mu.RUnlock()
			return nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, l.nextJSN)
		}
		if jsn < l.base {
			l.mu.RUnlock()
			return nil, fmt.Errorf("%w: jsn %d", ErrPurged, jsn)
		}
		occ[i] = l.occulted[jsn]
	}
	var st *SignedState
	var err error
	if last := slices.Max(jsns); frontier {
		st, err = l.frontierStateLocked(last)
	} else {
		st, _, err = l.provingStateLocked(last)
	}
	var fp *fam.BatchProof
	if err == nil {
		fp, err = l.fam.ProveBatchAt(jsns, st.JSN)
	}
	l.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	b := &ExistenceProofBatch{Items: make([]ExistenceItem, len(jsns)), Fam: fp}
	b.State, b.Slot = l.stateSlot(st, held)
	for i, jsn := range jsns {
		it := &b.Items[i]
		if it.RecordBytes, it.Held, it.Payload, err = l.slotBytes(jsn, withPayload, occ[i], held); err != nil {
			return nil, err
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
	if b == nil || b.State == nil || b.Fam == nil || len(b.Items) == 0 {
		return nil, fmt.Errorf("%w: incomplete proof batch", ErrVerify)
	}
	if err := v.VerifySignedState(b.State); err != nil {
		return nil, err
	}
	// The fold binds Size only where it moves the walk; the signature
	// binds it everywhere.
	if b.Fam.Size != b.State.JSN {
		return nil, fmt.Errorf("%w: fam proof at size %d, state signs %d journals", ErrVerify, b.Fam.Size, b.State.JSN)
	}
	recs := make([]*journal.Record, len(b.Items))
	leaves := make([]fam.Leaf, len(b.Items))
	payloads := make([][]byte, len(b.Items))
	for i := range b.Items {
		rec, err := journal.DecodeRecord(b.Items[i].RecordBytes)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		// Each tx-hash is folded in AT its record's jsn: the proof has no
		// say in where a record sits.
		recs[i], leaves[i] = rec, fam.Leaf{Index: rec.JSN, Digest: rec.TxHash()}
		payloads[i] = b.Items[i].Payload
	}
	if err := fam.VerifyBatch(leaves, b.Fam, b.State.JournalRoot); err != nil {
		return nil, fmt.Errorf("%w: what: %v", ErrVerify, err)
	}
	if i, err := v.verifyRecordContent(recs, payloads); err != nil {
		return nil, fmt.Errorf("batch item %d: %w", i, err)
	}
	return recs, nil
}

// verifyExistenceItem runs the per-journal half of single-record
// existence verification (everything except the state signature, which
// the caller has already checked): decode, fold the tx-hash at the
// record's jsn through the batch of one fp to root — the commitment to
// size journals — then verifyRecordContent. Only v.Memo is consulted;
// v.LSP has done its work on the state (or is not the root's authority
// at all).
func (v Verifier) verifyExistenceItem(recordBytes, payload []byte, fp *fam.BatchProof, size uint64, root hashutil.Digest) (*journal.Record, error) {
	if fp == nil {
		return nil, fmt.Errorf("%w: incomplete proof", ErrVerify)
	}
	// The fold binds Size only where it moves the walk; the caller's
	// size binds it everywhere.
	if fp.Size != size {
		return nil, fmt.Errorf("%w: fam proof at size %d, root commits to %d", ErrVerify, fp.Size, size)
	}
	rec, err := journal.DecodeRecord(recordBytes)
	if err != nil {
		return nil, err
	}
	if err := fam.VerifyBatch([]fam.Leaf{{Index: rec.JSN, Digest: rec.TxHash()}}, fp, root); err != nil {
		return nil, fmt.Errorf("%w: what: %v", ErrVerify, err)
	}
	if _, err := v.verifyRecordContent([]*journal.Record{rec}, [][]byte{payload}); err != nil {
		return nil, err
	}
	return rec, nil
}

// verifyRecordContent is what remains once records' tx-hashes are
// proven into a trusted root: re-verify their client signatures (who),
// on every core, and match each shipped payload (payloads[i], nil when
// none) against its recorded digest. It returns the first record that
// fails — within one record a bad signature before a bad payload — and
// its error, or (len(recs), nil).
func (v Verifier) verifyRecordContent(recs []*journal.Record, payloads [][]byte) (int, error) {
	bad, err := journal.VerifyRecordsSigs(recs, v.Memo)
	if err != nil {
		err = fmt.Errorf("%w: who: %v", ErrVerify, err)
	}
	for i := range bad {
		if payloads[i] != nil && hashutil.Sum(payloads[i]) != recs[i].PayloadDigest {
			return i, fmt.Errorf("%w: payload does not match recorded digest", ErrVerify)
		}
	}
	return bad, err
}

// EncodeBytes serializes a batched proof for transport: the items, the
// one fam proof they share, the signed state.
func (b *ExistenceProofBatch) EncodeBytes() []byte {
	w := wire.NewWriter(4096)
	w.Uvarint(uint64(len(b.Items)))
	for i := range b.Items {
		writeSlot(w, b.Items[i].RecordBytes, b.Items[i].Held)
		w.WriteBytes(b.Items[i].Payload)
	}
	b.Fam.Encode(w)
	writeState(w, b.State, b.Slot)
	return w.Bytes()
}

// DecodeExistenceProofBatch parses a transported batched proof. Counts
// are checked against the bytes present before they size anything.
func DecodeExistenceProofBatch(raw []byte) (*ExistenceProofBatch, error) {
	r := wire.NewReader(raw)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// An item is at least its two length prefixes.
	if n == 0 || n > MaxProofBatch || n > uint64(r.Remaining()/2) {
		return nil, fmt.Errorf("%w: %d proof items", ErrVerify, n)
	}
	b := &ExistenceProofBatch{Items: make([]ExistenceItem, n)}
	for i := range b.Items {
		b.Items[i].RecordBytes, b.Items[i].Held = readSlot(r)
		if payload := r.BytesCopy(); len(payload) > 0 {
			b.Items[i].Payload = payload
		}
	}
	fp, err := fam.DecodeBatchProof(r)
	if err != nil {
		return nil, err
	}
	b.Fam = fp
	if b.State, b.Slot, err = readState(r, false); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}
