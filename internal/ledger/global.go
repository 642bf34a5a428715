package ledger

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
)

// This file is the engine surface the sharded topology builds on
// (internal/shard): a coordinator periodically reads each shard's fam
// head, folds the heads into a global accumulator, and signs one global
// state. Proofs against that fold need the shard to prove records at the
// *folded* size — which may trail the live edge — so the prover here
// takes the batch of one at that size rather than at the live one.

// FamHead is one shard's accumulator head: the journal count and the fam
// root at that count, captured atomically under one lock epoch.
type FamHead struct {
	Size uint64
	Root hashutil.Digest
}

// FamHead snapshots the live fam head. Size 0 (empty ledger) returns a
// zero root — the coordinator folds it as "shard present, nothing
// accumulated yet".
func (l *Ledger) FamHead() (FamHead, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	size := l.fam.Size()
	if size == 0 {
		return FamHead{}, nil
	}
	root, err := l.fam.Root()
	if err != nil {
		return FamHead{}, err
	}
	return FamHead{Size: size, Root: root}, nil
}

// ProveExistenceAt builds the shard-local half of a global existence
// proof: the raw record and its fam path ending at the root the ledger
// exposed when it held exactly size journals (a folded FamHead.Size).
// The caller supplies the trusted root — typically via the coordinator's
// signed global state — so no SignedState ships here.
//
// Locking mirrors proveExistence: the fam path and occult bit are read
// under one RLock epoch; the immutable journal-stream and blob reads run
// after the lock is dropped.
func (l *Ledger) ProveExistenceAt(jsn, size uint64, withPayload bool) (*RecordProof, error) {
	l.mu.RLock()
	if size > l.nextJSN {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: proof at size %d of %d", ErrNotFound, size, l.nextJSN)
	}
	if jsn >= size {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d at size %d", ErrNotFound, jsn, size)
	}
	if jsn < l.base {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d", ErrPurged, jsn)
	}
	fp, err := l.fam.ProveBatchAt([]uint64{jsn}, size)
	if err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	occ := l.occulted[jsn]
	l.mu.RUnlock()
	raw, payload, err := l.recordBytes(jsn, withPayload && !occ)
	if err != nil {
		return nil, err
	}
	return &RecordProof{RecordBytes: raw, Payload: payload, Fam: fp}, nil
}

// RecordProof is the stateless core of an existence proof: record bytes
// plus the fam path, anchored by whatever trusted root the caller holds
// (a signed shard state, or a fold-time head bound into a signed global
// root). ExistenceProof is this plus a shard-local SignedState.
type RecordProof struct {
	RecordBytes []byte
	Payload     []byte          // nil for occulted journals or digest-only proofs
	Fam         *fam.BatchProof // the batch of one at the record's jsn
}

// VerifyRecordAtRoot is the pure client-side check of a RecordProof
// against a trusted fam root over size journals: fold the record's
// tx-hash to root, re-verify the record's client signatures (who), and
// match the payload against the recorded digest when present (what).
// The root's own authenticity — LSP signature, or global accumulator
// membership plus coordinator signature — is the caller's concern.
func VerifyRecordAtRoot(recordBytes, payload []byte, fp *fam.BatchProof, size uint64, root hashutil.Digest) (*journal.Record, error) {
	return Verifier{}.VerifyRecordAtRoot(recordBytes, payload, fp, size, root)
}

// VerifyRecordAtRoot is the package-level VerifyRecordAtRoot under v.
// The root is the caller's to authenticate, so v.LSP plays no part;
// v.Memo answers for π_c and the co-signatures.
func (v Verifier) VerifyRecordAtRoot(recordBytes, payload []byte, fp *fam.BatchProof, size uint64, root hashutil.Digest) (*journal.Record, error) {
	return v.verifyExistenceItem(recordBytes, payload, fp, size, root)
}
