package ledger

import (
	"errors"
	"fmt"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/mpt"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// This file implements the server-side proof generation and the pure
// client-side verification functions — verification "conducted in two
// different manners" per §II-C: at server side when the LSP is trusted,
// at client side when it is not.

// Verifier is a client's trust root for every proof shape in this
// package: the pinned LSP key, plus an optional memo of signatures this
// verifier has already checked. Each proof shape has exactly one
// verifier body, a method here; the package-level Verify* functions are
// the same bodies with a nil memo, so they stay pure functions of
// (proof, key) that pay every ECDSA check every time. A Verifier with a
// memo accepts exactly the proofs a Verifier without one accepts — the
// memo only skips re-verifying a (key, digest, signature) triple that
// already verified (see sig.Memo).
type Verifier struct {
	LSP  sig.PublicKey
	Memo *sig.Memo // nil verifies every signature from scratch
}

// ExistenceProof bundles everything a distrusting client needs to verify
// that a journal exists verbatim on the ledger (the what factor):
// the raw record, its fam accumulator proof, and the LSP-signed state the
// proof anchors to. Payload is included when the caller asked for it and
// the journal is not occulted.
type ExistenceProof struct {
	RecordBytes []byte
	Payload     []byte // nil for occulted journals or digest-only proofs
	Fam         *fam.Proof
	State       *SignedState
}

// ProveExistence builds an existence proof for jsn at the newest signed
// state that covers it (provingStateLocked). withPayload controls
// whether the raw payload ships along.
//
// The ledger lock covers only the in-memory snapshot: bounds, the fam
// path (copied out by ProveAt), the occult bit, and the signed state.
// The journal-stream and blob reads happen after the lock is dropped —
// committed records and content-addressed payloads are immutable, and
// both stores carry their own locks.
func (l *Ledger) ProveExistence(jsn uint64, withPayload bool) (*ExistenceProof, error) {
	return l.proveExistence(jsn, nil, withPayload)
}

// ProveExistenceAnchored is ProveExistence using a verifier-held fam-aoa
// trusted anchor, producing the short proof of Figure 4(a). The anchored
// fam path ends at the live root, so it is paired with the frontier
// state, both taken under one read-lock section: the hop chain ends at
// exactly the signed JournalRoot even while concurrent appends land.
func (l *Ledger) ProveExistenceAnchored(jsn uint64, a *fam.Anchor, withPayload bool) (*ExistenceProof, error) {
	return l.proveExistence(jsn, a, withPayload)
}

func (l *Ledger) proveExistence(jsn uint64, a *fam.Anchor, withPayload bool) (*ExistenceProof, error) {
	l.mu.RLock()
	if jsn >= l.nextJSN {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, l.nextJSN)
	}
	if jsn < l.base {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d", ErrPurged, jsn)
	}
	var fp *fam.Proof
	var st *SignedState
	var err error
	if a != nil {
		if fp, err = l.fam.ProveAnchored(jsn, a); err == nil {
			st, err = l.stateLocked()
		}
	} else if st, _, err = l.provingStateLocked(jsn); err == nil {
		fp, err = l.fam.ProveAt(jsn, st.JSN)
	}
	occ := l.occulted[jsn]
	l.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	raw, payload, err := l.recordBytes(jsn, withPayload && !occ)
	if err != nil {
		return nil, err
	}
	return &ExistenceProof{RecordBytes: raw, Payload: payload, Fam: fp, State: st}, nil
}

// recordBytes completes a proof whose in-memory half was taken under
// the ledger lock: the immutable journal-stream and (when asked for)
// blob reads, run after the lock is dropped.
func (l *Ledger) recordBytes(jsn uint64, withPayload bool) (raw, payload []byte, err error) {
	if raw, err = l.readJournalBytes(jsn); err == nil && withPayload {
		payload, err = l.proofPayload(raw)
	}
	return raw, payload, err
}

// proofPayload fetches the payload a proof ships beside the record bytes
// raw. It returns nil when there is none to ship — the blob was erased,
// or this engine is a follower that holds no payloads — and the proof
// goes out digest-only. Any other failure (a checksum mismatch or I/O
// error in the payload log) is an error: a proof must not silently lose
// its payload because the store could not be read.
func (l *Ledger) proofPayload(raw []byte) ([]byte, error) {
	rec, err := journal.DecodeRecord(raw)
	if err != nil {
		return nil, err
	}
	payload, err := l.cfg.Blobs.Get(rec.PayloadDigest)
	if errors.Is(err, streamfs.ErrBlobNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: payload of jsn %d: %w", rec.JSN, err)
	}
	return payload, nil
}

// VerifyExistence is the client-side what (+who) verification: check the
// LSP's signature on the state, fold the record's tx-hash through the fam
// proof to the signed journal root, re-verify the record's client
// signatures, and — when a payload is present — match it against the
// recorded digest (the "foobar" vs "foopar" check of §III-A).
//
// Occult Protocol 2 falls out naturally: an occulted journal ships no
// payload, and its retained PayloadDigest is what the tx-hash covers.
func VerifyExistence(p *ExistenceProof, lsp sig.PublicKey) (*journal.Record, error) {
	return Verifier{LSP: lsp}.VerifyExistenceAnchored(p, nil)
}

// VerifyExistenceAnchored is VerifyExistence under a fam-aoa anchor.
func VerifyExistenceAnchored(p *ExistenceProof, lsp sig.PublicKey, a *fam.Anchor) (*journal.Record, error) {
	return Verifier{LSP: lsp}.VerifyExistenceAnchored(p, a)
}

// VerifyExistenceAnchored is the one existence verifier body: a nil
// anchor folds the full fam path, a non-nil one the fam-aoa short path.
func (v Verifier) VerifyExistenceAnchored(p *ExistenceProof, a *fam.Anchor) (*journal.Record, error) {
	if p == nil || p.State == nil || p.Fam == nil {
		return nil, fmt.Errorf("%w: incomplete proof", ErrVerify)
	}
	if err := v.VerifySignedState(p.State); err != nil {
		return nil, err
	}
	return v.verifyExistenceItem(p.RecordBytes, p.Payload, p.Fam, a, p.State.JournalRoot)
}

// VerifyExistenceServer is the trusted-LSP fast path: the server checks
// the journal against its own accumulator without signing a state or
// shipping bytes.
func (l *Ledger) VerifyExistenceServer(jsn uint64) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, err := l.getJournalLocked(jsn)
	if err != nil {
		return err
	}
	root, err := l.fam.Root()
	if err != nil {
		return err
	}
	fp, err := l.fam.Prove(jsn)
	if err != nil {
		return err
	}
	if err := fam.Verify(rec.TxHash(), fp, root); err != nil {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	return nil
}

// ClueProofBundle is the client-side lineage proof for the Verify(lgid,
// CLUE, …) API of §IV-C: the retrieved records for the requested version
// range, the CM-Tree proof set, and the signed state anchoring CM-Tree1.
type ClueProofBundle struct {
	Clue    string
	Records [][]byte // encoded journal records for [Begin, End)
	CM      *cmtree.ClueProof
	State   *SignedState
}

// ProveClue builds the bundle for versions [begin, end) of a clue
// (steps 1–5 of the client-side algorithm, executed at the server), at
// the newest signed state that already holds version end-1. Pass end = 0
// for "the entire clue so far".
// The read lock covers the range's jsns, the CM-Tree snapshot as of the
// signed state, and that state; the proof walk over the snapshot and the
// journal-stream reads run after the lock is dropped.
func (l *Ledger) ProveClue(clue string, begin, end uint64) (*ClueProofBundle, error) {
	l.mu.RLock()
	jsns, err := l.clues.JSNRange(clue, begin, end)
	if errors.Is(err, cmtree.ErrUnknownClue) {
		err = fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	if err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	st, trie, err := l.provingStateLocked(jsns[len(jsns)-1])
	if err == nil && trie == nil {
		err = fmt.Errorf("%w: clue proofs need the checkpoint at the applied frontier %d", ErrStaleCheckpoint, l.nextJSN)
	}
	if err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	snap := l.clues.SnapshotClueAt(clue, trie, st.JSN)
	l.mu.RUnlock()
	cp, err := snap.ProveClue(clue, begin, begin+uint64(len(jsns)))
	if err != nil {
		return nil, err
	}
	b := &ClueProofBundle{Clue: clue, CM: cp, State: st, Records: make([][]byte, len(jsns))}
	for i, jsn := range jsns {
		if b.Records[i], err = l.readJournalBytes(jsn); err != nil {
			return nil, fmt.Errorf("ledger: clue %q journal %d: %w", clue, jsn, err)
		}
	}
	return b, nil
}

// ProveClueByTime is the timestamp-boundary form of §IV-C's typical
// scene 2 ("verify within a range specified by version (or timestamp)
// boundaries"): it maps the half-open commit-time window [t1, t2) to the
// clue's version range and proves that. Clue versions are appended in
// commit order, so timestamps are monotone within a clue.
func (l *Ledger) ProveClueByTime(clue string, t1, t2 int64) (*ClueProofBundle, error) {
	l.mu.RLock()
	jsns, err := l.clues.JSNs(clue)
	l.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	begin, end := uint64(0), uint64(0)
	found := false
	for v, jsn := range jsns {
		rec, err := l.GetJournal(jsn)
		if err != nil {
			return nil, err
		}
		if rec.Timestamp < t1 {
			begin = uint64(v + 1)
			continue
		}
		if rec.Timestamp >= t2 {
			break
		}
		end = uint64(v + 1)
		found = true
	}
	if !found {
		return nil, fmt.Errorf("%w: clue %q has no versions in [%d, %d)", ErrNotFound, clue, t1, t2)
	}
	return l.ProveClue(clue, begin, end)
}

// VerifyClue is the client-side step 6: re-derive each record's tx-hash,
// validate the lineage against the clue's CM-Tree2 frontier and CM-Tree1
// root (both layers must prove, §IV-C), check the LSP state signature,
// and re-verify every record's client signatures. Returns the decoded
// records on success.
func VerifyClue(b *ClueProofBundle, lsp sig.PublicKey) ([]*journal.Record, error) {
	return Verifier{LSP: lsp}.VerifyClue(b)
}

// VerifyClue is the package-level VerifyClue under v.
func (v Verifier) VerifyClue(b *ClueProofBundle) ([]*journal.Record, error) {
	if b == nil || b.CM == nil || b.State == nil {
		return nil, fmt.Errorf("%w: incomplete clue bundle", ErrVerify)
	}
	// The CM proof's clue is what the MPT path below authenticates; the
	// bundle's label must agree, or a server could relabel a lineage.
	if b.Clue != b.CM.Clue {
		return nil, fmt.Errorf("%w: bundle labeled %q but proves clue %q", ErrVerify, b.Clue, b.CM.Clue)
	}
	if err := v.VerifySignedState(b.State); err != nil {
		return nil, err
	}
	recs := make([]*journal.Record, 0, len(b.Records))
	digests := make([]hashutil.Digest, 0, len(b.Records))
	for i, raw := range b.Records {
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrVerify, i, err)
		}
		if err := journal.VerifyRecordSigsMemo(rec, v.Memo); err != nil {
			return nil, fmt.Errorf("%w: who: %v", ErrVerify, err)
		}
		recs = append(recs, rec)
		digests = append(digests, rec.TxHash())
	}
	if err := cmtree.VerifyClue(b.State.ClueRoot, b.CM, digests); err != nil {
		return nil, fmt.Errorf("%w: lineage: %v", ErrVerify, err)
	}
	return recs, nil
}

// EncodeBytes serializes an existence proof for transport.
func (p *ExistenceProof) EncodeBytes() []byte {
	w := wire.NewWriter(1024)
	w.WriteBytes(p.RecordBytes)
	w.WriteBytes(p.Payload)
	p.Fam.Encode(w)
	p.State.Encode(w)
	return w.Bytes()
}

// DecodeExistenceProof parses a transported existence proof.
func DecodeExistenceProof(b []byte) (*ExistenceProof, error) {
	r := wire.NewReader(b)
	p := &ExistenceProof{RecordBytes: r.BytesCopy()}
	if payload := r.BytesCopy(); len(payload) > 0 {
		p.Payload = payload
	}
	fp, err := fam.DecodeProof(r)
	if err != nil {
		return nil, err
	}
	p.Fam = fp
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	p.State = st
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodeBytes serializes a clue proof bundle for transport.
func (b *ClueProofBundle) EncodeBytes() []byte {
	w := wire.NewWriter(4096)
	w.String(b.Clue)
	w.Uvarint(uint64(len(b.Records)))
	for _, rec := range b.Records {
		w.WriteBytes(rec)
	}
	b.CM.Encode(w)
	b.State.Encode(w)
	return w.Bytes()
}

// DecodeClueProofBundle parses a transported clue bundle.
func DecodeClueProofBundle(raw []byte) (*ClueProofBundle, error) {
	r := wire.NewReader(raw)
	b := &ClueProofBundle{Clue: r.String()}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d records", ErrVerify, n)
	}
	for i := uint64(0); i < n; i++ {
		b.Records = append(b.Records, r.BytesCopy())
	}
	cp, err := cmtree.DecodeClueProof(r)
	if err != nil {
		return nil, err
	}
	b.CM = cp
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

// StateProof is a verifiable world-state read: the current value
// binding for a key (the jsn and payload digest of the latest journal
// that set it), proven into the state MPT whose root the LSP signed.
type StateProof struct {
	Key   []byte
	Value []byte // encodeStateValue(jsn, payloadDigest)
	MPT   *mpt.Proof
	State *SignedState
}

// ProveState builds a verifiable read of the world-state entry for key.
// The read lock covers only the trie snapshot (the MPT is persistent,
// so the pointer stays valid forever) and the signed state; the lookup
// and path collection run lock-free on the snapshot.
func (l *Ledger) ProveState(key []byte) (*StateProof, error) {
	l.mu.RLock()
	trie := l.state
	st, stErr := l.stateLocked()
	l.mu.RUnlock()
	if stErr != nil {
		return nil, stErr
	}
	value, err := trie.Get(key)
	if err != nil {
		return nil, fmt.Errorf("%w: state key %q", ErrNotFound, key)
	}
	proof, err := trie.Prove(key)
	if err != nil {
		return nil, err
	}
	return &StateProof{Key: key, Value: value, MPT: proof, State: st}, nil
}

// VerifyState is the client-side check of a world-state read: the LSP
// signature over the state, then the MPT path from the key's leaf to the
// signed StateRoot. Returns the jsn and payload digest of the journal
// holding the current value.
func VerifyState(p *StateProof, lsp sig.PublicKey) (uint64, hashutil.Digest, error) {
	return Verifier{LSP: lsp}.VerifyState(p)
}

// VerifyState is the package-level VerifyState under v.
func (v Verifier) VerifyState(p *StateProof) (uint64, hashutil.Digest, error) {
	if p == nil || p.MPT == nil || p.State == nil {
		return 0, hashutil.Zero, fmt.Errorf("%w: incomplete state proof", ErrVerify)
	}
	if err := v.VerifySignedState(p.State); err != nil {
		return 0, hashutil.Zero, err
	}
	if err := mpt.VerifyProof(p.State.StateRoot, p.Key, p.Value, p.MPT); err != nil {
		return 0, hashutil.Zero, fmt.Errorf("%w: state: %v", ErrVerify, err)
	}
	return decodeStateValue(p.Value)
}

// EncodeBytes serializes a state proof for transport.
func (p *StateProof) EncodeBytes() []byte {
	w := wire.NewWriter(512)
	w.WriteBytes(p.Key)
	w.WriteBytes(p.Value)
	w.Uvarint(uint64(len(p.MPT.Nodes)))
	for _, n := range p.MPT.Nodes {
		w.WriteBytes(n)
	}
	p.State.Encode(w)
	return w.Bytes()
}

// DecodeStateProof parses a transported state proof.
func DecodeStateProof(raw []byte) (*StateProof, error) {
	r := wire.NewReader(raw)
	p := &StateProof{Key: r.BytesCopy(), Value: r.BytesCopy(), MPT: &mpt.Proof{}}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 4096 {
		return nil, fmt.Errorf("%w: %d MPT nodes", ErrVerify, n)
	}
	for i := uint64(0); i < n; i++ {
		p.MPT.Nodes = append(p.MPT.Nodes, r.BytesCopy())
	}
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	p.State = st
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// VerifyClueServer is the trusted-LSP lineage fast path (§IV-C server
// side: steps 1–3 plus a local validation).
func (l *Ledger) VerifyClueServer(clue string) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	jsns, err := l.clues.JSNs(clue)
	if err != nil {
		return fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	digests := make([]hashutil.Digest, 0, len(jsns))
	for _, jsn := range jsns {
		//lint:ignore L1 the clue index and digest prefix must be read under one lock epoch or a concurrent same-clue append fails the frontier check
		raw, err := l.digests.Read(jsn)
		if err != nil {
			return err
		}
		var d hashutil.Digest
		copy(d[:], raw)
		digests = append(digests, d)
	}
	if err := l.clues.VerifyServer(clue, digests); err != nil {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	return nil
}
