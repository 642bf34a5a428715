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
	// Held is set, and RecordBytes empty, where the reply left the record
	// out for a requester that holds it (see Fill).
	Held    *Placeholder
	Payload []byte          // nil for occulted journals or digest-only proofs
	Fam     *fam.BatchProof // the batch of one at the record's jsn
	State   *SignedState    // nil unless Slot is StateSent
	Slot    StateSlot
}

// ProveExistence builds an existence proof for jsn at the newest signed
// state that covers it (provingStateLocked). withPayload controls
// whether the raw payload ships along.
func (l *Ledger) ProveExistence(jsn uint64, withPayload bool) (*ExistenceProof, error) {
	return l.ProveExistenceHeld(jsn, withPayload, Held{})
}

// ProveExistenceHeld is ProveExistence for a requester that holds what
// held names (stateslot.go). A journal in one of the first held.Sealed
// sealed epochs is proven at its epoch's end, its in-epoch path alone,
// with no state and nothing signed; any other is proven as
// ProveExistence proves it, its state held back when held.State names it.
// A journal held.JSNs names goes out as a placeholder (slotBytes).
//
// The ledger lock covers only the in-memory snapshot: bounds, the fam
// nodes (copied out by ProveBatchAt), the occult bit, and the signed
// state. The journal-stream and blob reads happen after the lock is
// dropped — committed records and content-addressed payloads are
// immutable, and both stores carry their own locks.
func (l *Ledger) ProveExistenceHeld(jsn uint64, withPayload bool, held Held) (*ExistenceProof, error) {
	l.mu.RLock()
	if jsn >= l.nextJSN {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, l.nextJSN)
	}
	if jsn < l.base {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d", ErrPurged, jsn)
	}
	p := &ExistenceProof{}
	var err error
	k := min(held.Sealed, uint64(len(l.fam.SealedRoots())))
	if jsn < l.fam.JournalCapacity(int(k)) {
		p.Slot = StateNone
		p.Fam, err = l.fam.ProveBatchAt([]uint64{jsn}, l.fam.EpochEnd(jsn))
	} else if p.State, _, err = l.provingStateLocked(jsn); err == nil {
		p.Fam, err = l.fam.ProveBatchAt([]uint64{jsn}, p.State.JSN)
		p.State, p.Slot = l.stateSlot(p.State, held)
	}
	occ := l.occulted[jsn]
	l.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if p.RecordBytes, p.Held, p.Payload, err = l.slotBytes(jsn, withPayload, occ, held); err != nil {
		return nil, err
	}
	return p, nil
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
	return Verifier{LSP: lsp}.VerifyExistenceLearned(p, nil)
}

// VerifyExistenceLearned is the one existence verifier body. A proof
// with a state folds to the signed journal root at the signed size. A
// proof without one (StateNone) must be taken at the end of a sealed
// epoch whose root the verifier learned from earlier verified proofs —
// roots holds those of epochs 0, 1, … — and folds to that root: the
// fam-aoa short path.
func (v Verifier) VerifyExistenceLearned(p *ExistenceProof, roots []hashutil.Digest) (*journal.Record, error) {
	if p == nil || p.Fam == nil || (p.State == nil) != (p.Slot == StateNone) {
		return nil, fmt.Errorf("%w: incomplete proof", ErrVerify)
	}
	if p.State == nil {
		e, ok := p.Fam.SealedEpoch()
		if !ok || e >= uint64(len(roots)) {
			return nil, fmt.Errorf("%w: proof without a state at size %d, past the learned epochs", ErrVerify, p.Fam.Size)
		}
		return v.verifyExistenceItem(p.RecordBytes, p.Payload, p.Fam, p.Fam.Size, roots[e])
	}
	if err := v.VerifySignedState(p.State); err != nil {
		return nil, err
	}
	return v.verifyExistenceItem(p.RecordBytes, p.Payload, p.Fam, p.State.JSN, p.State.JournalRoot)
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
	// Held is nil unless the prover left records out for a requester
	// that holds them: then it has one entry per record, the Placeholder
	// where Records holds nothing (see Fill).
	Held  []*Placeholder
	CM    *cmtree.ClueProof
	State *SignedState // nil unless Slot is StateSent
	Slot  StateSlot
}

// ProveClue builds the bundle for versions [begin, end) of a clue
// (steps 1–5 of the client-side algorithm, executed at the server), at
// the newest signed state that already holds version end-1. Pass end = 0
// for "the entire clue so far". Bounds with begin ≥ end are a bad
// request; an end past the clue's versions is not found.
func (l *Ledger) ProveClue(clue string, begin, end uint64) (*ClueProofBundle, error) {
	return l.ProveClueHeld(clue, begin, end, Held{})
}

// ProveClueHeld is ProveClue for a requester that holds the journals
// held names: their records go out as placeholders, unread, and so does
// the state when it is the one held.State names.
// The read lock covers the range's jsns, their occult bits, the CM-Tree
// snapshot as of the signed state, and that state; the proof walk over
// the snapshot and the journal-stream reads run after the lock is
// dropped.
func (l *Ledger) ProveClueHeld(clue string, begin, end uint64, held Held) (*ClueProofBundle, error) {
	if end != 0 && begin >= end {
		return nil, fmt.Errorf("%w: clue versions [%d,%d)", journal.ErrBadRequest, begin, end)
	}
	l.mu.RLock()
	jsns, err := l.clues.JSNRange(clue, begin, end)
	switch {
	case errors.Is(err, cmtree.ErrUnknownClue):
		err = fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	case errors.Is(err, cmtree.ErrBadRange):
		// The bounds themselves are well formed: the range reaches past
		// the versions the clue has, like a proof past the frontier.
		err = fmt.Errorf("%w: clue %q: %w", ErrNotFound, clue, err)
	}
	if err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	var slots []*Placeholder
	for i, jsn := range jsns {
		if held.Has(jsn) {
			if slots == nil {
				slots = make([]*Placeholder, len(jsns))
			}
			slots[i] = newPlaceholder(jsn, l.occulted[jsn])
		}
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
	b := &ClueProofBundle{Clue: clue, CM: cp, Records: make([][]byte, len(jsns)), Held: slots}
	b.State, b.Slot = l.stateSlot(st, held)
	for i, jsn := range jsns {
		if b.placeholder(i) != nil {
			continue
		}
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
	// Cheap checks first: every record decodes and the lineage folds to
	// the claimed clue root before any signature is checked, so a
	// forged lineage costs no ECDSA.
	recs := make([]*journal.Record, len(b.Records))
	digests := make([]hashutil.Digest, len(b.Records))
	for i, raw := range b.Records {
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrVerify, i, err)
		}
		recs[i], digests[i] = rec, rec.TxHash()
	}
	if err := cmtree.VerifyClue(b.State.ClueRoot, b.CM, digests); err != nil {
		return nil, fmt.Errorf("%w: lineage: %v", ErrVerify, err)
	}
	if err := v.VerifySignedState(b.State); err != nil {
		return nil, err
	}
	if _, err := journal.VerifyRecordsSigs(recs, v.Memo); err != nil {
		return nil, fmt.Errorf("%w: who: %v", ErrVerify, err)
	}
	return recs, nil
}

// EncodeBytes serializes an existence proof for transport.
func (p *ExistenceProof) EncodeBytes() []byte {
	w := wire.NewWriter(1024)
	writeSlot(w, p.RecordBytes, p.Held)
	w.WriteBytes(p.Payload)
	p.Fam.Encode(w)
	writeState(w, p.State, p.Slot)
	return w.Bytes()
}

// DecodeExistenceProof parses a transported existence proof.
func DecodeExistenceProof(b []byte) (*ExistenceProof, error) {
	r := wire.NewReader(b)
	p := &ExistenceProof{}
	p.RecordBytes, p.Held = readSlot(r)
	if payload := r.BytesCopy(); len(payload) > 0 {
		p.Payload = payload
	}
	fp, err := fam.DecodeBatchProof(r)
	if err != nil {
		return nil, err
	}
	p.Fam = fp
	if p.State, p.Slot, err = readState(r, true); err != nil {
		return nil, err
	}
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
	for i, rec := range b.Records {
		writeSlot(w, rec, b.placeholder(i))
	}
	b.CM.Encode(w)
	writeState(w, b.State, b.Slot)
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
	// A record slot is at least its one-byte length prefix.
	if n > 1<<20 || n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: %d records", ErrVerify, n)
	}
	b.Records = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		raw, p := readSlot(r)
		if p != nil {
			if b.Held == nil {
				b.Held = make([]*Placeholder, n)
			}
			b.Held[i] = p
		}
		b.Records = append(b.Records, raw)
	}
	cp, err := cmtree.DecodeClueProof(r)
	if err != nil {
		return nil, err
	}
	b.CM = cp
	if b.State, b.Slot, err = readState(r, false); err != nil {
		return nil, err
	}
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
	p.MPT.Encode(w)
	p.State.Encode(w)
	return w.Bytes()
}

// DecodeStateProof parses a transported state proof.
func DecodeStateProof(raw []byte) (*StateProof, error) {
	r := wire.NewReader(raw)
	p := &StateProof{Key: r.BytesCopy(), Value: r.BytesCopy()}
	var err error
	if p.MPT, err = mpt.DecodeProof(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrVerify, err)
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
