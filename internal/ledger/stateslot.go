package ledger

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/wire"
)

// Held signed states and learned sealed roots. A requester that has
// verified a signed state names its digest when it asks for an
// existence, batch, clue or query proof; a reply proven at exactly that
// state carries a placeholder where the state would go, and the
// requester puts its own verified copy back (FillState) before the
// unchanged verifiers run. A requester that has learned the roots of the
// first k sealed fam epochs — each from a verified cold existence proof
// whose walk climbed past that epoch through the next one's merged leaf —
// names k on an existence proof, and a journal in one of those epochs is
// answered with the batch of one at its epoch's end: its in-epoch path
// alone and no state, checked against the learned root
// (Verifier.VerifyExistenceLearned, the fam-aoa regime of Fig. 4(a)).
//
// Every reply is still folded to a root the requester verified under an
// LSP signature, so a warm reply proves exactly what the cold reply
// would have proven under the state where that root was learned. Losing
// what it holds costs the requester one cold read, never a wrong verdict.

// StateSlot is what stands where a reply's signed state goes.
type StateSlot uint8

const (
	// StateSent: the signed state itself.
	StateSent StateSlot = iota
	// StateHeld: the state the request named, which the requester puts
	// back.
	StateHeld
	// StateNone: no state at all — an existence proof of a journal in a
	// sealed epoch the request named, taken at that epoch's end.
	StateNone
)

// writeState writes a reply's state slot: the state itself, or an empty
// string where its URI would start — no signed state has an empty URI
// (Config requires one) — followed by the slot byte. A reply carrying
// its state is thus byte for byte what it was before held states.
func writeState(w *wire.Writer, st *SignedState, slot StateSlot) {
	if slot == StateSent {
		st.Encode(w)
		return
	}
	w.WriteBytes(nil)
	w.Uint8(uint8(slot))
}

// readState is writeState's inverse. none says whether the reply shape
// may carry StateNone (only a single existence proof may).
func readState(r *wire.Reader, none bool) (*SignedState, StateSlot, error) {
	if uri := r.String(); uri != "" || r.Err() != nil {
		st, err := decodeSignedState(r, uri)
		return st, StateSent, err
	}
	slot := StateSlot(r.Uint8())
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if slot == StateHeld || (slot == StateNone && none) {
		return nil, slot, nil
	}
	return nil, 0, fmt.Errorf("%w: state slot %d", ErrVerify, slot)
}

// stateSlot is the slot of a reply proven at st for a requester that
// holds h: held when st is the state h names. The digest comes from the
// state cache, which computed it when it signed st.
func (l *Ledger) stateSlot(st *SignedState, h Held) (*SignedState, StateSlot) {
	if h.State.IsZero() || l.stateSigs.digestOf(st) != h.State {
		return st, StateSent
	}
	return nil, StateHeld
}

// fillState puts the state the request named back into a held slot. A
// held slot the request named no state for is refused, and so is a
// StateNone here, which only an existence proof may carry.
func fillState(st **SignedState, slot *StateSlot, named *SignedState) error {
	switch {
	case *slot == StateSent:
		return nil
	case *slot == StateHeld && named != nil:
		*st, *slot = named, StateSent
		return nil
	case *slot == StateHeld:
		return fmt.Errorf("%w: held state slot, but the request named no state", ErrVerify)
	}
	return fmt.Errorf("%w: state slot %d where a signed state is due", ErrVerify, *slot)
}

// FillState puts back the state the request named (named, nil when it
// named none) where the reply left it out, so the proof is the one a
// requester holding nothing would have got at that state. sealed is how
// many sealed epoch roots the request named: a StateNone proof stays as
// it is — VerifyExistenceLearned checks it against those roots — but
// only when it ends one of them.
func (p *ExistenceProof) FillState(named *SignedState, sealed uint64) error {
	if p.Slot != StateNone {
		return fillState(&p.State, &p.Slot, named)
	}
	if e, ok := p.Fam.SealedEpoch(); !ok || e >= sealed {
		return fmt.Errorf("%w: stateless proof outside the %d sealed epochs the request named", ErrVerify, sealed)
	}
	return nil
}

// FillState is ExistenceProof.FillState for a batch, which never goes
// out without a state.
func (b *ExistenceProofBatch) FillState(named *SignedState) error {
	return fillState(&b.State, &b.Slot, named)
}

// FillState is ExistenceProof.FillState for a clue bundle, which never
// goes out without a state.
func (b *ClueProofBundle) FillState(named *SignedState) error {
	return fillState(&b.State, &b.Slot, named)
}

// SealedRoot is what a verified existence proof teaches about sealed
// history: when its walk climbs past the journal's epoch, that epoch was
// sealed at the proof's state and the root the walk computed for it is
// authenticated — the next epoch's merged leaf hashes (epoch, root) into
// the signed journal root. Call it only on a proof that verified with
// its state, with the record verification returned.
func (p *ExistenceProof) SealedRoot(rec *journal.Record) (epoch int, root hashutil.Digest, ok bool) {
	if p.State == nil {
		return 0, hashutil.Zero, false
	}
	e, root, ok := fam.SealedRoot(fam.Leaf{Index: rec.JSN, Digest: rec.TxHash()}, p.Fam)
	return int(e), root, ok
}
