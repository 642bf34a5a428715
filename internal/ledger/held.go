package ledger

import (
	"fmt"
	"slices"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/wire"
)

// Held records. A requester that already holds verified bytes of some
// journals names them (Held) when it asks for an existence proof, reads
// a clue or runs a query, and the prover leaves those records out of
// the reply: a Placeholder — the jsn and the record's occult byte —
// stands where the record's bytes would be, and the prover skips that
// journal-stream read. The requester puts its own bytes back in (Fill) and runs the
// unchanged verifiers, so every record is still folded under the
// reply's own signed state. Nothing verified earlier is trusted beyond
// the bytes themselves, which is why no consistency proof between the
// two signed states is needed: a placeholder saves transfer and a read,
// never a check. The bytes a requester holds are records it verified in
// earlier replies, or records it rebuilt from its own signed request and
// matched to the tx-hash an LSP receipt signed (the ledger client's own
// writes).
//
// A prover may always send a named record in full (a router, an older
// server), and payloads are never held back.

// Held is what a requester names as already verified when it asks for
// a proof: record bytes of some journals, the newest signed state it
// holds, and the sealed fam epoch roots it learned (see stateslot.go).
// The zero value names nothing and gets the cold reply.
type Held struct {
	// JSNs are the journals whose verified record bytes the requester
	// holds, ascending and without repeats.
	JSNs []uint64
	// State is the digest of the signed state it holds; zero for none.
	State hashutil.Digest
	// Sealed counts the sealed fam epoch roots it holds, epochs
	// [0, Sealed). Only an existence proof uses it.
	Sealed uint64
}

// NewHeld sorts and dedups jsns, in place, into a Held set.
func NewHeld(jsns []uint64) Held {
	slices.Sort(jsns)
	return Held{JSNs: slices.Compact(jsns)}
}

// Has reports whether jsn is named.
func (h Held) Has(jsn uint64) bool {
	_, ok := slices.BinarySearch(h.JSNs, jsn)
	return ok
}

// Placeholder stands in a reply for a record the requester named as
// held: the record's jsn and its occult byte — the one record byte the
// tx-hash leaves out, and so the one byte the requester's copy may not
// have. Like the occult byte of a full record, it is unauthenticated.
type Placeholder struct {
	JSN    uint64
	Occult byte
}

// newPlaceholder is the prover's stand-in for a named record, carrying
// the journal's current occult bit.
func newPlaceholder(jsn uint64, occulted bool) *Placeholder {
	p := &Placeholder{JSN: jsn}
	if occulted {
		p.Occult = 1
	}
	return p
}

// slotBytes completes one record slot of a proof whose in-memory half
// was taken under the ledger lock: the record's bytes, or a placeholder
// when held names jsn — its journal-stream read skipped unless a payload
// was asked for, which needs the record's payload digest — and the
// payload when asked for and not occulted.
func (l *Ledger) slotBytes(jsn uint64, withPayload, occulted bool, held Held) (raw []byte, p *Placeholder, payload []byte, err error) {
	withPayload = withPayload && !occulted
	if !held.Has(jsn) {
		raw, payload, err = l.recordBytes(jsn, withPayload)
		return raw, nil, payload, err
	}
	if withPayload {
		_, payload, err = l.recordBytes(jsn, true)
	}
	return nil, newPlaceholder(jsn, occulted), payload, err
}

// writeSlot writes one record slot of a reply: its bytes, or its
// placeholder — an empty byte string (no record encodes to nothing), the
// jsn and the occult byte.
func writeSlot(w *wire.Writer, raw []byte, p *Placeholder) {
	if p == nil {
		w.WriteBytes(raw)
		return
	}
	w.WriteBytes(nil)
	w.Uvarint(p.JSN)
	w.Uint8(p.Occult)
}

// readSlot is writeSlot's inverse.
func readSlot(r *wire.Reader) ([]byte, *Placeholder) {
	raw := r.BytesCopy()
	if len(raw) > 0 || r.Err() != nil {
		return raw, nil
	}
	return nil, &Placeholder{JSN: r.Uvarint(), Occult: r.Uint8()}
}

// filler puts held bytes back into a reply slot by slot. get returns the
// requester's verified bytes of a jsn its request named. ordered says
// the answer's jsns never go backwards: a clue lineage's. A batch
// answers jsns in the order they were asked, and the query verifier
// checks a query result's order itself.
type filler struct {
	get     func(jsn uint64) ([]byte, bool)
	ordered bool
	prev    uint64
	n       int
	filled  int
}

// slot fills *raw when p is set and, for an ordered answer, checks that
// its jsns never go backwards. A placeholder for a jsn the request did
// not name, or one the held bytes do not match, is refused.
func (f *filler) slot(raw *[]byte, p *Placeholder) error {
	if p != nil {
		held, ok := f.get(p.JSN)
		if !ok || len(held) == 0 {
			return fmt.Errorf("%w: placeholder for jsn %d, which the request did not name", ErrVerify, p.JSN)
		}
		filled := slices.Clone(held)
		filled[len(filled)-1] = p.Occult
		*raw = filled
		f.filled++
	}
	if p == nil && !f.ordered {
		return nil
	}
	jsn, err := journal.PeekJSN(*raw)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	if p != nil && jsn != p.JSN {
		return fmt.Errorf("%w: placeholder for jsn %d filled with record %d", ErrVerify, p.JSN, jsn)
	}
	if f.ordered && f.n > 0 && jsn < f.prev {
		return fmt.Errorf("%w: record %d (jsn %d) out of order after jsn %d", ErrVerify, f.n, jsn, f.prev)
	}
	f.prev, f.n = jsn, f.n+1
	return nil
}

// placeholder is the placeholder standing for record i, if any.
func (b *ClueProofBundle) placeholder(i int) *Placeholder {
	if b.Held == nil {
		return nil
	}
	return b.Held[i]
}

// Fill puts the requester's held bytes back in for every placeholder, so
// the bundle is the one a prover that held nothing back would have sent
// and VerifyClue runs on it unchanged. It returns how many records it
// filled; a bundle without placeholders is left as it is.
func (b *ClueProofBundle) Fill(get func(jsn uint64) ([]byte, bool)) (int, error) {
	if b.Held == nil {
		return 0, nil
	}
	if len(b.Held) != len(b.Records) {
		return 0, fmt.Errorf("%w: %d placeholders for %d records", ErrVerify, len(b.Held), len(b.Records))
	}
	f := filler{get: get, ordered: true}
	for i := range b.Records {
		if err := f.slot(&b.Records[i], b.placeholder(i)); err != nil {
			return 0, err
		}
	}
	b.Held = nil
	return f.filled, nil
}

// Fill is ClueProofBundle.Fill for a batch: a query reply's, or a
// batched existence proof's.
func (b *ExistenceProofBatch) Fill(get func(jsn uint64) ([]byte, bool)) (int, error) {
	if !slices.ContainsFunc(b.Items, func(it ExistenceItem) bool { return it.Held != nil }) {
		return 0, nil
	}
	f := filler{get: get}
	for i := range b.Items {
		if err := f.slot(&b.Items[i].RecordBytes, b.Items[i].Held); err != nil {
			return 0, err
		}
		b.Items[i].Held = nil
	}
	return f.filled, nil
}

// Fill is ClueProofBundle.Fill for a single existence proof, whose one
// record slot may be a placeholder.
func (p *ExistenceProof) Fill(get func(jsn uint64) ([]byte, bool)) (int, error) {
	if p.Held == nil {
		return 0, nil
	}
	f := filler{get: get}
	if err := f.slot(&p.RecordBytes, p.Held); err != nil {
		return 0, err
	}
	p.Held = nil
	return 1, nil
}
