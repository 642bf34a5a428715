package ledger

// Authenticated absence (the tentpole of the verified rich-query
// layer). A plain clue lookup can prove what IS in the ledger, but "no
// such clue" was an unverifiable shrug. The ledger now commits, in
// every SignedState, to the sorted set of live clue names (the absence
// tree, cmtree.BuildAbsenceTree); an AbsenceProof exhibits the two
// ADJACENT committed neighbors bracketing the query, each with a
// Merkle path to the signed ClueSetRoot. Adjacency (indices differ by
// one under the signed ClueCount) plus strict ordering (pred < q <
// succ) leaves no room for a member between them, so the client
// verifies "q is absent" offline with zero trust in any index.
//
// The same proof covers prefix queries: pred < P together with
// succ > P ∧ ¬hasPrefix(succ, P) proves NO member starts with P —
// every string with prefix P sorts at or above P and strictly below
// any greater string that does not share the prefix.

import (
	"errors"
	"fmt"
	"strings"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// ErrPresent is returned by ProveAbsence when the queried clue (or a
// clue matching the queried prefix) is live: the correct reply is an
// existence proof, not an absence proof.
var ErrPresent = errors.New("ledger: clue is present")

// MaxAbsencePath bounds a decoded neighbor path; a binary tree over
// 2^64 leaves needs at most 64 siblings.
const MaxAbsencePath = 64

// AbsenceProof is the offline-verifiable "not in the ledger" reply for
// an exact clue name or a clue prefix. For a query strictly below
// (above) the whole committed set the pred (succ) side is empty and
// the other neighbor's boundary index stands in for adjacency.
type AbsenceProof struct {
	Name   string // queried clue name, or the prefix when Prefix
	Prefix bool

	HasPred   bool
	Pred      string
	PredIndex uint64
	PredPath  []hashutil.Digest

	HasSucc   bool
	Succ      string
	SuccIndex uint64
	SuccPath  []hashutil.Digest

	State *SignedState // signs ClueCount + ClueSetRoot
}

// ProveAbsence builds the absence proof for name (exact match, or any
// live clue starting with name when prefix is set). Returns ErrPresent
// when the query is satisfiable — absence of something present is not
// provable.
func (l *Ledger) ProveAbsence(name string, prefix bool) (*AbsenceProof, error) {
	l.mu.RLock()
	st, err := l.stateLocked()
	if err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	// Under the same read lock as the state: (name-set version, base)
	// cannot move, so the tree is exactly the one st committed to.
	tree := l.clueSet.get(l.clues, l.base)
	l.mu.RUnlock()

	at, present := tree.Locate(name, prefix)
	if present {
		if prefix {
			return nil, fmt.Errorf("%w: a live clue matches prefix %q", ErrPresent, name)
		}
		return nil, fmt.Errorf("%w: %q", ErrPresent, name)
	}
	p := &AbsenceProof{Name: name, Prefix: prefix, State: st}
	if at > 0 {
		i := at - 1
		p.HasPred, p.Pred, p.PredIndex, p.PredPath = true, tree.Name(i), uint64(i), tree.Path(i)
	}
	if uint64(at) < tree.Count() {
		p.HasSucc, p.Succ, p.SuccIndex, p.SuccPath = true, tree.Name(at), uint64(at), tree.Path(at)
	}
	return p, nil
}

// VerifyAbsence checks an absence proof against the LSP public key —
// the only trusted datum. It establishes that no live clue equals
// p.Name (or starts with it when p.Prefix) in the clue set the signed
// state commits to.
func VerifyAbsence(lsp sig.PublicKey, p *AbsenceProof) error {
	return Verifier{LSP: lsp}.VerifyAbsence(p)
}

// VerifyAbsence is the package-level VerifyAbsence under v.
func (v Verifier) VerifyAbsence(p *AbsenceProof) error {
	if p == nil || p.State == nil {
		return fmt.Errorf("%w: nil absence proof", ErrVerify)
	}
	if err := v.VerifySignedState(p.State); err != nil {
		return err
	}
	count, root := p.State.ClueCount, p.State.ClueSetRoot
	if count == 0 {
		// The empty set: absence is vacuous, but the proof must not
		// smuggle neighbors, and the committed root must be the
		// canonical empty-set root.
		if p.HasPred || p.HasSucc {
			return fmt.Errorf("%w: neighbors claimed for an empty clue set", ErrVerify)
		}
		if root != hashutil.Zero {
			return fmt.Errorf("%w: empty clue set with nonzero root", ErrVerify)
		}
		return nil
	}
	// Adjacency: the two neighbors must be consecutive committed
	// leaves, or the single neighbor must sit on the set boundary.
	switch {
	case p.HasPred && p.HasSucc:
		if p.SuccIndex != p.PredIndex+1 {
			return fmt.Errorf("%w: absence neighbors %d and %d are not adjacent", ErrVerify, p.PredIndex, p.SuccIndex)
		}
	case p.HasSucc:
		if p.SuccIndex != 0 {
			return fmt.Errorf("%w: no predecessor but successor index %d != 0", ErrVerify, p.SuccIndex)
		}
	case p.HasPred:
		if p.PredIndex != count-1 {
			return fmt.Errorf("%w: no successor but predecessor index %d != count-1 (%d)", ErrVerify, p.PredIndex, count-1)
		}
	default:
		return fmt.Errorf("%w: no neighbors for a non-empty clue set", ErrVerify)
	}
	// Ordering: the gap between the neighbors must cover the query.
	if p.HasPred && p.Pred >= p.Name {
		return fmt.Errorf("%w: predecessor %q does not sort below query %q", ErrVerify, p.Pred, p.Name)
	}
	if p.HasSucc {
		if p.Succ <= p.Name {
			return fmt.Errorf("%w: successor %q does not sort above query %q", ErrVerify, p.Succ, p.Name)
		}
		if p.Prefix && strings.HasPrefix(p.Succ, p.Name) {
			return fmt.Errorf("%w: successor %q matches queried prefix %q", ErrVerify, p.Succ, p.Name)
		}
	}
	// Membership: both neighbors must authenticate against the signed
	// clue-set root at their claimed indices.
	if p.HasPred {
		if err := cmtree.VerifyAbsencePath(root, count, p.PredIndex, p.Pred, p.PredPath); err != nil {
			return fmt.Errorf("%w: predecessor: %v", ErrVerify, err)
		}
	}
	if p.HasSucc {
		if err := cmtree.VerifyAbsencePath(root, count, p.SuccIndex, p.Succ, p.SuccPath); err != nil {
			return fmt.Errorf("%w: successor: %v", ErrVerify, err)
		}
	}
	return nil
}

// Encode serializes an absence proof.
func (p *AbsenceProof) Encode(w *wire.Writer) {
	w.String(p.Name)
	w.Bool(p.Prefix)
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
	p.State.Encode(w)
}

// EncodeBytes is Encode into a fresh buffer.
func (p *AbsenceProof) EncodeBytes() []byte {
	w := wire.NewWriter(512)
	p.Encode(w)
	return w.Bytes()
}

// DecodeAbsenceProofFrom parses an absence proof from a reader,
// leaving trailing bytes for the caller (QueryResult embeds one).
func DecodeAbsenceProofFrom(r *wire.Reader) (*AbsenceProof, error) {
	p := &AbsenceProof{Name: r.String(), Prefix: r.Bool()}
	if p.HasPred = r.Bool(); p.HasPred {
		p.Pred = r.String()
		p.PredIndex = r.Uvarint()
		p.PredPath = r.DigestSlice(MaxAbsencePath)
	}
	if p.HasSucc = r.Bool(); p.HasSucc {
		p.Succ = r.String()
		p.SuccIndex = r.Uvarint()
		p.SuccPath = r.DigestSlice(MaxAbsencePath)
	}
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	p.State = st
	return p, r.Err()
}

// DecodeAbsenceProof parses a transported absence proof.
func DecodeAbsenceProof(b []byte) (*AbsenceProof, error) {
	r := wire.NewReader(b)
	p, err := DecodeAbsenceProofFrom(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}
