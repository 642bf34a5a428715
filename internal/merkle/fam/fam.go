// Package fam implements the fractal accumulating model of §III-A1: a
// Merkle accumulator organized as a chain of fixed-height Shrubs epochs.
//
// Rule 1 of the paper: when the current tree of a given size is full, its
// root node becomes the first leaf node of a new tree. An epoch of fractal
// height δ holds 2^δ leaves; every epoch after the first begins with a
// *merged leaf* carrying the previous epoch's root, so the newest epoch's
// commitment transitively covers the entire ledger, the way block links
// cover a blockchain — but fractally, not linearly.
//
// Verification has two regimes, mirroring Figure 4:
//
//   - Cold (no anchor): a proof is the journal's path inside its own epoch
//     plus one merged-leaf hop per later epoch, so cost grows with the
//     number of epochs between the journal and the live root.
//   - Anchored (fam-aoa): the verifier has already audited the ledger up
//     to an Anchor and trusts every sealed epoch root it covers. A sealed
//     journal then needs only its O(δ) in-epoch path against the trusted
//     epoch root, and a current-epoch journal needs its in-epoch path plus
//     a single merged-leaf hop — near-constant cost regardless of ledger
//     size, which is the stable GetProof throughput of Figure 8(b).
package fam

import (
	"errors"
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/merkle/shrubs"
	"ledgerdb/internal/wire"
)

// Errors returned by this package.
var (
	ErrBadHeight  = errors.New("fam: fractal height must be in [1, 30]")
	ErrOutOfRange = errors.New("fam: journal index out of range")
	ErrBadProof   = errors.New("fam: proof verification failed")
	ErrBadAnchor  = errors.New("fam: anchor does not match tree state")
)

// Tree is a fam accumulator with fixed fractal height. Not safe for
// concurrent mutation; the ledger engine serializes appends and snapshots
// roots at block boundaries for readers.
type Tree struct {
	height   uint8  // δ
	epochCap uint64 // 2^δ leaves per epoch

	sealed  []*shrubs.Tree // completed epochs (retained to serve proofs)
	roots   []hashutil.Digest
	current *shrubs.Tree // the open epoch
	size    uint64       // journal leaves appended (merged leaves excluded)
}

// New creates a fam tree with fractal height δ; each epoch holds 2^δ
// leaves (the first of which, from epoch 1 on, is the merged leaf).
func New(height uint8) (*Tree, error) {
	if height < 1 || height > 30 {
		return nil, fmt.Errorf("%w: %d", ErrBadHeight, height)
	}
	return &Tree{height: height, epochCap: 1 << height, current: shrubs.New()}, nil
}

// MustNew is New for static configuration; it panics on a bad height.
func MustNew(height uint8) *Tree {
	t, err := New(height)
	if err != nil {
		panic(err)
	}
	return t
}

// Height returns the fractal height δ.
func (t *Tree) Height() uint8 { return t.height }

// Size returns the number of journal leaves appended (excluding merged
// leaves).
func (t *Tree) Size() uint64 { return t.size }

// Epochs returns the number of epochs (sealed plus the open one).
func (t *Tree) Epochs() int { return len(t.sealed) + 1 }

// SealedRoots returns the roots of all sealed epochs, oldest first. The
// returned slice is shared; callers must not modify it.
func (t *Tree) SealedRoots() []hashutil.Digest { return t.roots }

// Append adds a journal digest and returns its journal index.
func (t *Tree) Append(leaf hashutil.Digest) uint64 {
	if t.current.Size() == t.epochCap {
		t.seal()
	}
	t.current.Append(leaf)
	idx := t.size
	t.size++
	return idx
}

// seal closes the full current epoch and opens the next one, whose first
// leaf is the merged leaf binding the sealed epoch's index and root.
func (t *Tree) seal() {
	root, err := t.current.Root()
	if err != nil {
		panic("fam: sealing empty epoch")
	}
	idx := uint64(len(t.sealed))
	t.sealed = append(t.sealed, t.current)
	t.roots = append(t.roots, root)
	t.current = shrubs.New()
	t.current.Append(hashutil.Epoch(idx, root))
}

// Root returns the current commitment: the (bagged) root of the open
// epoch, which transitively covers all sealed epochs through the merged
// leaves.
func (t *Tree) Root() (hashutil.Digest, error) {
	if t.size == 0 {
		return hashutil.Zero, shrubs.ErrEmpty
	}
	return t.current.Root()
}

// locate maps a journal index to (epoch, leaf offset inside that epoch's
// Shrubs tree). Epoch 0 has no merged leaf, so it holds epochCap journals;
// later epochs hold epochCap-1 journals each, shifted one slot right.
func (t *Tree) locate(index uint64) (epoch int, leaf uint64, err error) {
	if index >= t.size {
		return 0, 0, fmt.Errorf("%w: %d >= %d", ErrOutOfRange, index, t.size)
	}
	e, leaf := locateIn(t.epochCap, index)
	return int(e), leaf, nil
}

// locateIn is locate for any tree of the given epoch capacity: the pure
// arithmetic a verifier shares with the prover.
func locateIn(epochCap, index uint64) (epoch, leaf uint64) {
	if index < epochCap {
		return 0, index
	}
	rest := index - epochCap
	per := epochCap - 1
	return 1 + rest/per, 1 + rest%per
}

// Leaf returns the journal digest appended at index — the leaf a proof
// of index folds.
func (t *Tree) Leaf(index uint64) (hashutil.Digest, error) {
	e, leaf, err := t.locate(index)
	if err != nil {
		return hashutil.Zero, err
	}
	tree := t.epochTree(e)
	if tree == nil {
		return hashutil.Zero, fmt.Errorf("%w: epoch %d", ErrPruned, e)
	}
	return tree.Leaf(leaf)
}

// JournalCapacity returns how many journal leaves fit in the first n
// epochs; benchmarks use it to size workloads to exact epoch boundaries.
func (t *Tree) JournalCapacity(epochs int) uint64 {
	if epochs <= 0 {
		return 0
	}
	return t.epochCap + uint64(epochs-1)*(t.epochCap-1)
}

// epochTree returns the Shrubs tree for an epoch (sealed or current).
func (t *Tree) epochTree(e int) *shrubs.Tree {
	if e < len(t.sealed) {
		return t.sealed[e]
	}
	return t.current
}

// PruneEpochs implements the purge-aligned erasure option of §III-A2:
// once a trusted anchor covers the first `before` epochs, their cell
// storage can be dropped — only the epoch roots are retained (they are
// what anchored verification needs). Journals in pruned epochs can no
// longer be proven (they are purged data); later journals are unaffected
// because every hop proof lives in a retained epoch. Returns the number
// of epochs pruned.
func (t *Tree) PruneEpochs(before int) int {
	if before > len(t.sealed) {
		before = len(t.sealed)
	}
	n := 0
	for i := 0; i < before; i++ {
		if t.sealed[i] != nil {
			t.sealed[i] = nil
			n++
		}
	}
	return n
}

// PruneBelow releases the cell storage of every sealed epoch whose
// journals all precede index — the purge-aligned form of PruneEpochs
// ("after aligning trusted anchor to the purging point", §III-A2). An
// epoch containing both purged and live journals is retained. Returns
// the number of epochs pruned.
func (t *Tree) PruneBelow(index uint64) int {
	if index == 0 {
		return 0
	}
	// The epoch containing index (or the open epoch if index is beyond
	// the sealed range) must survive; everything before it may go.
	e, _, err := t.locate(index)
	if err != nil {
		e = len(t.sealed) // index at/after the live edge: prune all sealed
	}
	return t.PruneEpochs(e)
}

// ErrPruned is returned when proving a journal whose epoch storage was
// released by PruneEpochs.
var ErrPruned = errors.New("fam: epoch pruned; journal no longer provable")

// CellCount reports the number of digests currently retained across all
// epochs — the storage-overhead metric of Table I.
func (t *Tree) CellCount() uint64 {
	var n uint64
	for _, s := range t.sealed {
		if s != nil {
			n += s.CellCount()
		}
	}
	n += t.current.CellCount()
	n += uint64(len(t.roots)) // sealed roots always survive
	return n
}

// Hop is one step of the merged-leaf chain: the proof that the previous
// epoch's root, wrapped as a merged leaf, is covered by epoch Epoch's
// commitment.
type Hop struct {
	Epoch int // the epoch this hop verifies into
	// MergedLeaf proves leaf 0 (the merged leaf) of Epoch against
	// Commitment.
	MergedLeaf *shrubs.Proof
	// Commitment is the bagged frontier of Epoch at proof time: the
	// sealed root for past epochs, the live root for the open epoch.
	Commitment hashutil.Digest
}

// Proof shows that a journal digest is accumulated in a fam tree.
type Proof struct {
	Index uint64 // journal index
	Epoch int    // epoch containing the journal
	// InEpoch proves the journal leaf against EpochCommitment.
	InEpoch *shrubs.Proof
	// EpochCommitment is the commitment of the journal's epoch at proof
	// time (sealed root, or live root for the open epoch).
	EpochCommitment hashutil.Digest
	// Hops chains EpochCommitment to the verification target through the
	// merged leaves of later epochs. Empty for anchored proofs of sealed
	// journals and for journals in the target epoch itself.
	Hops []Hop
}

// PathLen reports the number of digests a verifier touches; the Figure 8
// benchmarks use it as the verification-cost metric.
func (p *Proof) PathLen() int {
	n := len(p.InEpoch.Siblings) + len(p.InEpoch.Frontier)
	for _, h := range p.Hops {
		n += len(h.MergedLeaf.Siblings) + len(h.MergedLeaf.Frontier)
	}
	return n
}

// Prove produces a cold proof for a journal index against the current
// root: in-epoch path plus the full merged-leaf chain.
func (t *Tree) Prove(index uint64) (*Proof, error) {
	e, leaf, err := t.locate(index)
	if err != nil {
		return nil, err
	}
	p, err := t.inEpochProof(index, e, leaf)
	if err != nil {
		return nil, err
	}
	for k := e + 1; k <= len(t.sealed); k++ {
		hop, err := t.hop(k)
		if err != nil {
			return nil, err
		}
		p.Hops = append(p.Hops, hop)
	}
	return p, nil
}

func (t *Tree) inEpochProof(index uint64, e int, leaf uint64) (*Proof, error) {
	tree := t.epochTree(e)
	if tree == nil {
		return nil, fmt.Errorf("%w: epoch %d", ErrPruned, e)
	}
	ip, err := tree.Prove(leaf)
	if err != nil {
		return nil, fmt.Errorf("fam: epoch %d: %w", e, err)
	}
	com, err := tree.Root()
	if err != nil {
		return nil, err
	}
	return &Proof{Index: index, Epoch: e, InEpoch: ip, EpochCommitment: com}, nil
}

func (t *Tree) hop(k int) (Hop, error) {
	tree := t.epochTree(k)
	if tree == nil {
		return Hop{}, fmt.Errorf("%w: epoch %d", ErrPruned, k)
	}
	mp, err := tree.Prove(0)
	if err != nil {
		return Hop{}, fmt.Errorf("fam: hop into epoch %d: %w", k, err)
	}
	com, err := tree.Root()
	if err != nil {
		return Hop{}, err
	}
	return Hop{Epoch: k, MergedLeaf: mp, Commitment: com}, nil
}

// RootAt returns the commitment the tree exposed when it held exactly
// size journal leaves, 1 ≤ size ≤ Size(). Shrubs epochs retain every
// computed cell, so any historical root is recomputable from the epoch
// that held journal size-1 at the time.
func (t *Tree) RootAt(size uint64) (hashutil.Digest, error) {
	if size == 0 || size > t.size {
		return hashutil.Zero, fmt.Errorf("%w: root at size %d of %d", ErrOutOfRange, size, t.size)
	}
	e, leaf, err := t.locate(size - 1)
	if err != nil {
		return hashutil.Zero, err
	}
	tree := t.epochTree(e)
	if tree == nil {
		return hashutil.Zero, fmt.Errorf("%w: epoch %d", ErrPruned, e)
	}
	return tree.RootAt(leaf + 1)
}

// ProveAt produces a cold proof for a journal index against the root the
// tree exposed at journal count size (as returned by RootAt). A verifier
// holding a commitment to some past ledger state — a folded shard head,
// an old signed LedgerInfo — checks it with the ordinary Verify. Full
// epochs between the journal and size contribute whole-epoch hops; the
// epoch holding journal size-1 contributes a partial-frontier hop (or a
// partial in-epoch path when the journal lives there itself).
func (t *Tree) ProveAt(index, size uint64) (*Proof, error) {
	if size == 0 || size > t.size {
		return nil, fmt.Errorf("%w: proof at size %d of %d", ErrOutOfRange, size, t.size)
	}
	if index >= size {
		return nil, fmt.Errorf("%w: journal %d at size %d", ErrOutOfRange, index, size)
	}
	es, leafLast, err := t.locate(size - 1)
	if err != nil {
		return nil, err
	}
	e, leaf, err := t.locate(index)
	if err != nil {
		return nil, err
	}
	if e == es {
		// Journal and target share an epoch: one partial in-epoch path.
		tree := t.epochTree(e)
		if tree == nil {
			return nil, fmt.Errorf("%w: epoch %d", ErrPruned, e)
		}
		ip, err := tree.ProveAt(leaf, leafLast+1)
		if err != nil {
			return nil, fmt.Errorf("fam: epoch %d: %w", e, err)
		}
		com, err := tree.RootAt(leafLast + 1)
		if err != nil {
			return nil, err
		}
		return &Proof{Index: index, Epoch: e, InEpoch: ip, EpochCommitment: com}, nil
	}
	// Epoch e was sealed by size: full in-epoch path, full hops up to
	// es-1, then the partial hop into es at its then-current fill.
	p, err := t.inEpochProof(index, e, leaf)
	if err != nil {
		return nil, err
	}
	for k := e + 1; k < es; k++ {
		hop, err := t.hop(k)
		if err != nil {
			return nil, err
		}
		p.Hops = append(p.Hops, hop)
	}
	tree := t.epochTree(es)
	if tree == nil {
		return nil, fmt.Errorf("%w: epoch %d", ErrPruned, es)
	}
	mp, err := tree.ProveAt(0, leafLast+1)
	if err != nil {
		return nil, fmt.Errorf("fam: hop into epoch %d: %w", es, err)
	}
	com, err := tree.RootAt(leafLast + 1)
	if err != nil {
		return nil, err
	}
	p.Hops = append(p.Hops, Hop{Epoch: es, MergedLeaf: mp, Commitment: com})
	return p, nil
}

// Anchor is a trusted checkpoint in the fam-aoa model (Figure 4(a)): a
// verifier that holds an Anchor has cryptographically verified every
// journal with index below Size and trusts the sealed epoch roots it
// covers. Anchors are set after an audit; all data before them is trusted.
type Anchor struct {
	Size   uint64            // journal count covered by the anchor
	Epochs int               // number of sealed epochs covered
	Roots  []hashutil.Digest // trusted sealed-epoch roots, oldest first
}

// AnchorNow captures an anchor covering every currently sealed epoch.
// (The open epoch is excluded: its root is still moving.)
func (t *Tree) AnchorNow() *Anchor {
	per := t.epochCap - 1
	var size uint64
	if n := len(t.sealed); n > 0 {
		size = t.epochCap + uint64(n-1)*per
	}
	roots := make([]hashutil.Digest, len(t.roots))
	copy(roots, t.roots)
	return &Anchor{Size: size, Epochs: len(t.sealed), Roots: roots}
}

// ProveAnchored produces a proof optimized for a verifier holding anchor:
// sealed journals covered by the anchor get only their O(δ) in-epoch
// path; journals in later epochs get the short residual hop chain.
func (t *Tree) ProveAnchored(index uint64, a *Anchor) (*Proof, error) {
	if a == nil {
		return t.Prove(index)
	}
	if a.Epochs > len(t.sealed) || len(a.Roots) != a.Epochs {
		return nil, fmt.Errorf("%w: %d epochs (tree has %d sealed)", ErrBadAnchor, a.Epochs, len(t.sealed))
	}
	e, leaf, err := t.locate(index)
	if err != nil {
		return nil, err
	}
	p, err := t.inEpochProof(index, e, leaf)
	if err != nil {
		return nil, err
	}
	if e < a.Epochs {
		// The epoch root is already trusted: no hops needed.
		return p, nil
	}
	for k := e + 1; k <= len(t.sealed); k++ {
		hop, err := t.hop(k)
		if err != nil {
			return nil, err
		}
		p.Hops = append(p.Hops, hop)
	}
	return p, nil
}

// Verify checks a cold proof: the journal leaf must fold to its epoch
// commitment, and the merged-leaf chain must walk from that commitment to
// root (the trusted datum, e.g. from a signed receipt).
func Verify(leaf hashutil.Digest, p *Proof, root hashutil.Digest) error {
	if p == nil || p.InEpoch == nil {
		return fmt.Errorf("%w: nil proof", ErrBadProof)
	}
	if err := shrubs.VerifyProof(leaf, p.InEpoch, p.EpochCommitment); err != nil {
		return fmt.Errorf("%w: in-epoch: %v", ErrBadProof, err)
	}
	com := p.EpochCommitment
	epoch := p.Epoch
	for _, h := range p.Hops {
		if h.Epoch != epoch+1 {
			return fmt.Errorf("%w: hop into epoch %d after epoch %d", ErrBadProof, h.Epoch, epoch)
		}
		merged := hashutil.Epoch(uint64(epoch), com)
		if h.MergedLeaf.Index != 0 {
			return fmt.Errorf("%w: hop proof is for leaf %d, want merged leaf 0", ErrBadProof, h.MergedLeaf.Index)
		}
		if err := shrubs.VerifyProof(merged, h.MergedLeaf, h.Commitment); err != nil {
			return fmt.Errorf("%w: hop into epoch %d: %v", ErrBadProof, h.Epoch, err)
		}
		com = h.Commitment
		epoch = h.Epoch
	}
	if com != root {
		return fmt.Errorf("%w: chain ends at %s, want root %s", ErrBadProof, com.Short(), root.Short())
	}
	return nil
}

// VerifyAnchored checks a proof under the fam-aoa model. For journals in
// an anchored epoch the in-epoch path is checked against the trusted
// epoch root and nothing else; otherwise the residual hop chain must end
// at root.
func VerifyAnchored(leaf hashutil.Digest, p *Proof, a *Anchor, root hashutil.Digest) error {
	if a == nil {
		return Verify(leaf, p, root)
	}
	if p == nil || p.InEpoch == nil {
		return fmt.Errorf("%w: nil proof", ErrBadProof)
	}
	if p.Epoch < a.Epochs {
		if err := shrubs.VerifyProof(leaf, p.InEpoch, a.Roots[p.Epoch]); err != nil {
			return fmt.Errorf("%w: anchored epoch %d: %v", ErrBadProof, p.Epoch, err)
		}
		if p.EpochCommitment != a.Roots[p.Epoch] {
			return fmt.Errorf("%w: proof commitment differs from anchored root", ErrBadProof)
		}
		return nil
	}
	return Verify(leaf, p, root)
}

// Encode appends the proof to a wire writer.
func (p *Proof) Encode(w *wire.Writer) {
	w.Uvarint(p.Index)
	w.Uvarint(uint64(p.Epoch))
	p.InEpoch.Encode(w)
	w.Digest(p.EpochCommitment)
	w.Uvarint(uint64(len(p.Hops)))
	for _, h := range p.Hops {
		w.Uvarint(uint64(h.Epoch))
		h.MergedLeaf.Encode(w)
		w.Digest(h.Commitment)
	}
}

// DecodeProof reads a proof from a wire reader.
func DecodeProof(r *wire.Reader) (*Proof, error) {
	p := &Proof{Index: r.Uvarint(), Epoch: int(r.Uvarint())}
	ip, err := shrubs.DecodeProof(r)
	if err != nil {
		return nil, err
	}
	p.InEpoch = ip
	p.EpochCommitment = r.Digest()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d hops", ErrBadProof, n)
	}
	for i := uint64(0); i < n; i++ {
		h := Hop{Epoch: int(r.Uvarint())}
		mp, err := shrubs.DecodeProof(r)
		if err != nil {
			return nil, err
		}
		h.MergedLeaf = mp
		h.Commitment = r.Digest()
		p.Hops = append(p.Hops, h)
	}
	return p, r.Err()
}
