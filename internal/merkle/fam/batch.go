package fam

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/merkle/shrubs"
	"ledgerdb/internal/wire"
)

// This file implements shared-node batch proofs: ONE proof object for k
// journal leaves against one root. k cold Proofs repeat the merged-leaf
// hop chain, every epoch commitment and frontier, and every sibling two
// paths share; a BatchProof states each of those nodes once and leaves
// out the siblings a verifier can compute from the other proven leaves.
//
// Shape. Let e be the oldest epoch holding a proven journal and es the
// epoch that held journal Size-1. The proof is one shrubs multi-leaf
// proof per epoch k in [e, es], concatenated: epoch k's proven set is its
// proven journals plus — for k > e — its merged leaf, whose digest the
// verifier derives from epoch k-1's recomputed commitment. The chain
// ends at the commitment of es, which must equal the trusted root.
//
// Nothing in Nodes is positioned: (Height, Size) and the leaf indices
// fix the walk, and each node is consumed at one point of it. See
// shrubs.FoldMulti for why a surplus, missing, repeated or reordered
// node cannot verify.

// Leaf is one journal a batch proof covers: its journal index and the
// digest accumulated there.
type Leaf struct {
	Index  uint64
	Digest hashutil.Digest
}

// BatchProof shows that a set of journal digests is accumulated in a fam
// tree of Size journals. It names no indices: the verifier supplies them
// with the leaves, so a proof cannot disagree with the records it is
// checked against.
type BatchProof struct {
	// Height is the fractal height δ — stated only when the walk depends
	// on it. While the first epoch is still open (Size ≤ 2^δ) every
	// journal index is its own leaf position and Height is 0; VerifyBatch
	// refuses a non-zero Height that Size does not need, so the field has
	// one valid value per tree and a flipped bit cannot go unnoticed.
	Height uint8
	// Size is the journal count of the tree state proven against (what
	// RootAt(Size) commits to).
	Size uint64
	// Nodes are the cells the verifier cannot compute, in walk order.
	Nodes []hashutil.Digest
}

// epochCap is the per-epoch leaf capacity the proof's walk uses.
func (p *BatchProof) epochCap() (uint64, error) {
	if p.Height == 0 {
		return math.MaxUint64, nil // one epoch: index == leaf position
	}
	if p.Height > 30 {
		return 0, fmt.Errorf("%w: fractal height %d", ErrBadProof, p.Height)
	}
	epochCap := uint64(1) << p.Height
	if p.Size <= epochCap {
		return 0, fmt.Errorf("%w: height %d stated for a one-epoch tree of %d", ErrBadProof, p.Height, p.Size)
	}
	return epochCap, nil
}

// ProveBatchAt produces one proof for every journal index in indices
// (any order, duplicates allowed) against the root the tree exposed at
// journal count size — RootAt(size); pass Size() for the live root.
func (t *Tree) ProveBatchAt(indices []uint64, size uint64) (*BatchProof, error) {
	if size == 0 || size > t.size {
		return nil, fmt.Errorf("%w: proof at size %d of %d", ErrOutOfRange, size, t.size)
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrOutOfRange)
	}
	idx := slices.Clone(indices)
	slices.Sort(idx)
	idx = slices.Compact(idx)
	if last := idx[len(idx)-1]; last >= size {
		return nil, fmt.Errorf("%w: journal %d at size %d", ErrOutOfRange, last, size)
	}
	p := &BatchProof{Size: size}
	es, lastLeaf := locateIn(t.epochCap, size-1)
	if es > 0 {
		p.Height = t.height
	}
	first, _ := locateIn(t.epochCap, idx[0])
	pos := make([]uint64, 0, len(idx)+1)
	for k := first; k <= es; k++ {
		tree := t.epochTree(int(k))
		if tree == nil {
			return nil, fmt.Errorf("%w: epoch %d", ErrPruned, k)
		}
		var took int
		pos, took = epochPositions(t.epochCap, k, k > first, idx, pos[:0])
		idx = idx[took:]
		n := t.epochCap
		if k == es {
			n = lastLeaf + 1
		}
		var err error
		if p.Nodes, err = tree.MultiProofAt(n, pos, p.Nodes); err != nil {
			return nil, fmt.Errorf("fam: epoch %d: %w", k, err)
		}
	}
	return p, nil
}

// epochPositions appends to pos the leaf positions epoch k contributes
// to a batch walk — the merged leaf first when the chain entered k from
// an older epoch, then each leading index of idx (ascending, distinct)
// that lies in k — and reports how many indices it took.
func epochPositions(epochCap, k uint64, merged bool, idx, pos []uint64) (_ []uint64, took int) {
	if merged {
		pos = append(pos, 0)
	}
	for _, i := range idx {
		e, leaf := locateIn(epochCap, i)
		if e != k {
			break
		}
		pos = append(pos, leaf)
		took++
	}
	return pos, took
}

// VerifyBatch checks a batch proof: the leaves (any order; a repeated
// index must repeat its digest) must fold, through the proof's nodes and
// the merged-leaf chain, to root — the trusted datum — with every node
// consumed. It is a pure function; all failures are ErrBadProof. A
// batch of one is neither copied nor sorted, and allocates nothing.
func VerifyBatch(leaves []Leaf, p *BatchProof, root hashutil.Digest) error {
	if p == nil || p.Size == 0 || len(leaves) == 0 {
		return fmt.Errorf("%w: empty batch proof", ErrBadProof)
	}
	epochCap, err := p.epochCap()
	if err != nil {
		return err
	}
	var one [1]uint64
	var posBuf [2]uint64
	var digBuf [2]hashutil.Digest
	idx, pos, digs := one[:], posBuf[:0], digBuf[:0]
	if len(leaves) == 1 {
		one[0] = leaves[0].Index
	} else {
		if leaves, err = sortLeaves(leaves); err != nil {
			return err
		}
		idx = make([]uint64, len(leaves))
		for i, l := range leaves {
			idx[i] = l.Index
		}
		pos, digs = make([]uint64, 0, len(idx)+1), make([]hashutil.Digest, 0, len(idx)+1)
	}
	if last := idx[len(idx)-1]; last >= p.Size {
		return fmt.Errorf("%w: journal %d at size %d", ErrBadProof, last, p.Size)
	}
	es, lastLeaf := locateIn(epochCap, p.Size-1)
	first, _ := locateIn(epochCap, idx[0])
	nodes := p.Nodes
	var com hashutil.Digest
	// Every epoch below es holds at least two leaves and is entered with
	// at most its merged leaf known, so each round consumes a node or a
	// proven leaf: a hostile Size cannot spin this loop past
	// len(Nodes)+len(leaves) rounds.
	for k := first; ; k++ {
		digs = digs[:0]
		if k > first {
			digs = append(digs, hashutil.Epoch(k-1, com))
		}
		var took int
		pos, took = epochPositions(epochCap, k, k > first, idx, pos[:0])
		for _, l := range leaves[:took] {
			digs = append(digs, l.Digest)
		}
		idx, leaves = idx[took:], leaves[took:]
		n := epochCap
		if k == es {
			n = lastLeaf + 1
		}
		if com, nodes, err = shrubs.FoldMulti(n, pos, digs, nodes); err != nil {
			return fmt.Errorf("%w: epoch %d: %v", ErrBadProof, k, err)
		}
		if k == es {
			break
		}
	}
	if len(nodes) != 0 {
		return fmt.Errorf("%w: %d nodes left unconsumed", ErrBadProof, len(nodes))
	}
	if com != root {
		return fmt.Errorf("%w: chain ends at %s, want root %s", ErrBadProof, com.Short(), root.Short())
	}
	return nil
}

// sortLeaves returns the leaves sorted by index with repeats dropped,
// refusing an index repeated with another digest.
func sortLeaves(leaves []Leaf) ([]Leaf, error) {
	sorted := slices.Clone(leaves)
	slices.SortFunc(sorted, func(a, b Leaf) int { return cmp.Compare(a.Index, b.Index) })
	distinct := sorted[:1]
	for _, l := range sorted[1:] {
		if prev := distinct[len(distinct)-1]; l.Index != prev.Index {
			distinct = append(distinct, l)
		} else if l.Digest != prev.Digest {
			return nil, fmt.Errorf("%w: two digests for journal %d", ErrBadProof, l.Index)
		}
	}
	return distinct, nil
}

// SealedEpoch reports the epoch whose end p is taken at: Size is the
// journal count at which that epoch filled (Tree.EpochEnd), so the root
// p folds to is the epoch's sealed root. ok is false for any other Size,
// and for a nil proof. A one-epoch proof (Height 0) ends epoch 0 when
// Size is a power of two: the fold to a learned root of 2^δ leaves
// settles which one.
func (p *BatchProof) SealedEpoch() (epoch uint64, ok bool) {
	if p == nil || p.Size == 0 {
		return 0, false
	}
	epochCap, err := p.epochCap()
	if err != nil {
		return 0, false
	}
	if p.Height == 0 {
		return 0, p.Size > 1 && p.Size&(p.Size-1) == 0
	}
	e, leaf := locateIn(epochCap, p.Size-1)
	return e, leaf == epochCap-1
}

// SealedRoot returns the root of l's epoch when p's walk climbs past it —
// the epoch was sealed at Size, and its root went into the next epoch's
// merged leaf. On a proof VerifyBatch accepted for l against a trusted
// root, that root is authenticated too: it is what the verifier learned
// about sealed history.
func SealedRoot(l Leaf, p *BatchProof) (epoch uint64, root hashutil.Digest, ok bool) {
	epochCap, err := p.epochCap()
	if err != nil || p.Height == 0 || l.Index >= p.Size {
		return 0, hashutil.Zero, false
	}
	e, leaf := locateIn(epochCap, l.Index)
	if es, _ := locateIn(epochCap, p.Size-1); e >= es {
		return 0, hashutil.Zero, false
	}
	root, _, err = shrubs.FoldMulti(epochCap, []uint64{leaf}, []hashutil.Digest{l.Digest}, p.Nodes)
	return e, root, err == nil
}

// Encode appends the proof to a wire writer.
func (p *BatchProof) Encode(w *wire.Writer) {
	w.Uint8(p.Height)
	w.Uvarint(p.Size)
	w.DigestSlice(p.Nodes)
}

// DecodeBatchProof reads a batch proof from a wire reader. The node
// count is checked against the bytes actually present before anything is
// sized from it.
func DecodeBatchProof(r *wire.Reader) (*BatchProof, error) {
	p := &BatchProof{Height: r.Uint8(), Size: r.Uvarint()}
	p.Nodes = r.DigestSlice(uint64(r.Remaining() / hashutil.Size))
	return p, r.Err()
}
