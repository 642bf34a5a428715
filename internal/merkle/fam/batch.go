package fam

import (
	"fmt"
	"math"
	"sort"

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
	idx := append([]uint64(nil), indices...)
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	distinct := idx[:1]
	for _, i := range idx[1:] {
		if i != distinct[len(distinct)-1] {
			distinct = append(distinct, i)
		}
	}
	idx = distinct
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
// consumed. It is a pure function; all failures are ErrBadProof.
func VerifyBatch(leaves []Leaf, p *BatchProof, root hashutil.Digest) error {
	if p == nil || p.Size == 0 || len(leaves) == 0 {
		return fmt.Errorf("%w: empty batch proof", ErrBadProof)
	}
	epochCap, err := p.epochCap()
	if err != nil {
		return err
	}
	sorted := append([]Leaf(nil), leaves...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	distinct := sorted[:1]
	for _, l := range sorted[1:] {
		if prev := distinct[len(distinct)-1]; l.Index != prev.Index {
			distinct = append(distinct, l)
		} else if l.Digest != prev.Digest {
			return fmt.Errorf("%w: two digests for journal %d", ErrBadProof, l.Index)
		}
	}
	sorted = distinct
	idx := make([]uint64, len(sorted))
	for i, l := range sorted {
		idx[i] = l.Index
	}
	if last := idx[len(idx)-1]; last >= p.Size {
		return fmt.Errorf("%w: journal %d at size %d", ErrBadProof, last, p.Size)
	}
	es, lastLeaf := locateIn(epochCap, p.Size-1)
	first, _ := locateIn(epochCap, idx[0])
	nodes := p.Nodes
	pos := make([]uint64, 0, len(idx)+1)
	digs := make([]hashutil.Digest, 0, len(idx)+1)
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
		for _, l := range sorted[:took] {
			digs = append(digs, l.Digest)
		}
		idx, sorted = idx[took:], sorted[took:]
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
