package shrubs

import (
	"fmt"
	"math/bits"
	"sort"

	"ledgerdb/internal/hashutil"
)

// This file implements multi-leaf proofs: one node list that proves a
// SET of leaves against a frontier snapshot. Where k single-leaf Proofs
// repeat every cell two audit paths share — and the whole frontier k
// times — a multi-leaf proof states each needed cell once and omits the
// ones the verifier can compute from the other proven leaves.
//
// The node list carries no positions. Prover and verifier walk the tree
// in the same order — frontier subtrees largest first, each depth-first,
// left before right — and a subtree holding none of the proven leaves is
// exactly one node, taken at the moment the walk reaches it. A node that
// is missing, surplus, repeated or out of order therefore changes the
// recomputed commitment or leaves the list unconsumed; both are
// ErrBadProof to the caller that checks the remainder.

// MultiProofAt appends to nodes the cells a verifier holding the leaves
// at pos needs to recompute the commitment the tree exposed at n leaves,
// in the order FoldMulti consumes them. pos must be ascending, distinct
// and below n; n may be historical (n ≤ Size()).
func (t *Tree) MultiProofAt(n uint64, pos []uint64, nodes []hashutil.Digest) ([]hashutil.Digest, error) {
	if n > t.Size() {
		return nodes, fmt.Errorf("%w: multi-proof at %d of %d", ErrOutOfRange, n, t.Size())
	}
	if err := checkPositions(n, pos); err != nil {
		return nodes, fmt.Errorf("%w: %v", ErrOutOfRange, err)
	}
	forEachFrontierSubtree(n, pos, func(level uint, lo uint64, in []uint64) {
		nodes = t.multiCells(level, lo, in, nodes)
	})
	return nodes, nil
}

// multiCells walks the complete subtree of the given level whose first
// leaf is lo; pos holds the proven leaves inside it.
func (t *Tree) multiCells(level uint, lo uint64, pos []uint64, nodes []hashutil.Digest) []hashutil.Digest {
	if len(pos) == 0 {
		return append(nodes, t.levels[level][lo>>level])
	}
	if level == 0 {
		return nodes
	}
	mid := lo + 1<<(level-1)
	left, right := splitBelow(pos, mid)
	nodes = t.multiCells(level-1, lo, left, nodes)
	return t.multiCells(level-1, mid, right, nodes)
}

// FoldMulti recomputes the commitment of an n-leaf tree from the leaves
// at pos (ascending, distinct, below n; leaves[i] sits at pos[i]), taking
// every cell it cannot compute from the front of nodes. It returns the
// commitment and the nodes it did not consume; a caller with nothing
// else to fold must treat a non-empty remainder as a bad proof. Every
// interior cell above two proven leaves is hashed once. Pure function.
func FoldMulti(n uint64, pos []uint64, leaves, nodes []hashutil.Digest) (hashutil.Digest, []hashutil.Digest, error) {
	if len(pos) != len(leaves) {
		return hashutil.Zero, nodes, fmt.Errorf("%w: %d leaves at %d positions", ErrBadProof, len(leaves), len(pos))
	}
	if err := checkPositions(n, pos); err != nil {
		return hashutil.Zero, nodes, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	var frontier [64]hashutil.Digest
	f := multiFolder{nodes: nodes}
	fi := 0
	forEachFrontierSubtree(n, pos, func(level uint, lo uint64, in []uint64) {
		frontier[fi] = f.fold(level, lo, in, leaves[:len(in)])
		leaves = leaves[len(in):]
		fi++
	})
	if f.short {
		return hashutil.Zero, nil, fmt.Errorf("%w: node list ends before the tree is rebuilt", ErrBadProof)
	}
	return BagFrontier(frontier[:fi]), f.nodes, nil
}

// multiFolder is FoldMulti's cursor over the node list.
type multiFolder struct {
	nodes []hashutil.Digest
	short bool // the walk asked for a node the list did not have
}

// fold mirrors multiCells: same subtree, same order, hashing upward.
func (f *multiFolder) fold(level uint, lo uint64, pos []uint64, leaves []hashutil.Digest) hashutil.Digest {
	if len(pos) == 0 {
		if len(f.nodes) == 0 {
			f.short = true
			return hashutil.Zero
		}
		d := f.nodes[0]
		f.nodes = f.nodes[1:]
		return d
	}
	if level == 0 {
		return leaves[0]
	}
	mid := lo + 1<<(level-1)
	left, right := splitBelow(pos, mid)
	l := f.fold(level-1, lo, left, leaves[:len(left)])
	r := f.fold(level-1, mid, right, leaves[len(left):])
	return hashutil.Node(l, r)
}

// forEachFrontierSubtree visits the complete subtrees an n-leaf tree's
// frontier is made of, largest first — the walk order both sides of a
// multi-leaf proof share — handing each its level, its first leaf and
// the ascending positions of pos that fall inside it.
func forEachFrontierSubtree(n uint64, pos []uint64, visit func(level uint, lo uint64, in []uint64)) {
	lo := uint64(0)
	for b := bits.Len64(n); b > 0; b-- {
		level := uint(b - 1)
		if n&(1<<level) == 0 {
			continue
		}
		var in []uint64
		in, pos = splitBelow(pos, lo+1<<level)
		visit(level, lo, in)
		lo += 1 << level
	}
}

// splitBelow cuts ascending positions at the first one not below bound.
func splitBelow(pos []uint64, bound uint64) (below, rest []uint64) {
	m := sort.Search(len(pos), func(i int) bool { return pos[i] >= bound })
	return pos[:m], pos[m:]
}

func checkPositions(n uint64, pos []uint64) error {
	if len(pos) == 0 {
		return fmt.Errorf("no leaf positions")
	}
	for i, p := range pos {
		if i > 0 && p <= pos[i-1] {
			return fmt.Errorf("leaf positions not ascending (%d after %d)", p, pos[i-1])
		}
	}
	if last := pos[len(pos)-1]; last >= n {
		return fmt.Errorf("leaf %d of %d", last, n)
	}
	return nil
}
