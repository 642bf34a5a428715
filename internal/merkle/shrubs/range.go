package shrubs

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

// This file implements the node-set range proofs behind the clue-oriented
// verification algorithm of §IV-C. Given the leaves in a version range
// [v1, v2) (the journals the client retrieved), the verifier needs the
// minimal set of interior cells to rebuild the tree's frontier:
//
//	N1 = the destination leaf positions (the client's own data),
//	N2 = all cells on the needed proof paths (function P1),
//	N3 = the cells computable from N1 alone (function P2),
//	N  = N2 − (N2 ∩ N3) — only these are shipped.
//
// RangeProofCells computes N directly by recursion: a frontier subtree
// disjoint from the range contributes just its root; a fully covered
// subtree contributes nothing (computable); a partially covered subtree
// splits in half and recurses. VerifyRange replays the same recursion on
// the client side.
//
// multi.go walks the same frontier subtrees for an arbitrary leaf set (a
// range is the set {begin..end-1}) but ships bare digests in walk order.
// This positioned variant stays because CellRef is the clue bundle's
// wire format (ProofBundle is byte-stable) and a client folds it without
// replaying the prover's walk.

// CellRef is a positioned digest shipped in a range proof.
type CellRef struct {
	Pos    Pos
	Digest hashutil.Digest
}

// RangeProofCells returns the interior cells a verifier holding leaves
// [begin, end) needs to recompute the frontier of the tree as of the
// given size (the paper's result set N from step 3 of the clue
// verification algorithm). size may be a historical snapshot size: the
// cells of a size-s frontier are append-stable, so they remain readable
// after the tree grows.
func (t *Tree) RangeProofCells(size, begin, end uint64) ([]CellRef, error) {
	n := size
	if n > t.Size() {
		return nil, fmt.Errorf("%w: size %d beyond tree %d", ErrOutOfRange, n, t.Size())
	}
	if begin >= end || end > n {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d", ErrOutOfRange, begin, end, n)
	}
	var cells []CellRef
	off := uint64(0)
	for b := 64; b >= 0; b-- {
		if n&(1<<uint(b)) == 0 {
			continue
		}
		width := uint64(1) << uint(b)
		if err := t.collectRange(uint8(b), off>>uint(b), off, off+width, begin, end, &cells); err != nil {
			return nil, err
		}
		off += width
	}
	return cells, nil
}

// collectRange walks the subtree rooted at (level, offset) covering
// leaves [lo, hi), gathering the cells needed for range [begin, end).
func (t *Tree) collectRange(level uint8, offset, lo, hi, begin, end uint64, cells *[]CellRef) error {
	if begin <= lo && hi <= end {
		return nil // fully covered by the client's leaves: computable
	}
	if hi <= begin || lo >= end {
		// Disjoint: ship this cell's digest.
		d, err := t.Cell(Pos{Level: level, Offset: offset})
		if err != nil {
			return err
		}
		*cells = append(*cells, CellRef{Pos: Pos{Level: level, Offset: offset}, Digest: d})
		return nil
	}
	if level == 0 {
		// A leaf that is partially covered cannot happen (ranges are
		// leaf-aligned), so reaching here means covered or disjoint above.
		return fmt.Errorf("shrubs: internal error: leaf partially covered")
	}
	mid := lo + (hi-lo)/2
	if err := t.collectRange(level-1, offset*2, lo, mid, begin, end, cells); err != nil {
		return err
	}
	return t.collectRange(level-1, offset*2+1, mid, hi, begin, end, cells)
}

// VerifyRange checks that leaves are exactly the tree's leaves [begin,
// end) for a tree of the given size whose frontier bags to commitment,
// using the shipped cells for everything outside the range. It returns
// nil only when the recomputed frontier matches.
func VerifyRange(size, begin, end uint64, leaves []hashutil.Digest, cells []CellRef, commitment hashutil.Digest) error {
	if begin >= end || end > size {
		return fmt.Errorf("%w: range [%d,%d) of %d", ErrBadProof, begin, end, size)
	}
	if uint64(len(leaves)) != end-begin {
		return fmt.Errorf("%w: %d leaves for range of %d", ErrBadProof, len(leaves), end-begin)
	}
	lookup := make(map[Pos]hashutil.Digest, len(cells))
	for _, c := range cells {
		lookup[c.Pos] = c.Digest
	}
	var frontier []hashutil.Digest
	off := uint64(0)
	for b := 64; b >= 0; b-- {
		if size&(1<<uint(b)) == 0 {
			continue
		}
		width := uint64(1) << uint(b)
		root, err := rebuild(uint8(b), off>>uint(b), off, off+width, begin, end, leaves, lookup)
		if err != nil {
			return err
		}
		frontier = append(frontier, root)
		off += width
	}
	if got := BagFrontier(frontier); got != commitment {
		return fmt.Errorf("%w: recomputed frontier bags to %s, want %s", ErrBadProof, got.Short(), commitment.Short())
	}
	return nil
}

// rebuild recomputes the digest of the subtree at (level, offset) covering
// [lo, hi), pulling in-range leaves from leaves and out-of-range digests
// from lookup.
func rebuild(level uint8, offset, lo, hi, begin, end uint64, leaves []hashutil.Digest, lookup map[Pos]hashutil.Digest) (hashutil.Digest, error) {
	if hi <= begin || lo >= end {
		d, ok := lookup[Pos{Level: level, Offset: offset}]
		if !ok {
			return hashutil.Zero, fmt.Errorf("%w: missing proof cell %s", ErrBadProof, Pos{Level: level, Offset: offset})
		}
		return d, nil
	}
	if level == 0 {
		return leaves[lo-begin], nil
	}
	mid := lo + (hi-lo)/2
	left, err := rebuild(level-1, offset*2, lo, mid, begin, end, leaves, lookup)
	if err != nil {
		return hashutil.Zero, err
	}
	right, err := rebuild(level-1, offset*2+1, mid, hi, begin, end, leaves, lookup)
	if err != nil {
		return hashutil.Zero, err
	}
	return hashutil.Node(left, right), nil
}

// EncodeCells serializes range-proof cells.
func EncodeCells(w *wire.Writer, cells []CellRef) {
	w.Uvarint(uint64(len(cells)))
	for _, c := range cells {
		w.Uint8(c.Pos.Level)
		w.Uvarint(c.Pos.Offset)
		w.Digest(c.Digest)
	}
}

// DecodeCells parses range-proof cells.
func DecodeCells(r *wire.Reader) ([]CellRef, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d proof cells", ErrBadProof, n)
	}
	var out []CellRef
	for i := uint64(0); i < n; i++ {
		out = append(out, CellRef{
			Pos:    Pos{Level: r.Uint8(), Offset: r.Uvarint()},
			Digest: r.Digest(),
		})
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	return out, r.Err()
}
