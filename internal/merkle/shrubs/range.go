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
// N is the multi walk (multi.go) over the set {v1..v2-1}: a frontier
// subtree disjoint from the range contributes just its root, a fully
// covered one nothing, a partially covered one splits in half. The cells
// go out positioned because CellRef is the clue bundle's wire format
// (ProofBundle is byte-stable); VerifyRange requires each one at the
// position the walk reaches it and folds them with FoldMulti.

// CellRef is a positioned digest shipped in a range proof.
type CellRef struct {
	Pos    Pos
	Digest hashutil.Digest
}

// RangeProofCells returns the interior cells a verifier holding leaves
// [begin, end) needs to recompute the frontier of the tree as of the
// given size (the paper's result set N from step 3 of the clue
// verification algorithm), in walk order; none for the whole tree. size
// may be a historical snapshot size: the cells of a size-s frontier are
// append-stable, so they remain readable after the tree grows.
func (t *Tree) RangeProofCells(size, begin, end uint64) ([]CellRef, error) {
	if size > t.Size() {
		return nil, fmt.Errorf("%w: size %d beyond tree %d", ErrOutOfRange, size, t.Size())
	}
	if begin >= end || end > size {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d", ErrOutOfRange, begin, end, size)
	}
	var cells []CellRef
	for _, p := range walk(size, span(begin, end), nil) {
		cells = append(cells, CellRef{Pos: p, Digest: t.levels[p.Level][p.Offset]})
	}
	return cells, nil
}

// VerifyRange checks that leaves are exactly the tree's leaves [begin,
// end) for a tree of the given size whose frontier bags to commitment,
// using the shipped cells for everything outside the range. The cells
// must be exactly the ones the walk takes, each at its position and in
// walk order: a missing, surplus, repeated or reordered cell is refused
// before anything is hashed. It returns nil only when the fold reaches
// commitment. The whole tree (begin 0, end size) takes no cells.
func VerifyRange(size, begin, end uint64, leaves []hashutil.Digest, cells []CellRef, commitment hashutil.Digest) error {
	if begin >= end || end > size {
		return fmt.Errorf("%w: range [%d,%d) of %d", ErrBadProof, begin, end, size)
	}
	if uint64(len(leaves)) != end-begin {
		return fmt.Errorf("%w: %d leaves for range of %d", ErrBadProof, len(leaves), end-begin)
	}
	pos := span(begin, end)
	var buf [64]Pos
	want := walk(size, pos, buf[:0])
	if len(cells) != len(want) {
		return fmt.Errorf("%w: %d proof cells, the range needs %d", ErrBadProof, len(cells), len(want))
	}
	nodes := make([]hashutil.Digest, len(cells))
	for i, c := range cells {
		if c.Pos != want[i] {
			return fmt.Errorf("%w: proof cell %d at %s, the walk needs %s", ErrBadProof, i, c.Pos, want[i])
		}
		nodes[i] = c.Digest
	}
	got, _, err := FoldMulti(size, pos, leaves, nodes)
	if err != nil {
		return err
	}
	if got != commitment {
		return fmt.Errorf("%w: recomputed frontier bags to %s, want %s", ErrBadProof, got.Short(), commitment.Short())
	}
	return nil
}

// span lists the leaf positions [begin, end).
func span(begin, end uint64) []uint64 {
	pos := make([]uint64, end-begin)
	for i := range pos {
		pos[i] = begin + uint64(i)
	}
	return pos
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
