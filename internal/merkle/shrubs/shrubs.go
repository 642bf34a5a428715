// Package shrubs implements the Shrubs Merkle tree of §III-A1: an
// append-only accumulator with O(1) amortized insertion that exposes a
// *node-set proof* — the frontier of complete-subtree roots — instead of a
// single root hash while the binary tree is not yet full.
//
// The frontier is the binary-counter decomposition of the current size: a
// tree holding n leaves has one complete subtree per set bit of n, and the
// frontier lists their roots from largest to smallest. In the paper's
// Figure 3(a), after 5 leaves the proof for cell₅ is {cell₇}+{cell₈}
// style node sets; here the same sets fall out of Frontier().
//
// Shrubs is the storage layer under both fam epochs (package merkle/fam)
// and the per-clue CM-Tree2 accumulators (package cmtree), which need to
// fetch arbitrary interior cells by position — so, unlike a pure frontier
// accumulator, Shrubs retains all computed cells, addressable by the
// paper's (level, offset) scheme. Every proof over it — one leaf, a clue
// range, a batch — is one walk and one fold (multi.go).
package shrubs

import (
	"errors"
	"fmt"
	"math/bits"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

// Errors returned by this package.
var (
	ErrEmpty      = errors.New("shrubs: empty tree")
	ErrOutOfRange = errors.New("shrubs: cell position out of range")
	ErrNotYet     = errors.New("shrubs: interior cell not yet computed")
	ErrBadProof   = errors.New("shrubs: proof verification failed")
)

// Pos addresses a cell: Level 0 is the leaf level; Offset counts cells
// within the level left to right.
type Pos struct {
	Level  uint8
	Offset uint64
}

// String renders a position for diagnostics.
func (p Pos) String() string { return fmt.Sprintf("L%d[%d]", p.Level, p.Offset) }

// Tree is an append-only Shrubs tree. Not safe for concurrent mutation.
type Tree struct {
	levels [][]hashutil.Digest
}

// New returns an empty Shrubs tree.
func New() *Tree {
	return &Tree{levels: make([][]hashutil.Digest, 1, 12)}
}

// Size returns the number of leaves appended.
func (t *Tree) Size() uint64 { return uint64(len(t.levels[0])) }

// Append adds a leaf digest and returns its index. Interior cells are
// computed lazily: exactly when a subtree completes, never earlier —
// this is the "avoids unnecessary accumulation for intermediate nodes"
// property that makes Shrubs insertion O(1) amortized.
func (t *Tree) Append(leaf hashutil.Digest) uint64 {
	idx := uint64(len(t.levels[0]))
	t.levels[0] = append(t.levels[0], leaf)
	i := idx
	for lvl := 0; i%2 == 1; lvl++ {
		if lvl+1 >= len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		t.levels[lvl+1] = append(t.levels[lvl+1], hashutil.Node(t.levels[lvl][i-1], t.levels[lvl][i]))
		i /= 2
	}
	return idx
}

// Cell returns the digest stored at a position. Interior cells exist only
// for completed subtrees.
func (t *Tree) Cell(p Pos) (hashutil.Digest, error) {
	if int(p.Level) >= len(t.levels) {
		return hashutil.Zero, fmt.Errorf("%w: %s", ErrOutOfRange, p)
	}
	lvl := t.levels[p.Level]
	if p.Offset >= uint64(len(lvl)) {
		if p.Level > 0 && p.Offset < t.Size()>>uint(p.Level)+1 {
			return hashutil.Zero, fmt.Errorf("%w: %s", ErrNotYet, p)
		}
		return hashutil.Zero, fmt.Errorf("%w: %s", ErrOutOfRange, p)
	}
	return lvl[p.Offset], nil
}

// CellCount reports the number of digests stored across all levels — the
// storage-overhead metric for Table I style comparisons.
func (t *Tree) CellCount() uint64 {
	var n uint64
	for _, lvl := range t.levels {
		n += uint64(len(lvl))
	}
	return n
}

// Frontier returns the node-set proof for the current tree state: the
// roots of the complete subtrees, largest first. For a full tree (size a
// power of two) it is a single digest — the root.
func (t *Tree) Frontier() []hashutil.Digest {
	f, _ := t.FrontierAt(t.Size())
	return f
}

// FrontierAt returns the node-set proof the tree exposed when it held
// exactly n leaves, n ≤ Size(). Every complete subtree of the first n
// leaves is also a complete subtree now, so its root cell was computed at
// the time and is still addressable — historical frontiers cost nothing
// extra to retain.
func (t *Tree) FrontierAt(n uint64) ([]hashutil.Digest, error) {
	if n > t.Size() {
		return nil, fmt.Errorf("%w: frontier at %d of %d", ErrOutOfRange, n, t.Size())
	}
	return t.appendFrontier(make([]hashutil.Digest, 0, bits.OnesCount64(n)), n), nil
}

// appendFrontier appends the frontier of the first n leaves (n ≤ Size)
// to dst.
func (t *Tree) appendFrontier(dst []hashutil.Digest, n uint64) []hashutil.Digest {
	off := uint64(0)
	for b := bits.Len64(n); b > 0; b-- {
		lvl := uint(b - 1)
		if n&(1<<lvl) == 0 {
			continue
		}
		dst = append(dst, t.levels[lvl][off>>lvl])
		off += 1 << lvl
	}
	return dst
}

// EncodedFrontier is EncodeFrontier(t.Frontier()) with the frontier
// built on the stack: CM-Tree1 stores it on every append.
func (t *Tree) EncodedFrontier() []byte {
	var buf [64]hashutil.Digest
	return EncodeFrontier(t.appendFrontier(buf[:0], t.Size()))
}

// Root returns the single digest committing to the whole tree: the root
// for a full tree, otherwise the frontier bagged right-to-left (the
// smallest subtrees fold into the larger ones, matching how the tree will
// close as it fills).
func (t *Tree) Root() (hashutil.Digest, error) {
	return t.RootAt(t.Size())
}

// RootAt returns the commitment the tree exposed when it held exactly n
// leaves, n ≤ Size().
func (t *Tree) RootAt(n uint64) (hashutil.Digest, error) {
	if n == 0 {
		return hashutil.Zero, ErrEmpty
	}
	f, err := t.FrontierAt(n)
	if err != nil {
		return hashutil.Zero, err
	}
	return BagFrontier(f), nil
}

// BagFrontier folds a frontier into one digest. It is exported so
// verifiers can recompute roots from node-set proofs.
func BagFrontier(f []hashutil.Digest) hashutil.Digest {
	acc := f[len(f)-1]
	for i := len(f) - 2; i >= 0; i-- {
		acc = hashutil.Node(f[i], acc)
	}
	return acc
}

// IsFull reports whether the size is a power of two (a complete tree).
func (t *Tree) IsFull() bool {
	n := t.Size()
	return n > 0 && n&(n-1) == 0
}

// Leaf returns the leaf digest at index i.
func (t *Tree) Leaf(i uint64) (hashutil.Digest, error) {
	return t.Cell(Pos{Level: 0, Offset: i})
}

// RecomputeFrontier rebuilds the frontier from raw leaf digests. Clue
// verification (CM-Tree2) uses it to check a retrieved journal set against
// the frontier stored in CM-Tree1 in O(m).
func RecomputeFrontier(leaves []hashutil.Digest) []hashutil.Digest {
	t := New()
	for _, l := range leaves {
		t.Append(l)
	}
	if t.Size() == 0 {
		return nil
	}
	return t.Frontier()
}

// EncodeFrontier serializes a frontier (node-set proof) for storage as a
// CM-Tree1 leaf value.
func EncodeFrontier(f []hashutil.Digest) []byte {
	w := wire.NewWriter(1 + len(f)*hashutil.Size)
	w.Uvarint(uint64(len(f)))
	for _, d := range f {
		w.Digest(d)
	}
	return w.Bytes()
}

// DecodeFrontier parses a frontier serialized by EncodeFrontier.
func DecodeFrontier(b []byte) ([]hashutil.Digest, error) {
	r := wire.NewReader(b)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 64 {
		return nil, fmt.Errorf("%w: %d frontier entries", ErrBadProof, n)
	}
	out := make([]hashutil.Digest, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Digest())
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}
