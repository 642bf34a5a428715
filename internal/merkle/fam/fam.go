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
// Every proof is a BatchProof (batch.go): one shrubs walk per epoch from
// the oldest proven journal's to the one that held the proven size, a
// single journal being a batch of one. Verification has two regimes,
// mirroring Figure 4:
//
//   - Cold: the proof is taken at the size the trusted root commits to,
//     so its walk climbs through one merged leaf per later epoch and its
//     cost grows with the number of epochs between the journal and the
//     live root.
//   - Learned root (fam-aoa): the verifier has learned a sealed epoch's
//     root from an earlier verified cold proof. A journal of that epoch
//     is then proven at the epoch's end (EpochEnd), where the root is
//     RootAt of that size: its O(δ) in-epoch walk alone — near-constant
//     cost regardless of ledger size, which is the stable GetProof
//     throughput of Figure 8(b).
package fam

import (
	"errors"
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/merkle/shrubs"
)

// Errors returned by this package.
var (
	ErrBadHeight  = errors.New("fam: fractal height must be in [1, 30]")
	ErrOutOfRange = errors.New("fam: journal index out of range")
	ErrBadProof   = errors.New("fam: proof verification failed")
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

// EpochEnd returns the journal count at which the epoch holding index is
// full — the size whose root (RootAt) is that epoch's sealed root, and
// so the size a proof for a verifier that learned the root is taken at.
func (t *Tree) EpochEnd(index uint64) uint64 {
	e, _ := locateIn(t.epochCap, index)
	return t.JournalCapacity(int(e) + 1)
}

// Proof is a single journal's proof: the BatchProof of one for Index.
// It stays for callers that prove journals one at a time.
type Proof struct {
	Index uint64
	*BatchProof
}

// Prove produces the proof of a journal index against the current root.
func (t *Tree) Prove(index uint64) (*Proof, error) {
	p, err := t.ProveBatchAt([]uint64{index}, t.size)
	if err != nil {
		return nil, err
	}
	return &Proof{Index: index, BatchProof: p}, nil
}

// PathLen reports the number of digests the proof ships; the Figure 8
// benchmarks use it as the verification-cost metric.
func (p *Proof) PathLen() int { return len(p.Nodes) }

// Verify checks a single journal's proof against root.
func Verify(leaf hashutil.Digest, p *Proof, root hashutil.Digest) error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrBadProof)
	}
	return VerifyBatch([]Leaf{{Index: p.Index, Digest: leaf}}, p.BatchProof, root)
}
