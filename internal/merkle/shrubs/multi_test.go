package shrubs

import (
	"errors"
	"testing"

	"ledgerdb/internal/hashutil"
)

// subset expands a bitmask over [0, n) into ascending positions and the
// leaves stored there.
func subset(tr *Tree, mask uint64) (pos []uint64, leaves []hashutil.Digest) {
	for i := uint64(0); mask>>i != 0; i++ {
		if mask>>i&1 == 1 {
			d, _ := tr.Leaf(i)
			pos, leaves = append(pos, i), append(leaves, d)
		}
	}
	return pos, leaves
}

// TestMultiProofAllSubsets: for every historical size of a small tree and
// every non-empty leaf subset, the multi-leaf proof folds to the
// commitment of that size with every node consumed, ships no more nodes
// than the single-leaf proofs it replaces, and a leaf it did not cover
// cannot be passed off in a covered leaf's place.
func TestMultiProofAllSubsets(t *testing.T) {
	const max = 11
	tr := build(max)
	for n := uint64(1); n <= max; n++ {
		com, err := tr.RootAt(n)
		if err != nil {
			t.Fatal(err)
		}
		for mask := uint64(1); mask < 1<<n; mask++ {
			pos, leaves := subset(tr, mask)
			nodes, err := tr.MultiProofAt(n, pos, nil)
			if err != nil {
				t.Fatalf("n=%d mask=%b: %v", n, mask, err)
			}
			got, rest, err := FoldMulti(n, pos, leaves, nodes)
			if err != nil || got != com || len(rest) != 0 {
				t.Fatalf("n=%d mask=%b: fold = %s (%d nodes left, err %v), want %s", n, mask, got.Short(), len(rest), err, com.Short())
			}
			singles := 0
			for _, i := range pos {
				p, err := tr.ProveAt(i, n)
				if err != nil {
					t.Fatal(err)
				}
				singles += len(p.Siblings) + len(p.Frontier) - 1
			}
			if len(nodes) > singles {
				t.Fatalf("n=%d mask=%b: %d nodes, the single proofs ship %d", n, mask, len(nodes), singles)
			}
			bad := append([]hashutil.Digest(nil), leaves...)
			bad[len(bad)-1] = leafOf(1000)
			if got, _, err := FoldMulti(n, pos, bad, nodes); err == nil && got == com {
				t.Fatalf("n=%d mask=%b: foreign leaf folded to the commitment", n, mask)
			}
		}
	}
}

// TestMultiProofMatchesRangeCells: on a contiguous range the walk is the
// clue range proof's walk, so both must name the same cells in the same
// order (range.go ships them positioned, this file bare).
func TestMultiProofMatchesRangeCells(t *testing.T) {
	for _, n := range []uint64{1, 5, 8, 13, 21} {
		tr := build(n)
		for a := uint64(0); a < n; a++ {
			for b := a + 1; b <= n; b++ {
				cells, err := tr.RangeProofCells(n, a, b)
				if err != nil {
					t.Fatal(err)
				}
				var pos []uint64
				for i := a; i < b; i++ {
					pos = append(pos, i)
				}
				nodes, err := tr.MultiProofAt(n, pos, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(nodes) != len(cells) {
					t.Fatalf("n=%d [%d,%d): %d nodes, %d range cells", n, a, b, len(nodes), len(cells))
				}
				for i := range nodes {
					if nodes[i] != cells[i].Digest {
						t.Fatalf("n=%d [%d,%d): node %d is not range cell %s", n, a, b, i, cells[i].Pos)
					}
				}
			}
		}
	}
}

// TestFoldMultiNodeListMutations: every way of damaging the node list —
// dropping, repeating, swapping, appending, altering a node — either
// fails outright, leaves nodes unconsumed, or misses the commitment.
func TestFoldMultiNodeListMutations(t *testing.T) {
	const n = 21
	tr := build(n)
	com, _ := tr.Root()
	pos, leaves := subset(tr, 1<<2|1<<3|1<<9|1<<17|1<<20)
	nodes, err := tr.MultiProofAt(n, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 4 {
		t.Fatalf("fixture ships only %d nodes", len(nodes))
	}
	accepts := func(mut []hashutil.Digest) bool {
		got, rest, err := FoldMulti(n, pos, leaves, mut)
		return err == nil && len(rest) == 0 && got == com
	}
	if !accepts(nodes) {
		t.Fatal("untouched proof rejected")
	}
	clone := func() []hashutil.Digest { return append([]hashutil.Digest(nil), nodes...) }
	for i := range nodes {
		drop := append(clone()[:i], nodes[i+1:]...)
		dup := append(clone()[:i+1], nodes[i:]...)
		flip := clone()
		flip[i][7] ^= 0x40
		for name, mut := range map[string][]hashutil.Digest{"drop": drop, "duplicate": dup, "flip": flip} {
			if accepts(mut) {
				t.Fatalf("%s of node %d accepted", name, i)
			}
		}
		if i+1 < len(nodes) {
			swap := clone()
			swap[i], swap[i+1] = swap[i+1], swap[i]
			if accepts(swap) {
				t.Fatalf("swap of nodes %d,%d accepted", i, i+1)
			}
		}
	}
	if accepts(append(clone(), nodes[0])) {
		t.Fatal("appended node accepted")
	}
	if _, _, err := FoldMulti(n, pos, leaves, nodes[:len(nodes)-1]); !errors.Is(err, ErrBadProof) {
		t.Fatalf("short node list: err = %v", err)
	}
}

func TestMultiProofRejectsBadPositions(t *testing.T) {
	tr := build(8)
	for name, pos := range map[string][]uint64{
		"empty":      nil,
		"descending": {3, 2},
		"repeated":   {2, 2},
		"beyond":     {2, 8},
	} {
		if _, err := tr.MultiProofAt(8, pos, nil); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%s: prover err = %v", name, err)
		}
		leaves := make([]hashutil.Digest, len(pos))
		if _, _, err := FoldMulti(8, pos, leaves, nil); !errors.Is(err, ErrBadProof) {
			t.Fatalf("%s: verifier err = %v", name, err)
		}
	}
	if _, err := tr.MultiProofAt(9, []uint64{0}, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("size beyond tree: err = %v", err)
	}
	if _, _, err := FoldMulti(8, []uint64{0, 1}, make([]hashutil.Digest, 1), nil); !errors.Is(err, ErrBadProof) {
		t.Fatalf("leaf/position count mismatch: err = %v", err)
	}
}
