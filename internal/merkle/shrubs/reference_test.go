package shrubs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"ledgerdb/internal/hashutil"
)

// The reference: a Shrubs commitment computed straight from its
// definition. A width that is a power of two is a plain Merkle root;
// any other splits at the largest power of two below the width, which
// is exactly the frontier bagged right to left. Nothing here shares
// code with the tree, the walk or the fold.
func defRoot(leaves []hashutil.Digest) hashutil.Digest {
	w := len(leaves)
	if w == 1 {
		return leaves[0]
	}
	k := 1 << (bits.Len(uint(w-1)) - 1) // largest power of two below w
	return hashutil.Node(defRoot(leaves[:k]), defRoot(leaves[k:]))
}

// proves reports whether nodes, all consumed, fold the leaves at pos of
// an n-leaf tree to com.
func proves(n uint64, pos []uint64, leaves, nodes []hashutil.Digest, com hashutil.Digest) bool {
	got, rest, err := FoldMulti(n, pos, leaves, nodes)
	return err == nil && len(rest) == 0 && got == com
}

// mutations lists every damaged copy of a node list: one node missing,
// one repeated, two neighbours swapped, one surplus at the end.
func mutations[T any](list []T, surplus T) map[string][]T {
	out := make(map[string][]T)
	clone := func() []T { return append([]T(nil), list...) }
	for i := range list {
		out[fmt.Sprint("missing ", i)] = append(clone()[:i], list[i+1:]...)
		out[fmt.Sprint("repeated ", i)] = append(clone()[:i+1], list[i:]...)
		if i+1 < len(list) {
			sw := clone()
			sw[i], sw[i+1] = sw[i+1], sw[i]
			out[fmt.Sprint("reordered ", i)] = sw
		}
	}
	out["surplus"] = append(clone(), surplus)
	return out
}

// checkSet holds the walk and the fold to the reference for the leaves
// at pos of an n-leaf tree, and — when mutate — refuses every damaged
// node list.
func checkSet(t *testing.T, tr *Tree, n uint64, pos []uint64, mutate bool) {
	t.Helper()
	all := make([]hashutil.Digest, n)
	for i := range all {
		all[i], _ = tr.Leaf(uint64(i))
	}
	com := defRoot(all)
	leaves := make([]hashutil.Digest, len(pos))
	for i, p := range pos {
		leaves[i] = all[p]
	}
	nodes, err := tr.MultiProofAt(n, pos, nil)
	if err != nil {
		t.Fatalf("n=%d %v: %v", n, pos, err)
	}
	if !proves(n, pos, leaves, nodes, com) {
		t.Fatalf("n=%d %v: the fold misses the reference root", n, pos)
	}
	if !mutate {
		return
	}
	for name, m := range mutations(nodes, leafOf(999)) {
		if proves(n, pos, leaves, m, com) {
			t.Fatalf("n=%d %v: node list with %s node accepted", n, pos, name)
		}
	}
}

// checkRange holds the positioned range proof of [a, b) to the
// reference, and — when mutate — refuses every damaged cell list.
func checkRange(t *testing.T, tr *Tree, n, a, b uint64, mutate bool) {
	t.Helper()
	all := make([]hashutil.Digest, n)
	for i := range all {
		all[i], _ = tr.Leaf(uint64(i))
	}
	com := defRoot(all)
	cells, err := tr.RangeProofCells(n, a, b)
	if err != nil {
		t.Fatalf("n=%d [%d,%d): %v", n, a, b, err)
	}
	if err := VerifyRange(n, a, b, all[a:b], cells, com); err != nil {
		t.Fatalf("n=%d [%d,%d): %v", n, a, b, err)
	}
	if !mutate {
		return
	}
	for name, m := range mutations(cells, CellRef{Pos: Pos{Level: 0, Offset: a}, Digest: all[a]}) {
		if VerifyRange(n, a, b, all[a:b], m, com) == nil {
			t.Fatalf("n=%d [%d,%d): cell list with %s cell accepted", n, a, b, name)
		}
	}
}

// TestFoldMatchesDefinition: for every size up to 64 the tree's root is
// the reference root, and the one walk and fold agree with it on every
// single leaf, every range, every leaf set up to 12 leaves and random
// sets above; a node list with a missing, surplus, repeated or reordered
// node — positioned or bare — is refused.
func TestFoldMatchesDefinition(t *testing.T) {
	const max = 64
	tr := build(max)
	rng := rand.New(rand.NewSource(64))
	for n := uint64(1); n <= max; n++ {
		all := make([]hashutil.Digest, n)
		for i := range all {
			all[i] = leafOf(uint64(i))
		}
		if got, _ := tr.RootAt(n); got != defRoot(all) {
			t.Fatalf("n=%d: RootAt disagrees with the definition", n)
		}
		for i := uint64(0); i < n; i++ {
			checkSet(t, tr, n, []uint64{i}, true)
		}
		for a := uint64(0); a < n; a++ {
			for b := a + 1; b <= n; b++ {
				checkRange(t, tr, n, a, b, n <= 24 || rng.Intn(16) == 0)
			}
		}
		if n <= 12 {
			for mask := uint64(1); mask < 1<<n; mask++ {
				pos, _ := subset(tr, mask)
				checkSet(t, tr, n, pos, mask%7 == 0)
			}
			continue
		}
		for round := 0; round < 64; round++ {
			var pos []uint64
			for i := uint64(0); i < n; i++ {
				if rng.Intn(4) == 0 {
					pos = append(pos, i)
				}
			}
			if len(pos) == 0 {
				pos = []uint64{rng.Uint64() % n}
			}
			checkSet(t, tr, n, pos, round%8 == 0)
		}
	}
}
