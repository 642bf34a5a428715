package shrubs

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"ledgerdb/internal/hashutil"
)

func leafOf(i uint64) hashutil.Digest {
	return hashutil.Leaf([]byte(fmt.Sprintf("cell-%d", i)))
}

func build(n uint64) *Tree {
	t := New()
	for i := uint64(0); i < n; i++ {
		t.Append(leafOf(i))
	}
	return t
}

func TestFrontierShapeMatchesBinaryCounter(t *testing.T) {
	// The frontier must have one entry per set bit of the size, ordered
	// from largest subtree to smallest — the paper's node-set proof.
	tr := New()
	for n := uint64(1); n <= 64; n++ {
		tr.Append(leafOf(n - 1))
		f := tr.Frontier()
		if len(f) != bits.OnesCount64(n) {
			t.Fatalf("size %d: frontier has %d entries, want %d", n, len(f), bits.OnesCount64(n))
		}
	}
}

func TestPaperFigure3aProofSets(t *testing.T) {
	// Figure 3(a): with 5 leaves the proof set is {root-of-4, leaf5};
	// with 6 leaves {root-of-4, parent-of(5,6)}; with 7
	// {root-of-4, parent-of(5,6), leaf7}; with 8 a single root.
	tr := build(5)
	f := tr.Frontier()
	if len(f) != 2 {
		t.Fatalf("5 leaves: frontier %d entries", len(f))
	}
	if f[1] != leafOf(4) {
		t.Fatal("5 leaves: second frontier entry should be the raw 5th leaf")
	}
	tr.Append(leafOf(5))
	f = tr.Frontier()
	if len(f) != 2 {
		t.Fatalf("6 leaves: frontier %d entries", len(f))
	}
	if f[1] != hashutil.Node(leafOf(4), leafOf(5)) {
		t.Fatal("6 leaves: second entry should be parent of leaves 5,6")
	}
	tr.Append(leafOf(6))
	if len(tr.Frontier()) != 3 {
		t.Fatal("7 leaves: want 3 frontier entries")
	}
	tr.Append(leafOf(7))
	f = tr.Frontier()
	if len(f) != 1 {
		t.Fatalf("8 leaves: want single root, got %d entries", len(f))
	}
	if !tr.IsFull() {
		t.Fatal("8 leaves: IsFull = false")
	}
}

func TestRootMatchesAccumulatorForFullTrees(t *testing.T) {
	// For power-of-two sizes the bagged frontier is the plain Merkle root.
	for _, n := range []uint64{1, 2, 4, 8, 16, 64} {
		tr := build(n)
		root, err := tr.Root()
		if err != nil {
			t.Fatal(err)
		}
		want := naiveRoot(0, n)
		if root != want {
			t.Fatalf("n=%d root mismatch", n)
		}
	}
}

func naiveRoot(begin, end uint64) hashutil.Digest {
	if end-begin == 1 {
		return leafOf(begin)
	}
	mid := begin + (end-begin)/2
	return hashutil.Node(naiveRoot(begin, mid), naiveRoot(mid, end))
}

func TestEmptyRoot(t *testing.T) {
	if _, err := New().Root(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// proveOne is the proof of a single leaf: the walk over a set of one.
func proveOne(t testing.TB, tr *Tree, n, i uint64) []hashutil.Digest {
	t.Helper()
	nodes, err := tr.MultiProofAt(n, []uint64{i}, nil)
	if err != nil {
		t.Fatalf("n=%d prove %d: %v", n, i, err)
	}
	return nodes
}

// foldsTo reports whether leaf at i folds through nodes, all consumed,
// to com.
func foldsTo(n, i uint64, leaf hashutil.Digest, nodes []hashutil.Digest, com hashutil.Digest) bool {
	got, rest, err := FoldMulti(n, []uint64{i}, []hashutil.Digest{leaf}, nodes)
	return err == nil && len(rest) == 0 && got == com
}

func TestProveVerifyAllIndicesManySizes(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 5, 6, 7, 8, 11, 16, 21, 32, 57, 64, 100} {
		tr := build(n)
		com, _ := tr.Root()
		for i := uint64(0); i < n; i++ {
			if !foldsTo(n, i, leafOf(i), proveOne(t, tr, n, i), com) {
				t.Fatalf("n=%d: leaf %d does not fold to the root", n, i)
			}
		}
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	tr := build(21)
	com, _ := tr.Root()
	nodes := proveOne(t, tr, 21, 9)

	if foldsTo(21, 9, leafOf(10), nodes, com) {
		t.Fatal("wrong leaf accepted")
	}
	if foldsTo(21, 10, leafOf(9), nodes, com) {
		t.Fatal("leaf at the wrong position accepted")
	}
	bad := append([]hashutil.Digest(nil), nodes...)
	bad[len(bad)-1] = hashutil.Leaf([]byte("evil"))
	if foldsTo(21, 9, leafOf(9), bad, com) {
		t.Fatal("tampered frontier node accepted")
	}
	if foldsTo(21, 9, leafOf(9), nodes[:len(nodes)-1], com) {
		t.Fatal("truncated node list accepted")
	}
	if foldsTo(20, 9, leafOf(9), nodes, com) {
		t.Fatal("other tree size accepted")
	}
	if foldsTo(21, 9, leafOf(9), nodes, hashutil.Leaf([]byte("other"))) {
		t.Fatal("wrong commitment accepted")
	}
}

func TestCellAddressing(t *testing.T) {
	tr := build(8)
	// Level 0 leaves.
	for i := uint64(0); i < 8; i++ {
		d, err := tr.Cell(Pos{0, i})
		if err != nil || d != leafOf(i) {
			t.Fatalf("Cell(L0[%d]) = %v, %v", i, d, err)
		}
	}
	// Level 1 parents.
	d, err := tr.Cell(Pos{1, 0})
	if err != nil || d != hashutil.Node(leafOf(0), leafOf(1)) {
		t.Fatalf("Cell(L1[0]): %v", err)
	}
	// Level 3 root.
	root, _ := tr.Root()
	d, err = tr.Cell(Pos{3, 0})
	if err != nil || d != root {
		t.Fatalf("Cell(L3[0]) = %s, root = %s, err %v", d.Short(), root.Short(), err)
	}
	if _, err := tr.Cell(Pos{0, 8}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestInteriorCellsComputedLazily(t *testing.T) {
	// With 5 leaves, the parent of (leaf4, leaf5) does not exist yet.
	tr := build(5)
	if _, err := tr.Cell(Pos{1, 2}); err == nil {
		t.Fatal("incomplete interior cell reported as existing")
	}
	tr.Append(leafOf(5))
	if _, err := tr.Cell(Pos{1, 2}); err != nil {
		t.Fatalf("completed interior cell missing: %v", err)
	}
}

func TestRecomputeFrontierMatches(t *testing.T) {
	for _, n := range []uint64{1, 3, 8, 13, 100} {
		tr := build(n)
		leaves := make([]hashutil.Digest, n)
		for i := uint64(0); i < n; i++ {
			leaves[i], _ = tr.Leaf(i)
		}
		got := RecomputeFrontier(leaves)
		want := tr.Frontier()
		if len(got) != len(want) {
			t.Fatalf("n=%d frontier length mismatch", n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d frontier[%d] mismatch", n, i)
			}
		}
	}
	if RecomputeFrontier(nil) != nil {
		t.Fatal("empty recompute should be nil")
	}
}

func TestFrontierEncodingRoundTrip(t *testing.T) {
	tr := build(13)
	f := tr.Frontier()
	got, err := DecodeFrontier(EncodeFrontier(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(f) {
		t.Fatal("length mismatch")
	}
	for i := range f {
		if got[i] != f[i] {
			t.Fatal("entry mismatch")
		}
	}
	if _, err := DecodeFrontier([]byte{0xFF}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestQuickProveVerify(t *testing.T) {
	f := func(nRaw, iRaw uint16) bool {
		n := uint64(nRaw%400) + 1
		i := uint64(iRaw) % n
		tr := build(n)
		com, _ := tr.Root()
		nodes, err := tr.MultiProofAt(n, []uint64{i}, nil)
		return err == nil && foldsTo(n, i, leafOf(i), nodes, com)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFrontierDeterministic(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := uint64(nRaw%300) + 1
		a, b := build(n), build(n)
		fa, fb := a.Frontier(), b.Frontier()
		if len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if fa[i] != fb[i] {
				return false
			}
		}
		ra, _ := a.Root()
		rb, _ := b.Root()
		return ra == rb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
