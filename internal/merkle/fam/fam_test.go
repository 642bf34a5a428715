package fam

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

func leafOf(i uint64) hashutil.Digest {
	return hashutil.Leaf([]byte(fmt.Sprintf("journal-%d", i)))
}

func build(t testing.TB, height uint8, n uint64) *Tree {
	tr, err := New(height)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if got := tr.Append(leafOf(i)); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
	}
	return tr
}

func TestNewRejectsBadHeight(t *testing.T) {
	for _, h := range []uint8{0, 31, 200} {
		if _, err := New(h); !errors.Is(err, ErrBadHeight) {
			t.Fatalf("height %d: err = %v", h, err)
		}
	}
}

func TestEpochBoundaries(t *testing.T) {
	// δ=3: epoch 0 holds 8 journals, later epochs 7 each (slot 0 is the
	// merged leaf).
	tr := build(t, 3, 8)
	if tr.Epochs() != 1 {
		t.Fatalf("epochs after 8 = %d, want 1 (seal is lazy)", tr.Epochs())
	}
	tr.Append(leafOf(8))
	if tr.Epochs() != 2 {
		t.Fatalf("epochs after 9 = %d, want 2", tr.Epochs())
	}
	if got := tr.JournalCapacity(1); got != 8 {
		t.Fatalf("JournalCapacity(1) = %d", got)
	}
	if got := tr.JournalCapacity(3); got != 8+7+7 {
		t.Fatalf("JournalCapacity(3) = %d", got)
	}
}

func TestLocate(t *testing.T) {
	tr := build(t, 3, 30)
	cases := []struct {
		index uint64
		epoch int
		leaf  uint64
	}{
		{0, 0, 0}, {7, 0, 7}, {8, 1, 1}, {14, 1, 7},
		{15, 2, 1}, {21, 2, 7}, {22, 3, 1}, {28, 3, 7}, {29, 4, 1},
	}
	for _, c := range cases {
		e, l, err := tr.locate(c.index)
		if err != nil {
			t.Fatalf("locate(%d): %v", c.index, err)
		}
		if e != c.epoch || l != c.leaf {
			t.Fatalf("locate(%d) = (%d,%d), want (%d,%d)", c.index, e, l, c.epoch, c.leaf)
		}
	}
	if _, _, err := tr.locate(30); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestColdProveVerifyAcrossEpochs(t *testing.T) {
	for _, height := range []uint8{2, 3, 5} {
		n := uint64(100)
		tr := build(t, height, n)
		root, err := tr.Root()
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatalf("h=%d Prove(%d): %v", height, i, err)
			}
			if err := Verify(leafOf(i), p, root); err != nil {
				t.Fatalf("h=%d Verify(%d): %v", height, i, err)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	tr := build(t, 3, 40)
	root, _ := tr.Root()
	p, _ := tr.Prove(5)
	if err := Verify(leafOf(6), p, root); err == nil {
		t.Fatal("wrong leaf accepted")
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	tr := build(t, 3, 40)
	p, _ := tr.Prove(5)
	if err := Verify(leafOf(5), p, hashutil.Leaf([]byte("bogus"))); err == nil {
		t.Fatal("bogus root accepted")
	}
}

func TestVerifyRejectsSplicedHops(t *testing.T) {
	// δ=2: epochs of 4 then 3 journals. Journal 1's walk takes two nodes
	// in epoch 0 and two in each full later epoch (its merged leaf's
	// path) before the open epoch's.
	tr := build(t, 2, 50)
	root, _ := tr.Root()
	p, _ := tr.Prove(1)
	if len(p.Nodes) < 8 {
		t.Fatalf("expected several epochs walked, got %d nodes", len(p.Nodes))
	}
	with := func(nodes []hashutil.Digest) *Proof {
		return &Proof{Index: 1, BatchProof: &BatchProof{Height: p.Height, Size: p.Size, Nodes: nodes}}
	}
	clone := func() []hashutil.Digest { return append([]hashutil.Digest(nil), p.Nodes...) }
	// Dropping an epoch's segment must break the chain.
	if err := Verify(leafOf(1), with(append(clone()[:2], p.Nodes[4:]...)), root); err == nil {
		t.Fatal("dropped epoch accepted")
	}
	// Reordering two epochs' segments must break the chain.
	swapped := clone()
	copy(swapped[2:4], p.Nodes[4:6])
	copy(swapped[4:6], p.Nodes[2:4])
	if err := Verify(leafOf(1), with(swapped), root); err == nil {
		t.Fatal("reordered epochs accepted")
	}
	// Tampering a node of a later epoch must fail.
	tampered := clone()
	tampered[3] = hashutil.Leaf([]byte("evil"))
	if err := Verify(leafOf(1), with(tampered), root); err == nil {
		t.Fatal("tampered later-epoch node accepted")
	}
}

func TestRootCommitsToHistory(t *testing.T) {
	// Two trees that diverge in one early journal must have different
	// roots forever after (the merged-leaf chain propagates the change).
	a := build(t, 2, 30)
	b, _ := New(2)
	for i := uint64(0); i < 30; i++ {
		if i == 3 {
			b.Append(hashutil.Leaf([]byte("tampered")))
		} else {
			b.Append(leafOf(i))
		}
	}
	ra, _ := a.Root()
	rb, _ := b.Root()
	if ra == rb {
		t.Fatal("tampered history produced the same root")
	}
}

// learned is the proof of journal i for a verifier that learned the root
// of its sealed epoch: the batch of one at the epoch's end, and that root.
func learned(t testing.TB, tr *Tree, i uint64) (*BatchProof, hashutil.Digest) {
	t.Helper()
	p, err := tr.ProveBatchAt([]uint64{i}, tr.EpochEnd(i))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := p.SealedEpoch()
	if !ok || int(e) >= len(tr.SealedRoots()) {
		t.Fatalf("journal %d: proof at size %d ends no sealed epoch", i, p.Size)
	}
	return p, tr.SealedRoots()[e]
}

func TestAnchoredProofShortAndValid(t *testing.T) {
	tr := build(t, 3, 100)
	if len(tr.SealedRoots()) == 0 {
		t.Fatal("expected sealed epochs")
	}
	root, _ := tr.Root()

	// A journal inside a sealed epoch: its in-epoch path alone, checked
	// against the learned root.
	p, epochRoot := learned(t, tr, 3)
	if len(p.Nodes) != int(tr.Height()) {
		t.Fatalf("learned-root proof ships %d nodes, want the %d of its in-epoch path", len(p.Nodes), tr.Height())
	}
	if err := VerifyBatch([]Leaf{{Index: 3, Digest: leafOf(3)}}, p, epochRoot); err != nil {
		t.Fatalf("learned-root verify: %v", err)
	}

	// A journal of the open epoch still verifies through the chain.
	idx := tr.Size() - 1
	p2, err := tr.Prove(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(leafOf(idx), p2, root); err != nil {
		t.Fatalf("open-epoch verify: %v", err)
	}
}

func TestAnchoredProofMuchShorterThanCold(t *testing.T) {
	tr := build(t, 2, 200) // many epochs
	cold, _ := tr.Prove(1)
	hot, _ := learned(t, tr, 1)
	if len(hot.Nodes) >= cold.PathLen() {
		t.Fatalf("learned-root path %d not shorter than cold %d", len(hot.Nodes), cold.PathLen())
	}
}

func TestAnchoredVerifyRejectsForgedEpochRoot(t *testing.T) {
	tr := build(t, 3, 100)
	p, _ := learned(t, tr, 3)
	if err := VerifyBatch([]Leaf{{Index: 3, Digest: leafOf(3)}}, p, hashutil.Leaf([]byte("evil"))); err == nil {
		t.Fatal("forged epoch root accepted")
	}
}

func TestProofWireRoundTrip(t *testing.T) {
	tr := build(t, 2, 60)
	root, _ := tr.Root()
	p, _ := tr.Prove(7)
	w := wire.NewWriter(0)
	p.Encode(w)
	got, err := DecodeBatchProof(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(leafOf(7), &Proof{Index: 7, BatchProof: got}, root); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
}

func TestQuickProveVerifyManyShapes(t *testing.T) {
	f := func(hRaw, nRaw, iRaw uint16) bool {
		h := uint8(hRaw%5) + 1
		n := uint64(nRaw%300) + 1
		i := uint64(iRaw) % n
		tr, _ := New(h)
		for j := uint64(0); j < n; j++ {
			tr.Append(leafOf(j))
		}
		root, err := tr.Root()
		if err != nil {
			return false
		}
		p, err := tr.Prove(i)
		if err != nil {
			return false
		}
		return Verify(leafOf(i), p, root) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAnchoredAgreesWithCold(t *testing.T) {
	f := func(nRaw, iRaw uint16) bool {
		n := uint64(nRaw%300) + 1
		i := uint64(iRaw) % n
		tr, _ := New(3)
		for j := uint64(0); j < n; j++ {
			tr.Append(leafOf(j))
		}
		root, _ := tr.Root()
		cold, err := tr.Prove(i)
		if err != nil || Verify(leafOf(i), cold, root) != nil {
			return false
		}
		if tr.EpochEnd(i) >= n {
			return true // i's epoch is not sealed: the cold proof is the only one
		}
		p, epochRoot := learned(t, tr, i)
		return VerifyBatch([]Leaf{{Index: i, Digest: leafOf(i)}}, p, epochRoot) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPathLenBoundedWithAnchor(t *testing.T) {
	// The fam-aoa property: a learned-root path is bounded by O(δ)
	// regardless of ledger size.
	const height = 4
	var maxLen int
	for _, n := range []uint64{50, 500, 5000} {
		tr := build(t, height, n)
		p, _ := learned(t, tr, 1) // deep historical journal
		if maxLen == 0 {
			maxLen = len(p.Nodes)
		}
		if len(p.Nodes) != maxLen {
			t.Fatalf("learned-root path length changed with ledger size: %d vs %d", len(p.Nodes), maxLen)
		}
	}
}

// TestLeafReturnsAppendedDigest: Leaf gives back the digest appended at
// each journal index, across the merged-leaf shift of later epochs, and
// refuses an index past the tree and one in a pruned epoch.
func TestLeafReturnsAppendedDigest(t *testing.T) {
	tr := MustNew(3)
	const n = 40 // epochs of 8, 7, 7, 7, 7 journals and an open one
	for i := uint64(0); i < n; i++ {
		tr.Append(leafOf(i))
	}
	for i := uint64(0); i < n; i++ {
		if got, err := tr.Leaf(i); err != nil || got != leafOf(i) {
			t.Fatalf("Leaf(%d) = %s, %v; want %s", i, got.Short(), err, leafOf(i).Short())
		}
	}
	if _, err := tr.Leaf(n); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Leaf past the tree: %v", err)
	}
	tr.PruneEpochs(1)
	if _, err := tr.Leaf(3); !errors.Is(err, ErrPruned) {
		t.Fatalf("Leaf in a pruned epoch: %v", err)
	}
	if got, err := tr.Leaf(8); err != nil || got != leafOf(8) {
		t.Fatalf("Leaf(8) after pruning epoch 0: %v", err)
	}
}
