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
	tr := build(t, 2, 50)
	root, _ := tr.Root()
	p, _ := tr.Prove(1)
	if len(p.Hops) < 2 {
		t.Fatalf("expected multiple hops, got %d", len(p.Hops))
	}
	// Dropping a hop must break the chain.
	bad := *p
	bad.Hops = p.Hops[1:]
	if err := Verify(leafOf(1), &bad, root); err == nil {
		t.Fatal("dropped hop accepted")
	}
	// Reordering hops must break the chain.
	bad2 := *p
	bad2.Hops = append([]Hop(nil), p.Hops...)
	bad2.Hops[0], bad2.Hops[1] = bad2.Hops[1], bad2.Hops[0]
	if err := Verify(leafOf(1), &bad2, root); err == nil {
		t.Fatal("reordered hops accepted")
	}
	// Tampering a hop commitment must fail.
	bad3 := *p
	bad3.Hops = append([]Hop(nil), p.Hops...)
	bad3.Hops[0].Commitment = hashutil.Leaf([]byte("evil"))
	if err := Verify(leafOf(1), &bad3, root); err == nil {
		t.Fatal("tampered hop commitment accepted")
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

func TestAnchoredProofShortAndValid(t *testing.T) {
	tr := build(t, 3, 100)
	anchor := tr.AnchorNow()
	if anchor.Epochs == 0 {
		t.Fatal("expected sealed epochs")
	}
	root, _ := tr.Root()

	// A journal inside an anchored epoch: proof must carry no hops and
	// verify against the anchor alone.
	p, err := tr.ProveAnchored(3, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 0 {
		t.Fatalf("anchored proof has %d hops, want 0", len(p.Hops))
	}
	if err := VerifyAnchored(leafOf(3), p, anchor, root); err != nil {
		t.Fatalf("anchored verify: %v", err)
	}

	// A journal after the anchor still verifies through the chain.
	idx := tr.Size() - 1
	p2, err := tr.ProveAnchored(idx, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAnchored(leafOf(idx), p2, anchor, root); err != nil {
		t.Fatalf("post-anchor verify: %v", err)
	}
}

func TestAnchoredProofMuchShorterThanCold(t *testing.T) {
	tr := build(t, 2, 200) // many epochs
	anchor := tr.AnchorNow()
	cold, _ := tr.Prove(1)
	hot, _ := tr.ProveAnchored(1, anchor)
	if hot.PathLen() >= cold.PathLen() {
		t.Fatalf("anchored path %d not shorter than cold %d", hot.PathLen(), cold.PathLen())
	}
}

func TestAnchoredVerifyRejectsForgedEpochRoot(t *testing.T) {
	tr := build(t, 3, 100)
	anchor := tr.AnchorNow()
	root, _ := tr.Root()
	p, _ := tr.ProveAnchored(3, anchor)
	forged := &Anchor{Size: anchor.Size, Epochs: anchor.Epochs, Roots: append([]hashutil.Digest(nil), anchor.Roots...)}
	forged.Roots[p.Epoch] = hashutil.Leaf([]byte("evil"))
	if err := VerifyAnchored(leafOf(3), p, forged, root); err == nil {
		t.Fatal("forged anchor root accepted")
	}
}

func TestProveAnchoredBadAnchor(t *testing.T) {
	tr := build(t, 3, 20)
	bad := &Anchor{Epochs: 99}
	if _, err := tr.ProveAnchored(1, bad); !errors.Is(err, ErrBadAnchor) {
		t.Fatalf("err = %v, want ErrBadAnchor", err)
	}
}

func TestNilAnchorFallsBackToCold(t *testing.T) {
	tr := build(t, 3, 40)
	root, _ := tr.Root()
	p, err := tr.ProveAnchored(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAnchored(leafOf(2), p, nil, root); err != nil {
		t.Fatal(err)
	}
}

func TestProofWireRoundTrip(t *testing.T) {
	tr := build(t, 2, 60)
	root, _ := tr.Root()
	p, _ := tr.Prove(7)
	w := wire.NewWriter(0)
	p.Encode(w)
	got, err := DecodeProof(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(leafOf(7), got, root); err != nil {
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
		anchor := tr.AnchorNow()
		root, _ := tr.Root()
		p, err := tr.ProveAnchored(i, anchor)
		if err != nil {
			return false
		}
		return VerifyAnchored(leafOf(i), p, anchor, root) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPathLenBoundedWithAnchor(t *testing.T) {
	// The fam-aoa property: anchored path length is bounded by O(δ)
	// regardless of ledger size.
	const height = 4
	var maxLen int
	for _, n := range []uint64{50, 500, 5000} {
		tr := build(t, height, n)
		anchor := tr.AnchorNow()
		p, err := tr.ProveAnchored(1, anchor) // deep historical journal
		if err != nil {
			t.Fatal(err)
		}
		if maxLen == 0 {
			maxLen = p.PathLen()
		}
		if p.PathLen() != maxLen {
			t.Fatalf("anchored path length changed with ledger size: %d vs %d", p.PathLen(), maxLen)
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
