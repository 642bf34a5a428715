package fam

import (
	"errors"
	"testing"
)

func TestPruneEpochsReleasesStorage(t *testing.T) {
	tr := build(t, 3, 200)
	before := tr.CellCount()
	sealed := len(tr.SealedRoots())
	pruned := tr.PruneEpochs(sealed)
	if pruned != sealed {
		t.Fatalf("pruned %d of %d epochs", pruned, sealed)
	}
	after := tr.CellCount()
	if after >= before/4 {
		t.Fatalf("pruning released too little: %d -> %d cells", before, after)
	}
	// Idempotent.
	if tr.PruneEpochs(sealed) != 0 {
		t.Fatal("second prune reported work")
	}
}

func TestPrunedJournalsNotProvable(t *testing.T) {
	tr := build(t, 3, 100)
	tr.PruneEpochs(len(tr.SealedRoots()))
	if _, err := tr.Prove(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("err = %v, want ErrPruned", err)
	}
	if _, err := tr.ProveBatchAt([]uint64{1}, tr.EpochEnd(1)); !errors.Is(err, ErrPruned) {
		t.Fatalf("learned-root proof: err = %v, want ErrPruned", err)
	}
}

func TestPruneKeepsLaterJournalsProvable(t *testing.T) {
	tr := build(t, 3, 100)
	tr.PruneEpochs(len(tr.SealedRoots()))
	root, err := tr.Root()
	if err != nil {
		t.Fatal(err)
	}
	// Journals in the open epoch still prove and verify.
	idx := tr.Size() - 1
	p, err := tr.Prove(idx)
	if err != nil {
		t.Fatalf("post-prune Prove(%d): %v", idx, err)
	}
	if err := Verify(leafOf(idx), p, root); err != nil {
		t.Fatal(err)
	}
	// Appends continue and seal new epochs normally.
	for i := 0; i < 50; i++ {
		tr.Append(leafOf(1000 + uint64(i)))
	}
	root2, _ := tr.Root()
	p2, err := tr.Prove(tr.Size() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(leafOf(1000+49), p2, root2); err != nil {
		t.Fatal(err)
	}
}

func TestPruneBelowAlignsToEpochs(t *testing.T) {
	tr := build(t, 3, 100) // epoch 0: journals 0-7; epoch k: 7 each
	// Pruning below journal 20 (inside epoch 2) must drop epochs 0 and 1
	// and keep epoch 2.
	if n := tr.PruneBelow(20); n != 2 {
		t.Fatalf("pruned %d epochs, want 2", n)
	}
	if _, err := tr.Prove(3); !errors.Is(err, ErrPruned) { // epoch 0
		t.Fatalf("err = %v", err)
	}
	if _, err := tr.Prove(10); !errors.Is(err, ErrPruned) { // epoch 1
		t.Fatalf("err = %v", err)
	}
	root, _ := tr.Root()
	p, err := tr.Prove(16) // epoch 2: shared with live journals, retained
	if err != nil {
		t.Fatalf("epoch sharing the boundary was pruned: %v", err)
	}
	if err := Verify(leafOf(16), p, root); err != nil {
		t.Fatal(err)
	}
	// PruneBelow(0) and a second identical call are no-ops.
	if tr.PruneBelow(0) != 0 || tr.PruneBelow(20) != 0 {
		t.Fatal("idempotence broken")
	}
	// Pruning past the live edge clamps to all sealed epochs.
	tr2 := build(t, 3, 100)
	if n := tr2.PruneBelow(1 << 60); n != len(tr2.roots) {
		t.Fatalf("clamp pruned %d, want %d", n, len(tr2.roots))
	}
}

func TestPruneBeyondSealedClamps(t *testing.T) {
	tr := build(t, 3, 20)
	n := tr.PruneEpochs(999)
	if n != len(tr.roots) {
		t.Fatalf("pruned %d, want %d", n, len(tr.roots))
	}
}
