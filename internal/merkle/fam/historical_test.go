package fam

import (
	"errors"
	"testing"
)

// TestRootAtMatchesReplay pins the meaning of a historical root: RootAt(s)
// on the full tree must equal the live Root() of a fresh tree grown to s.
func TestRootAtMatchesReplay(t *testing.T) {
	const n = 40
	tr := build(t, 3, n)
	for s := uint64(1); s <= n; s++ {
		shadow := build(t, 3, s)
		want, err := shadow.Root()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.RootAt(s)
		if err != nil {
			t.Fatalf("RootAt(%d): %v", s, err)
		}
		if got != want {
			t.Fatalf("RootAt(%d) = %s, want replay root %s", s, got.Short(), want.Short())
		}
	}
	if _, err := tr.RootAt(0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("RootAt(0) err = %v", err)
	}
	if _, err := tr.RootAt(n + 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("RootAt(%d) err = %v", n+1, err)
	}
}

// proveAt is the historical proof of journal i at size s: the batch of
// one at s.
func proveAt(tr *Tree, i, s uint64) (*Proof, error) {
	p, err := tr.ProveBatchAt([]uint64{i}, s)
	if err != nil {
		return nil, err
	}
	return &Proof{Index: i, BatchProof: p}, nil
}

// TestProveAtAllPairs checks every (index, size) pair across several epoch
// boundaries: the historical proof must verify against the historical root
// with the unchanged pure verifier, exactly like a live proof.
func TestProveAtAllPairs(t *testing.T) {
	const n = 40 // δ=3: epochs of 8 then 7 journals → 5+ epochs
	tr := build(t, 3, n)
	for s := uint64(1); s <= n; s++ {
		root, err := tr.RootAt(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < s; i++ {
			p, err := proveAt(tr, i, s)
			if err != nil {
				t.Fatalf("ProveAt(%d, %d): %v", i, s, err)
			}
			if err := Verify(leafOf(i), p, root); err != nil {
				t.Fatalf("Verify(%d at size %d): %v", i, s, err)
			}
			if s < n {
				// A historical proof must NOT verify against the live root
				// (unless the commitment happens to coincide, which these
				// distinct leaves rule out).
				live, _ := tr.Root()
				if err := Verify(leafOf(i), p, live); err == nil {
					t.Fatalf("proof at size %d verified against live root of size %d", s, n)
				}
			}
		}
	}
}

// TestProveAtLiveEqualsProve: at the live size the historical path must
// reduce to the ordinary cold proof.
func TestProveAtLiveEqualsProve(t *testing.T) {
	const n = 23
	tr := build(t, 3, n)
	root, err := tr.Root()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		p, err := proveAt(tr, i, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(leafOf(i), p, root); err != nil {
			t.Fatalf("ProveAt(%d, live) does not verify: %v", i, err)
		}
	}
}

func TestProveAtRejectsBadArgs(t *testing.T) {
	tr := build(t, 3, 10)
	if _, err := proveAt(tr, 0, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("size 0: %v", err)
	}
	if _, err := proveAt(tr, 0, 11); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("size beyond live: %v", err)
	}
	if _, err := proveAt(tr, 5, 5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("index at size: %v", err)
	}
}

// TestProveAtPrunedEpoch: once an epoch's cells are released, historical
// proofs that need it fail loudly with ErrPruned.
func TestProveAtPrunedEpoch(t *testing.T) {
	tr := build(t, 3, 30)
	if n := tr.PruneEpochs(1); n != 1 {
		t.Fatalf("pruned %d epochs", n)
	}
	if _, err := proveAt(tr, 2, 20); !errors.Is(err, ErrPruned) {
		t.Fatalf("proof in pruned epoch: %v", err)
	}
	if _, err := tr.RootAt(5); !errors.Is(err, ErrPruned) {
		t.Fatalf("root inside pruned epoch: %v", err)
	}
	// Journals in retained epochs still prove at sizes past the pruned one.
	if _, err := proveAt(tr, 12, 20); err != nil {
		t.Fatalf("proof in retained epoch: %v", err)
	}
}
