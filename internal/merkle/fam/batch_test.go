package fam

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

func leavesOf(idx []uint64) []Leaf {
	out := make([]Leaf, len(idx))
	for i, j := range idx {
		out[i] = Leaf{Index: j, Digest: leafOf(j)}
	}
	return out
}

// truth reports whether every leaf is the digest appended at its index
// and root is the tree's root at size — the reference VerifyBatch is
// held to, computed without any proof.
func truth(t *testing.T, tr *Tree, leaves []Leaf, size uint64, root hashutil.Digest) bool {
	t.Helper()
	want, err := tr.RootAt(size)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if d, err := tr.Leaf(l.Index); err != nil || d != l.Digest {
			return false
		}
	}
	return root == want
}

// TestBatchDifferential: over seeded random index sets of every shape the
// ledger serves, VerifyBatch accepts exactly when every leaf is the
// tree's and the root is the tree's at the proven size — on honest
// leaves, on a batch with one foreign digest, and against the wrong root.
func TestBatchDifferential(t *testing.T) {
	const height, n = 4, 70 // epochs of 16 then 15 journals: 5 epochs, the last open
	tr := build(t, height, n)
	rng := rand.New(rand.NewSource(15))
	pick := func(k int, lo, hi uint64) []uint64 {
		out := make([]uint64, k)
		for i := range out {
			out[i] = lo + rng.Uint64()%(hi-lo)
		}
		return out
	}
	type shape struct {
		name string
		idx  func() []uint64
		size uint64
	}
	shapes := []shape{
		{"same sealed epoch", func() []uint64 { return pick(4, 16, 31) }, n},
		{"across a seal", func() []uint64 { return append(pick(3, 0, 16), pick(3, 16, 31)...) }, n},
		{"every epoch", func() []uint64 { return pick(9, 0, n) }, n},
		{"open epoch only", func() []uint64 { return pick(3, 61, n) }, n},
		{"historical size, follower checkpoint", func() []uint64 { return pick(5, 0, 40) }, 40},
		{"historical size on an epoch's first journal", func() []uint64 { return pick(4, 0, 17) }, 17},
		{"first epoch still open", func() []uint64 { return pick(4, 0, 11) }, 11},
		{"k = 1", func() []uint64 { return pick(1, 0, n) }, n},
		{"duplicate indices", func() []uint64 { i := pick(2, 0, n); return append(i, i...) }, n},
		{"whole tree", func() []uint64 {
			all := make([]uint64, n)
			for i := range all {
				all[i] = uint64(i)
			}
			rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
			return all
		}, n},
	}
	live, _ := tr.Root()
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for round := 0; round < 40; round++ {
				idx := sh.idx()
				root, err := tr.RootAt(sh.size)
				if err != nil {
					t.Fatal(err)
				}
				p, err := tr.ProveBatchAt(idx, sh.size)
				if err != nil {
					t.Fatalf("ProveBatchAt(%v, %d): %v", idx, sh.size, err)
				}
				honest := leavesOf(idx)
				foreign := leavesOf(idx)
				foreign[rng.Intn(len(foreign))].Digest = leafOf(9999)
				for _, c := range []struct {
					name   string
					leaves []Leaf
					root   hashutil.Digest
				}{
					{"honest", honest, root},
					{"foreign digest", foreign, root},
					{"wrong root", honest, hashutil.Node(root, live)},
				} {
					want := truth(t, tr, c.leaves, sh.size, c.root)
					err := VerifyBatch(c.leaves, p, c.root)
					if (err == nil) != want {
						t.Fatalf("%s, indices %v at size %d: batch err = %v, singles accept = %v", c.name, idx, sh.size, err, want)
					}
					if err != nil && !errors.Is(err, ErrBadProof) {
						t.Fatalf("%s: err = %v, want ErrBadProof", c.name, err)
					}
				}
				if sh.size < n {
					if err := VerifyBatch(honest, p, live); err == nil {
						t.Fatalf("proof at size %d verified against the live root", sh.size)
					}
				}
			}
		})
	}
}

// TestBatchMaxSize runs the differential once at the ledger's ceiling of
// 1024 journals per batch, on a tree deep enough to seal several epochs.
func TestBatchMaxSize(t *testing.T) {
	const n, k = 5000, 1024
	tr := build(t, 10, n)
	rng := rand.New(rand.NewSource(1024))
	idx := make([]uint64, k)
	for i := range idx {
		idx[i] = rng.Uint64() % n
	}
	root, _ := tr.Root()
	p, err := tr.ProveBatchAt(idx, n)
	if err != nil {
		t.Fatal(err)
	}
	leaves := leavesOf(idx)
	if err := VerifyBatch(leaves, p, root); err != nil {
		t.Fatal(err)
	}
	singles := 0
	for _, i := range idx {
		sp, _ := tr.Prove(i)
		singles += sp.PathLen()
	}
	if len(p.Nodes)*2 > singles {
		t.Fatalf("batch ships %d digests, the %d single proofs %d: expected under half", len(p.Nodes), k, singles)
	}
}

// TestBatchAllSubsets is the exhaustive small case: every historical
// size of a δ=2 tree (epochs of 4 then 3 journals) and every non-empty
// index subset.
func TestBatchAllSubsets(t *testing.T) {
	const n = 11
	tr := build(t, 2, n)
	for size := uint64(1); size <= n; size++ {
		root, err := tr.RootAt(size)
		if err != nil {
			t.Fatal(err)
		}
		for mask := uint64(1); mask < 1<<size; mask++ {
			var idx []uint64
			for i := uint64(0); i < size; i++ {
				if mask>>i&1 == 1 {
					idx = append(idx, i)
				}
			}
			p, err := tr.ProveBatchAt(idx, size)
			if err != nil {
				t.Fatalf("size %d, indices %v: %v", size, idx, err)
			}
			if err := VerifyBatch(leavesOf(idx), p, root); err != nil {
				t.Fatalf("size %d, indices %v: %v", size, idx, err)
			}
		}
	}
}

// TestBatchProofMutations: a proof verifies in exactly one form. Every
// damaged node list, every other Height and every other Size is
// ErrBadProof, as are leaves the proof does not cover.
func TestBatchProofMutations(t *testing.T) {
	const height, n = 3, 40
	tr := build(t, height, n)
	root, _ := tr.Root()
	idx := []uint64{2, 5, 9, 10, 30, 38}
	leaves := leavesOf(idx)
	good, err := tr.ProveBatchAt(idx, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBatch(leaves, good, root); err != nil {
		t.Fatal(err)
	}
	reject := func(name string, p *BatchProof, l []Leaf) {
		t.Helper()
		if err := VerifyBatch(l, p, root); !errors.Is(err, ErrBadProof) {
			t.Fatalf("%s: err = %v, want ErrBadProof", name, err)
		}
	}
	with := func(nodes []hashutil.Digest) *BatchProof {
		return &BatchProof{Height: good.Height, Size: good.Size, Nodes: nodes}
	}
	clone := func() []hashutil.Digest { return append([]hashutil.Digest(nil), good.Nodes...) }
	for i := range good.Nodes {
		reject("dropped node", with(append(clone()[:i], good.Nodes[i+1:]...)), leaves)
		reject("duplicated node", with(append(clone()[:i+1], good.Nodes[i:]...)), leaves)
		flip := clone()
		flip[i][0] ^= 1
		reject("flipped node", with(flip), leaves)
		if i+1 < len(good.Nodes) {
			swap := clone()
			swap[i], swap[i+1] = swap[i+1], swap[i]
			reject("swapped nodes", with(swap), leaves)
		}
	}
	reject("appended node", with(append(clone(), good.Nodes[0])), leaves)
	reject("no nodes", with(nil), leaves)
	for h := 0; h < 256; h++ {
		if uint8(h) != good.Height {
			reject("other height", &BatchProof{Height: uint8(h), Size: good.Size, Nodes: good.Nodes}, leaves)
		}
	}
	// Size is bound by the fold only as far as it moves the walk: growing
	// the open epoch from 5 leaves to 6 turns its last frontier entry from
	// a leaf into a two-leaf subtree at the same place in the bag, which no
	// hash tells apart. The ledger pins Size to the signed journal count.
	for _, s := range []uint64{0, 1, n - 1, n + 2, 1 << 40, ^uint64(0)} {
		reject("other size", &BatchProof{Height: good.Height, Size: s, Nodes: good.Nodes}, leaves)
	}
	reject("missing leaf", good, leaves[1:])
	reject("extra leaf", good, append(leavesOf([]uint64{3}), leaves...))
	shifted := leavesOf(idx)
	shifted[0].Index++
	reject("leaf at the wrong index", good, shifted)
	clash := append(leavesOf(idx), Leaf{Index: idx[0], Digest: leafOf(77)})
	reject("two digests for one index", good, clash)
	reject("nil proof", nil, leaves)
	reject("no leaves", good, nil)

	// The one-epoch form must not state a height: with it the field
	// would have two verifying values.
	small := build(t, height, 6)
	sroot, _ := small.Root()
	sp, err := small.ProveBatchAt([]uint64{1, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Height != 0 {
		t.Fatalf("one-epoch proof states height %d", sp.Height)
	}
	if err := VerifyBatch(leavesOf([]uint64{1, 4}), sp, sroot); err != nil {
		t.Fatal(err)
	}
	for h := 1; h < 256; h++ {
		sp.Height = uint8(h)
		if err := VerifyBatch(leavesOf([]uint64{1, 4}), sp, sroot); !errors.Is(err, ErrBadProof) {
			t.Fatalf("one-epoch proof with height %d: err = %v", h, err)
		}
	}
}

func TestProveBatchAtErrors(t *testing.T) {
	tr := build(t, 3, 30)
	for name, c := range map[string]struct {
		idx  []uint64
		size uint64
	}{
		"empty":            {nil, 30},
		"size zero":        {[]uint64{0}, 0},
		"size beyond tree": {[]uint64{0}, 31},
		"index at size":    {[]uint64{1, 20}, 20},
	} {
		if _, err := tr.ProveBatchAt(c.idx, c.size); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
	tr.PruneEpochs(1)
	if _, err := tr.ProveBatchAt([]uint64{3, 20}, 30); !errors.Is(err, ErrPruned) {
		t.Fatalf("pruned epoch: err = %v", err)
	}
	if _, err := tr.ProveBatchAt([]uint64{9, 20}, 30); err != nil {
		t.Fatalf("retained epochs after a prune: %v", err)
	}
}

func TestBatchProofCodec(t *testing.T) {
	tr := build(t, 3, 40)
	p, err := tr.ProveBatchAt([]uint64{1, 12, 33}, 40)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(256)
	p.Encode(w)
	enc := w.Bytes()
	r := wire.NewReader(enc)
	got, err := DecodeBatchProof(r)
	if err != nil || r.Finish() != nil {
		t.Fatalf("decode: %v / %v", err, r.Finish())
	}
	w2 := wire.NewWriter(256)
	got.Encode(w2)
	if string(w2.Bytes()) != string(enc) {
		t.Fatal("re-encoded bytes differ")
	}
	for i := 0; i < len(enc); i++ {
		r := wire.NewReader(enc[:i])
		if _, err := DecodeBatchProof(r); err == nil && r.Finish() == nil {
			t.Fatalf("%d/%d-byte prefix decoded", i, len(enc))
		}
	}
}

// TestDecodeBatchProofHostileCount: a node count the input cannot back
// is refused before anything is sized from it.
func TestDecodeBatchProofHostileCount(t *testing.T) {
	for _, count := range []uint64{1 << 20, 1 << 40, ^uint64(0) >> 1} {
		w := wire.NewWriter(64)
		w.Uint8(15)
		w.Uvarint(40000)
		w.Uvarint(count)
		w.Digest(leafOf(0)) // one node where `count` are promised
		enc := w.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatchProof(wire.NewReader(enc))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count %d over a %d-byte input decoded", count, len(enc))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Fatalf("count %d: decoder allocated %d bytes before refusing", count, grew)
		}
	}
}

// TestVerifyOneAllocatesNothing: a batch of one — every single existence
// proof — is verified without copying, sorting or allocating.
func TestVerifyOneAllocatesNothing(t *testing.T) {
	tr := build(t, 4, 70)
	root, _ := tr.Root()
	p, err := tr.Prove(3)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []Leaf{{Index: 3, Digest: leafOf(3)}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := VerifyBatch(leaves, p.BatchProof, root); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("VerifyBatch of one leaf: %.0f allocs, want 0", allocs)
	}
}
