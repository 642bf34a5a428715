package cmtree

import (
	"fmt"
	"math/rand"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

// TestInsertBranchHashes pins the CM-Tree1 cost of an append to a known
// clue on the benchmark's 1 000-clue population: exactly four binary
// hashes per branch on the clue's path (the rewritten levels of each
// branch), never a whole branch's fifteen.
func TestInsertBranchHashes(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 999)
	jsn := uint64(0)
	for i := 0; i < 1000; i++ {
		tr.Insert(fmt.Sprintf("c%04d", i), jsn, digOf("c", jsn))
		jsn++
	}
	var hashes, branches uint64
	for i := 0; i < 5000; i++ {
		c := fmt.Sprintf("c%04d", zipf.Uint64())
		before := tr.trie.BranchHashes()
		tr.Insert(c, jsn, digOf(c, jsn))
		jsn++
		p, err := tr.trie.Prove([]byte(c))
		if err != nil {
			t.Fatal(err)
		}
		var n uint64
		for _, s := range p.Nodes {
			if s[0]&0x80 == 0 {
				n++
			}
		}
		got := tr.trie.BranchHashes() - before
		if got != 4*n {
			t.Fatalf("insert %d under %s: %d branch hashes for %d branches on its path", i, c, got, n)
		}
		hashes += got
		branches += n
	}
	t.Logf("cmtree.Insert on 1 000 clues: %.2f branches, %.2f branch hashes per insert", float64(branches)/5000, float64(hashes)/5000)
}

// TestClueProofPathMutations sweeps the CM-Tree1 path inside an encoded
// clue proof: every byte flipped, the proof cut at every byte of the
// path, and a byte inserted at every position of it — each mutant is
// refused by decode or by VerifyClue.
func TestClueProofPathMutations(t *testing.T) {
	tr := clueProofTree(1000)
	snap := snapshotClueNow(tr, "t")
	root := snap.RootHash()
	p, err := snap.ProveClue("t", 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	digests := lineage("t", 64)[10:30]
	w := wire.NewWriter(1024)
	p.Encode(w)
	enc := w.Bytes()
	pw := wire.NewWriter(512)
	p.MPT.Encode(pw)
	from := len(enc) - pw.Len() // the path is the proof's tail
	check := func(b []byte) error {
		r := wire.NewReader(b)
		got, err := DecodeClueProof(r)
		if err != nil {
			return err
		}
		if err := r.Finish(); err != nil {
			return err
		}
		return VerifyClue(root, got, digests)
	}
	if err := check(enc); err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(enc))
	for i := from; i < len(enc); i++ {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			copy(mut, enc)
			mut[i] ^= mask
			if check(mut) == nil {
				t.Fatalf("path byte %d ^ %#02x accepted", i-from, mask)
			}
		}
		if check(enc[:i]) == nil {
			t.Fatalf("proof cut at path byte %d accepted", i-from)
		}
	}
	for i := from; i <= len(enc); i++ {
		for _, b := range []byte{0x00, 0x01, 0x81, 0xFF} {
			if check(append(append(append([]byte(nil), enc[:i]...), b), enc[i:]...)) == nil {
				t.Fatalf("byte %#02x inserted at path byte %d accepted", b, i-from)
			}
		}
	}
	// The same path and frontier under another clue's name.
	other := *p
	other.Clue = "c000042"
	if VerifyClue(root, &other, digests) == nil {
		t.Fatal("clue t's proof accepted for another clue")
	}
	if VerifyClue(hashutil.Leaf([]byte("other root")), p, digests) == nil {
		t.Fatal("proof accepted under another root")
	}
}
