package cmtree

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/mpt"
	"ledgerdb/internal/wire"
)

func digOf(clue string, v uint64) hashutil.Digest {
	return hashutil.Leaf([]byte(fmt.Sprintf("journal/%s/%d", clue, v)))
}

// seed inserts count journals under each of the given clues, with global
// jsn assignment interleaved round-robin (as a real ledger would).
func seed(t *Tree, clues []string, count int) {
	jsn := uint64(0)
	for v := 0; v < count; v++ {
		for _, c := range clues {
			t.Insert(c, jsn, digOf(c, uint64(v)))
			jsn++
		}
	}
}

// snapshotClueNow pins one clue at the tree's current version.
func snapshotClueNow(t *Tree, clue string) *Snapshot {
	return t.SnapshotClueAt(clue, t.Trie(), math.MaxUint64)
}

func lineage(clue string, n int) []hashutil.Digest {
	out := make([]hashutil.Digest, n)
	for i := range out {
		out[i] = digOf(clue, uint64(i))
	}
	return out
}

func TestInsertAndCount(t *testing.T) {
	tr := New()
	seed(tr, []string{"dci-001", "dci-002"}, 5)
	if tr.Count("dci-001") != 5 || tr.Count("dci-002") != 5 {
		t.Fatalf("counts = %d, %d", tr.Count("dci-001"), tr.Count("dci-002"))
	}
	if tr.Count("absent") != 0 {
		t.Fatal("absent clue has nonzero count")
	}
	if tr.Clues() != 2 {
		t.Fatalf("Clues = %d", tr.Clues())
	}
	jsns, err := tr.JSNs("dci-001")
	if err != nil {
		t.Fatal(err)
	}
	if len(jsns) != 5 || jsns[0] != 0 || jsns[1] != 2 {
		t.Fatalf("jsns = %v", jsns)
	}
	if _, err := tr.JSNs("absent"); !errors.Is(err, ErrUnknownClue) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerVerifyWholeClue(t *testing.T) {
	tr := New()
	seed(tr, []string{"a", "b", "c"}, 9)
	for _, c := range []string{"a", "b", "c"} {
		if err := tr.VerifyServer(c, lineage(c, 9)); err != nil {
			t.Fatalf("VerifyServer(%s): %v", c, err)
		}
	}
}

func TestServerVerifyDetectsTampering(t *testing.T) {
	tr := New()
	seed(tr, []string{"a"}, 8)
	// Tampered entry.
	bad := lineage("a", 8)
	bad[3] = hashutil.Leaf([]byte("forged"))
	if err := tr.VerifyServer("a", bad); !errors.Is(err, ErrBadProof) {
		t.Fatalf("tampered lineage: err = %v", err)
	}
	// Missing entry — the count mismatch the paper insists lineage
	// verification must catch ("including the number of records").
	if err := tr.VerifyServer("a", lineage("a", 7)); !errors.Is(err, ErrBadProof) {
		t.Fatalf("missing entry: err = %v", err)
	}
	// Extra forged entry appended.
	extra := append(lineage("a", 8), hashutil.Leaf([]byte("extra")))
	if err := tr.VerifyServer("a", extra); !errors.Is(err, ErrBadProof) {
		t.Fatalf("extra entry: err = %v", err)
	}
	// Reordered lineage.
	swapped := lineage("a", 8)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := tr.VerifyServer("a", swapped); !errors.Is(err, ErrBadProof) {
		t.Fatalf("reordered lineage: err = %v", err)
	}
	if err := tr.VerifyServer("nope", nil); !errors.Is(err, ErrUnknownClue) {
		t.Fatalf("unknown clue: err = %v", err)
	}
}

func TestClientVerifyWholeClue(t *testing.T) {
	tr := New()
	seed(tr, []string{"x", "y"}, 13)
	snap := tr.Snapshot()
	root := snap.RootHash()
	p, err := snap.ProveClue("x", 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClue(root, p, lineage("x", 13)); err != nil {
		t.Fatalf("VerifyClue: %v", err)
	}
	// Against the wrong root it must fail.
	if err := VerifyClue(hashutil.Leaf([]byte("evil")), p, lineage("x", 13)); err == nil {
		t.Fatal("wrong root accepted")
	}
}

func TestClientVerifyRange(t *testing.T) {
	tr := New()
	seed(tr, []string{"k"}, 23)
	snap := tr.Snapshot()
	root := snap.RootHash()
	for _, r := range [][2]uint64{{0, 4}, {3, 9}, {10, 23}, {22, 23}, {0, 23}} {
		p, err := snap.ProveClue("k", r[0], r[1])
		if err != nil {
			t.Fatalf("ProveClue(%v): %v", r, err)
		}
		leaves := lineage("k", 23)[r[0]:r[1]]
		if err := VerifyClue(root, p, leaves); err != nil {
			t.Fatalf("VerifyClue(%v): %v", r, err)
		}
	}
}

func TestClientVerifyRangeDetectsTampering(t *testing.T) {
	tr := New()
	seed(tr, []string{"k"}, 16)
	snap := tr.Snapshot()
	root := snap.RootHash()
	p, _ := snap.ProveClue("k", 4, 10)
	leaves := append([]hashutil.Digest(nil), lineage("k", 16)[4:10]...)
	leaves[2] = hashutil.Leaf([]byte("forged"))
	if err := VerifyClue(root, p, leaves); err == nil {
		t.Fatal("tampered range accepted")
	}
	// Wrong-length slice.
	if err := VerifyClue(root, p, lineage("k", 16)[4:9]); err == nil {
		t.Fatal("short range accepted")
	}
}

func TestSnapshotStableUnderLaterInserts(t *testing.T) {
	tr := New()
	seed(tr, []string{"k"}, 10)
	snap := tr.Snapshot()
	root := snap.RootHash()
	// Grow the live tree after the snapshot.
	for v := 10; v < 40; v++ {
		tr.Insert("k", uint64(v), digOf("k", uint64(v)))
	}
	p, err := snap.ProveClue("k", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClue(root, p, lineage("k", 10)); err != nil {
		t.Fatalf("snapshot proof after growth: %v", err)
	}
	// Ranged proof from the old snapshot also stays valid.
	p2, err := snap.ProveClue("k", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClue(root, p2, lineage("k", 10)[2:7]); err != nil {
		t.Fatalf("snapshot range proof after growth: %v", err)
	}
	// The live root has moved on.
	if tr.RootHash() == root {
		t.Fatal("live root unchanged after inserts")
	}
}

func TestProveClueBadRange(t *testing.T) {
	tr := New()
	seed(tr, []string{"k"}, 5)
	snap := tr.Snapshot()
	for _, r := range [][2]uint64{{0, 0}, {3, 2}, {0, 6}} {
		if _, err := snap.ProveClue("k", r[0], r[1]); !errors.Is(err, ErrBadRange) {
			t.Fatalf("range %v: err = %v", r, err)
		}
	}
	if _, err := snap.ProveClue("absent", 0, 1); !errors.Is(err, ErrUnknownClue) {
		t.Fatalf("err = %v", err)
	}
}

func TestClueProofWireRoundTrip(t *testing.T) {
	tr := New()
	seed(tr, []string{"k", "z"}, 11)
	snap := tr.Snapshot()
	root := snap.RootHash()
	p, _ := snap.ProveClue("k", 2, 9)
	w := wire.NewWriter(0)
	p.Encode(w)
	got, err := DecodeClueProof(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClue(root, got, lineage("k", 11)[2:9]); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
}

func TestQuickWholeClueAcrossSizes(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%120) + 1
		tr := New()
		for v := 0; v < n; v++ {
			tr.Insert("q", uint64(v), digOf("q", uint64(v)))
		}
		snap := tr.Snapshot()
		p, err := snap.ProveClue("q", 0, uint64(n))
		if err != nil {
			return false
		}
		return VerifyClue(snap.RootHash(), p, lineage("q", n)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRangesAcrossSizes(t *testing.T) {
	f := func(nRaw, aRaw, bRaw uint8) bool {
		n := uint64(nRaw%100) + 2
		a := uint64(aRaw) % (n - 1)
		b := a + 1 + uint64(bRaw)%(n-a)
		if b > n {
			b = n
		}
		tr := New()
		for v := uint64(0); v < n; v++ {
			tr.Insert("q", v, digOf("q", v))
		}
		snap := tr.Snapshot()
		p, err := snap.ProveClue("q", a, b)
		if err != nil {
			return false
		}
		return VerifyClue(snap.RootHash(), p, lineage("q", int(n))[a:b]) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestManyCluesKeepTrieConsistent(t *testing.T) {
	tr := New()
	const clues = 300
	for i := 0; i < clues; i++ {
		c := fmt.Sprintf("clue-%04d", i)
		for v := 0; v < 1+i%4; v++ {
			tr.Insert(c, uint64(i*10+v), digOf(c, uint64(v)))
		}
	}
	snap := tr.Snapshot()
	for i := 0; i < clues; i += 37 {
		c := fmt.Sprintf("clue-%04d", i)
		n := uint64(1 + i%4)
		p, err := snap.ProveClue(c, 0, n)
		if err != nil {
			t.Fatalf("ProveClue(%s): %v", c, err)
		}
		if err := VerifyClue(snap.RootHash(), p, lineage(c, int(n))); err != nil {
			t.Fatalf("VerifyClue(%s): %v", c, err)
		}
	}
}

// TestInsertAllocBound pins the garbage of one steady-state insertion
// into a tree holding the benchmark's 1000-clue population: the
// CM-Tree1 path rewrite must hash its branches without growing a buffer
// per node. Measured: 12 allocs and ~1.5 KB per insert (it was 34 and
// ~7.7 KB when every branch hash grew a fresh writer digest by digest).
// Lower the bounds when the path gets leaner; never raise them.
func TestInsertAllocBound(t *testing.T) {
	const maxAllocs, maxBytes = 14, 2048
	tr := New()
	names := make([]string, 1000)
	jsn := uint64(0)
	for i := range names {
		names[i] = fmt.Sprintf("c%04d", i)
		tr.Insert(names[i], jsn, hashutil.Leaf([]byte(names[i])))
		jsn++
	}
	insert := func() {
		tr.Insert(names[jsn%1000], jsn, hashutil.Leaf([]byte{byte(jsn), byte(jsn >> 8)}))
		jsn++
	}
	for i := 0; i < 2000; i++ {
		insert() // past the slice growth of the first few versions
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, insert)
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("cmtree.Insert: %.1f allocs/op, %.0f B/op (bounds %d, %d)", allocs, bytesPer, maxAllocs, maxBytes)
	if allocs > maxAllocs || bytesPer > maxBytes {
		t.Fatalf("cmtree.Insert: %.1f allocs/op, %.0f B/op exceed bounds %d allocs, %d B", allocs, bytesPer, maxAllocs, maxBytes)
	}
}

// clueProofTree holds `names` single-version clues plus the clue "t"
// with 64 versions — the ledger a clue proof must not notice the size of.
func clueProofTree(names int) *Tree {
	tr := New()
	jsn := uint64(0)
	for i := 0; i < names; i++ {
		c := fmt.Sprintf("c%06d", i)
		tr.Insert(c, jsn, hashutil.Leaf([]byte(c)))
		jsn++
	}
	for v := uint64(0); v < 64; v++ {
		tr.Insert("t", jsn, digOf("t", v))
		jsn++
	}
	return tr
}

// TestProveClueAllocsIgnoreClueCount pins §IV's "unaffected by total
// ledger size" on the proving side: pinning a version for one clue's
// proof and building it allocates the same at 1 K and at 100 K clue
// names, plus only what the proof itself gains — the bigger trie's two
// extra CM-Tree1 levels, about 1.3 KB and 4 allocations each. Pinning
// every clue's size first (Snapshot, which fig. 9 still wants) cost a
// 100 K-entry map, megabytes, per proof.
func TestProveClueAllocsIgnoreClueCount(t *testing.T) {
	measure := func(names int) (allocs, bytes float64) {
		tr := clueProofTree(names)
		prove := func() {
			if _, err := snapshotClueNow(tr, "t").ProveClue("t", 0, 64); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, prove)
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	a1k, b1k := measure(1_000)
	a100k, b100k := measure(100_000)
	t.Logf("ProveClue: %.0f allocs/op, %.0f B/op at 1K clue names; %.0f allocs/op, %.0f B/op at 100K", a1k, b1k, a100k, b100k)
	if a100k > a1k+12 || b100k > b1k+4096 {
		t.Fatalf("ProveClue grows with the clue count: %.0f allocs/%.0f B at 1K names, %.0f allocs/%.0f B at 100K", a1k, b1k, a100k, b100k)
	}
}

// TestJSNRange: the bounded copy agrees with slicing the full list, end
// 0 means "through the newest", and bad bounds are ErrBadRange.
func TestJSNRange(t *testing.T) {
	tr := New()
	seed(tr, []string{"a", "b"}, 9)
	all, _ := tr.JSNs("b")
	for _, r := range [][2]uint64{{0, 9}, {2, 5}, {8, 9}, {3, 0}, {0, 0}} {
		got, err := tr.JSNRange("b", r[0], r[1])
		if err != nil {
			t.Fatalf("JSNRange%v: %v", r, err)
		}
		end := r[1]
		if end == 0 {
			end = 9
		}
		if fmt.Sprint(got) != fmt.Sprint(all[r[0]:end]) {
			t.Fatalf("JSNRange%v = %v, want %v", r, got, all[r[0]:end])
		}
	}
	for _, r := range [][2]uint64{{4, 4}, {5, 3}, {0, 10}, {9, 0}} {
		if _, err := tr.JSNRange("b", r[0], r[1]); !errors.Is(err, ErrBadRange) {
			t.Fatalf("JSNRange%v: %v, want ErrBadRange", r, err)
		}
	}
	if _, err := tr.JSNRange("absent", 0, 0); !errors.Is(err, ErrUnknownClue) {
		t.Fatalf("err = %v", err)
	}
}

// TestSnapshotClueAtMatchesThen: a remembered (CM-Tree1 version, ledger
// size) pair keeps proving a clue exactly as a snapshot taken at that
// moment, however many versions and clues arrive afterwards — the pinned
// size is recovered from the jsn bound alone.
func TestSnapshotClueAtMatchesThen(t *testing.T) {
	tr := New()
	clues := []string{"a", "b", "c"}
	seed(tr, clues, 7)
	jsn := uint64(7 * len(clues))
	encode := func(p *ClueProof) []byte {
		w := wire.NewWriter(512)
		p.Encode(w)
		return w.Bytes()
	}
	type given struct {
		trie       *mpt.Trie // CM-Tree1 and ledger size at the moment
		before     uint64
		clue       string
		begin, end uint64
		enc        []byte
	}
	var proofs []given
	for round := 0; round < 6; round++ {
		trie := tr.Trie()
		for _, c := range clues {
			n := tr.Count(c)
			for _, r := range [][2]uint64{{0, n}, {1, n - 2}, {n - 1, n}} {
				p, err := snapshotClueNow(tr, c).ProveClue(c, r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				proofs = append(proofs, given{trie, jsn, c, r[0], r[1], encode(p)})
			}
		}
		// Uneven growth: "a" most rounds, "b" every round, a new clue each.
		for _, c := range []string{"a", "b", fmt.Sprintf("new-%d", round)}[round%2:] {
			tr.Insert(c, jsn, digOf(c, tr.Count(c)))
			jsn++
		}
	}
	for _, g := range proofs {
		p, err := tr.SnapshotClueAt(g.clue, g.trie, g.before).ProveClue(g.clue, g.begin, g.end)
		if err != nil {
			t.Fatalf("%s [%d,%d) as of jsn %d: %v", g.clue, g.begin, g.end, g.before, err)
		}
		if string(encode(p)) != string(g.enc) {
			t.Fatalf("%s [%d,%d) as of jsn %d: differs from the proof given then", g.clue, g.begin, g.end, g.before)
		}
		if err := VerifyClue(g.trie.RootHash(), p, lineage(g.clue, int(p.Size))[g.begin:g.end]); err != nil {
			t.Fatal(err)
		}
	}
}
