package cmtree

import (
	"fmt"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/merkle/accumulator"
)

// BenchmarkInsert measures the two-step CM-Tree insertion of §IV-B3
// (CM-Tree2 append + CM-Tree1 path rehash) against the ccMPT baseline's
// counter update.
func BenchmarkInsert(b *testing.B) {
	b.Run("CM-Tree", func(b *testing.B) {
		tr := New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clue := fmt.Sprintf("clue-%d", i%1024)
			tr.Insert(clue, uint64(i), hashutil.Leaf([]byte{byte(i), byte(i >> 8)}))
		}
	})
	b.Run("ccMPT", func(b *testing.B) {
		acc := accumulator.New()
		cc := NewCCMPT(acc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clue := fmt.Sprintf("clue-%d", i%1024)
			jsn := acc.Append(hashutil.Leaf([]byte{byte(i), byte(i >> 8)}))
			cc.Insert(clue, jsn)
		}
	})
}

// BenchmarkProveClue is the serving side of a clue proof against the
// number of OTHER clues in the ledger: it must stay flat.
func BenchmarkProveClue(b *testing.B) {
	for _, names := range []int{1_000, 100_000} {
		tr := clueProofTree(names)
		b.Run(fmt.Sprintf("clues=%d", names), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := snapshotClueNow(tr, "t").ProveClue("t", 0, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyByEntries is the Figure 9(b) per-op view.
func BenchmarkVerifyByEntries(b *testing.B) {
	for _, m := range []int{10, 100, 1000} {
		tr := New()
		acc := accumulator.New()
		cc := NewCCMPT(acc)
		// Background ledger.
		for i := 0; i < 1<<13; i++ {
			clue := fmt.Sprintf("bg-%d", i)
			d := hashutil.Leaf([]byte(clue))
			tr.Insert(clue, uint64(i), d)
			acc.Append(d)
			cc.Insert(clue, uint64(i))
		}
		digests := make([]hashutil.Digest, m)
		for v := 0; v < m; v++ {
			d := hashutil.Leaf([]byte(fmt.Sprintf("t/%d", v)))
			digests[v] = d
			jsn := acc.Append(d)
			tr.Insert("t", jsn, d)
			cc.Insert("t", jsn)
		}
		b.Run(fmt.Sprintf("CM-Tree/m=%d", m), func(b *testing.B) {
			snap := tr.Snapshot()
			root := snap.RootHash()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := snap.ProveClue("t", 0, uint64(m))
				if err != nil {
					b.Fatal(err)
				}
				if err := VerifyClue(root, p, digests); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ccMPT/m=%d", m), func(b *testing.B) {
			ccRoot := cc.RootHash()
			ledgerRoot, _ := acc.Root()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := cc.ProveClue("t")
				if err != nil {
					b.Fatal(err)
				}
				if err := VerifyCCMPT(ccRoot, ledgerRoot, p, digests); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
