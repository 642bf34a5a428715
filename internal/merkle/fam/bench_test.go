package fam

import (
	"fmt"
	"testing"

	"ledgerdb/internal/hashutil"
)

func benchLeaves(n int) []hashutil.Digest {
	out := make([]hashutil.Digest, n)
	for i := range out {
		out[i] = hashutil.Leaf([]byte(fmt.Sprintf("bench-%d", i)))
	}
	return out
}

// BenchmarkAppend measures fam append at various fractal heights (the
// Figure 8(a) per-op view).
func BenchmarkAppend(b *testing.B) {
	for _, h := range []uint8{5, 10, 15} {
		b.Run(fmt.Sprintf("fam-%d", h), func(b *testing.B) {
			leaves := benchLeaves(1 << 12)
			tree := MustNew(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.Append(leaves[i%len(leaves)])
			}
		})
	}
}

// BenchmarkProveAnchoredVsCold is the fam-aoa ablation: how much a
// learned sealed-epoch root saves on deep historical journals.
func BenchmarkProveAnchoredVsCold(b *testing.B) {
	const n = 1 << 14
	tree := MustNew(5) // many epochs: long cold chains
	leaves := benchLeaves(n)
	for _, d := range leaves {
		tree.Append(d)
	}
	roots := tree.SealedRoots()
	sealed := tree.JournalCapacity(len(roots))
	root, _ := tree.Root()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := uint64(i*7919) % n
			p, err := tree.Prove(idx)
			if err != nil {
				b.Fatal(err)
			}
			if err := Verify(leaves[idx], p, root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("anchored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := uint64(i*7919) % sealed
			p, err := tree.ProveBatchAt([]uint64{idx}, tree.EpochEnd(idx))
			if err != nil {
				b.Fatal(err)
			}
			e, _ := p.SealedEpoch()
			if err := VerifyBatch([]Leaf{{Index: idx, Digest: leaves[idx]}}, p, roots[e]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
