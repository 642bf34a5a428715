package benchkit

import (
	"fmt"
	"math/rand"
	"time"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/merkle/accumulator"
	"ledgerdb/internal/merkle/fam"
)

// Figure 8: write (Append) and existence-verification (GetProof)
// throughput of the tim accumulator vs fam at fractal heights
// {5,10,15,20,25}, swept over ledger sizes. The paper's byte sizes
// (32K…32G at 256B/journal) map to journal counts 2^7…2^27; quick mode
// sweeps 2^7…2^17.

// Fig8Sizes returns the journal-count sweep. full extends toward the
// paper's upper end (bounded by memory/time sanity).
func Fig8Sizes(full bool) []int {
	sizes := []int{1 << 7, 1 << 9, 1 << 11, 1 << 13, 1 << 15, 1 << 17}
	if full {
		sizes = append(sizes, 1<<19, 1<<21)
	}
	return sizes
}

// Fig8Heights are the fam fractal heights of the paper.
var Fig8Heights = []uint8{5, 10, 15, 20, 25}

// sizeLabel renders a journal count as the paper's byte-size axis
// (256 B per journal).
func sizeLabel(n int) string {
	bytes := int64(n) * 256
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%dG", bytes>>30)
	case bytes >= 1<<20:
		return fmt.Sprintf("%dM", bytes>>20)
	default:
		return fmt.Sprintf("%dK", bytes>>10)
	}
}

// Fig8a measures Append throughput per model per ledger size. Both
// models publish a commitment (root) after every append — the
// transaction-level "fine-grained tamper proof" of the tim critique in
// §II-A: each journal needs its own root for its receipt. tim pays an
// O(log n) root fold that grows with the whole ledger; fam's fold is
// bounded by the open epoch, so it flattens once one epoch fills.
func Fig8a(full bool) *Table {
	sizes := Fig8Sizes(full)
	t := &Table{
		Title:  "Figure 8(a): Append TPS with per-journal commitment, tim vs fam-δ (256B journals)",
		Note:   "paper shape: tim decays with ledger size; fam flattens once one epoch fills; smaller δ is faster",
		Header: append([]string{"model"}, labels(sizes)...),
	}
	// tim row.
	row := []string{"tim"}
	for _, n := range sizes {
		leaves := Digests("fig8a-tim", n)
		start := time.Now()
		acc := accumulator.New()
		for _, d := range leaves {
			acc.Append(d)
			if _, err := acc.Root(); err != nil {
				panic(err)
			}
		}
		row = append(row, Throughput(n, time.Since(start)))
	}
	t.AddRow(row...)
	// fam rows.
	for _, h := range Fig8Heights {
		row := []string{fmt.Sprintf("fam-%d", h)}
		for _, n := range sizes {
			leaves := Digests("fig8a-fam", n)
			start := time.Now()
			tree := fam.MustNew(h)
			for _, d := range leaves {
				tree.Append(d)
				if _, err := tree.Root(); err != nil {
					panic(err)
				}
			}
			row = append(row, Throughput(n, time.Since(start)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8b measures GetProof (+verify) throughput on random journal indexes,
// with a fam-aoa trusted anchor set at the current state (the anchored
// regime of Figure 4).
func Fig8b(full bool) *Table {
	sizes := Fig8Sizes(full)
	t := &Table{
		Title:  "Figure 8(b): GetProof TPS on random jsns, tim vs fam-δ (anchored)",
		Note:   "paper shape: fam throughput stabilizes once its epoch threshold fills; tim decays log-linearly",
		Header: append([]string{"model"}, labels(sizes)...),
	}
	const probes = 2000
	rng := rand.New(rand.NewSource(8))

	row := []string{"tim"}
	for _, n := range sizes {
		leaves := Digests("fig8b-tim", n)
		acc := accumulator.New()
		for _, d := range leaves {
			acc.Append(d)
		}
		root, _ := acc.Root()
		idx := randomIndexes(rng, n, probes)
		start := time.Now()
		for _, i := range idx {
			p, err := acc.Prove(uint64(i))
			if err != nil {
				panic(err)
			}
			if err := accumulator.Verify(leaves[i], p, root); err != nil {
				panic(err)
			}
		}
		row = append(row, Throughput(probes, time.Since(start)))
	}
	t.AddRow(row...)

	for _, h := range Fig8Heights {
		row := []string{fmt.Sprintf("fam-%d", h)}
		for _, n := range sizes {
			leaves := Digests("fig8b-fam", n)
			tree := fam.MustNew(h)
			for _, d := range leaves {
				tree.Append(d)
			}
			live, _ := tree.Root()
			idx := randomIndexes(rng, n, probes)
			start := time.Now()
			for _, i := range idx {
				p, root, err := ProveAOA(tree, uint64(i), live)
				if err != nil {
					panic(err)
				}
				if err := fam.VerifyBatch([]fam.Leaf{{Index: uint64(i), Digest: leaves[i]}}, p, root); err != nil {
					panic(err)
				}
			}
			row = append(row, Throughput(probes, time.Since(start)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8PathLens reports the proof-size view of the same effect (an
// ablation: why fam-aoa is flat): average verification path length per
// model and size.
func Fig8PathLens(full bool) *Table {
	sizes := Fig8Sizes(full)
	t := &Table{
		Title:  "Figure 8 ablation: avg proof path length (digests touched)",
		Header: append([]string{"model"}, labels(sizes)...),
	}
	rng := rand.New(rand.NewSource(9))
	const probes = 500

	row := []string{"tim"}
	for _, n := range sizes {
		total := 0
		for _, i := range randomIndexes(rng, n, probes) {
			total += accumulator.PathLen(uint64(i), uint64(n))
		}
		row = append(row, fmt.Sprintf("%.1f", float64(total)/probes))
	}
	t.AddRow(row...)

	// bim with boa anchors: verification is one SPV path inside a block
	// (constant in ledger size), but the light client stores O(n/block)
	// headers — the storage cost the `storage` experiment quantifies.
	row = []string{"bim (boa, 128/block)"}
	for range sizes {
		row = append(row, fmt.Sprintf("%.1f", float64(7))) // log2(128)
	}
	t.AddRow(row...)

	for _, h := range Fig8Heights {
		row := []string{fmt.Sprintf("fam-%d (aoa)", h)}
		for _, n := range sizes {
			leaves := Digests("fig8p", n)
			tree := fam.MustNew(h)
			for _, d := range leaves {
				tree.Append(d)
			}
			live, _ := tree.Root()
			total := 0
			for _, i := range randomIndexes(rng, n, probes) {
				p, _, err := ProveAOA(tree, uint64(i), live)
				if err != nil {
					panic(err)
				}
				total += len(p.Nodes)
			}
			row = append(row, fmt.Sprintf("%.1f", float64(total)/probes))
		}
		t.AddRow(row...)
	}
	return t
}

// ProveAOA is the fam-aoa proof of journal i for a verifier that learned
// every sealed epoch root: the batch of one at the end of i's epoch,
// checked against that epoch's root, or — for a journal of the open
// epoch — at the live size, checked against live. It returns the proof
// and the root it folds to.
func ProveAOA(tree *fam.Tree, i uint64, live hashutil.Digest) (*fam.BatchProof, hashutil.Digest, error) {
	roots := tree.SealedRoots()
	if i >= tree.JournalCapacity(len(roots)) {
		p, err := tree.ProveBatchAt([]uint64{i}, tree.Size())
		return p, live, err
	}
	p, err := tree.ProveBatchAt([]uint64{i}, tree.EpochEnd(i))
	if err != nil {
		return nil, hashutil.Zero, err
	}
	e, _ := p.SealedEpoch()
	return p, roots[e], nil
}

func labels(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = sizeLabel(n)
	}
	return out
}

func randomIndexes(rng *rand.Rand, n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
