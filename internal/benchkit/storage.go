package benchkit

import (
	"fmt"

	"ledgerdb/internal/merkle/accumulator"
	"ledgerdb/internal/merkle/bim"
	"ledgerdb/internal/merkle/fam"
)

// StorageTable quantifies Table I's "Storage Overhead" column: the
// authenticated-structure bytes each model retains for the same journal
// volume, and what each verifier class must hold.
//
//   - tim retains every tree cell (~2n digests) and a verifier needs only
//     the live root — but proofs grow with n.
//   - bim batches journals into blocks; a light client (boa) must hold
//     EVERY block header, O(n/blockSize) — the §III-A1 storage critique.
//   - fam retains the same ~2n cells while unpruned, but after a purge
//     aligns a trusted anchor and prunes sealed epochs down to their
//     roots (§III-A2's erasure option) — the "Lowest" cell of Table I.
func StorageTable() *Table {
	const n = 1 << 15
	const blockSize = 128 // typical bim block batching
	const digest = 32
	const headerBytes = 2*digest + 3*8 // prev + merkle root + height/count/ts

	t := &Table{
		Title:  fmt.Sprintf("Table I ablation: storage overhead for %d journals (bytes of authenticated structure)", n),
		Note:   "server = what the service stores to serve proofs; light verifier = what an external party must persist",
		Header: []string{"model", "server bytes", "light verifier bytes", "notes"},
	}
	leaves := Digests("storage", n)

	acc := accumulator.New()
	for _, d := range leaves {
		acc.Append(d)
	}
	t.AddRow("tim",
		fmt.Sprintf("%d", acc.CellCount()*digest),
		fmt.Sprintf("%d", digest),
		"verifier pins one root; proofs O(log n)")

	chain := bim.NewChain()
	for i, d := range leaves {
		chain.AddTx(d)
		if (i+1)%blockSize == 0 {
			if _, err := chain.CutBlock(int64(i)); err != nil {
				panic(err)
			}
		}
	}
	t.AddRow("bim (boa light client)",
		fmt.Sprintf("%d", chain.TxCount()*2*digest), // per-block trees ~2n cells
		fmt.Sprintf("%d", chain.Height()*headerBytes),
		fmt.Sprintf("light client stores %d headers", chain.Height()))

	tree := fam.MustNew(10)
	for _, d := range leaves {
		tree.Append(d)
	}
	t.AddRow("fam-10 (unpruned)",
		fmt.Sprintf("%d", tree.CellCount()*digest),
		fmt.Sprintf("%d", digest),
		"verifier pins the live root")

	sealed := len(tree.SealedRoots())
	tree.PruneEpochs(sealed)
	t.AddRow("fam-10 (pruned to anchor)",
		fmt.Sprintf("%d", tree.CellCount()*digest),
		fmt.Sprintf("%d", (uint64(sealed)+1)*digest),
		fmt.Sprintf("anchored verifier holds %d epoch roots", sealed))
	return t
}
