// Package bench holds the repository-level testing.B benchmarks: one
// bench family per table/figure of the paper's evaluation. They exercise
// the same code paths as cmd/bench (via internal/benchkit's workloads)
// but in ns/op form, so `go test -bench=. -benchmem` regenerates the
// per-operation view of every experiment.
//
// Mapping (see DESIGN.md §3):
//
//	BenchmarkFig5_*   — timestamp attack simulations (§III-B, Fig. 5)
//	BenchmarkFig7_*   — Dasein breakdown components (Fig. 7)
//	BenchmarkFig8a_*  — Append throughput, tim vs fam-δ (Fig. 8a)
//	BenchmarkFig8b_*  — GetProof throughput (Fig. 8b)
//	BenchmarkFig9a_*  — clue verify, CM-Tree vs ccMPT vs ledger size (Fig. 9a)
//	BenchmarkFig9b_*  — clue verify latency vs entries (Fig. 9b)
//	BenchmarkFig10*_* — application-level vs Fabric (Fig. 10)
//	BenchmarkTable2_* — end-to-end vs QLDB-sim (Table II)
package bench

import (
	"fmt"
	"sync"
	"testing"

	"ledgerdb/internal/audit"
	"ledgerdb/internal/baseline/fabricsim"
	"ledgerdb/internal/baseline/qldbsim"
	"ledgerdb/internal/benchkit"
	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/merkle/accumulator"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/timepeg"
	"ledgerdb/internal/tsa"
)

// ---------------------------------------------------------------- Fig 5

func BenchmarkFig5_OneWayAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := timepeg.RunOneWayAttack(1000)
		if out.TamperWindow < 1000 {
			b.Fatal("window too small")
		}
	}
}

func BenchmarkFig5_TwoWayAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := timepeg.RunTwoWayAttack(100, 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		if out.Accepted && out.ClaimWindow > 20 {
			b.Fatal("bound violated")
		}
	}
}

// ---------------------------------------------------------------- Fig 7

// fig7Ledger builds a 1000-journal ledger once per configuration.
func fig7Ledger(b *testing.B, payloadSize, signers int) (*benchkit.TestLedger, []uint64) {
	b.Helper()
	tl, err := benchkit.NewTestLedger("ledger://bench7", 10, 128)
	if err != nil {
		b.Fatal(err)
	}
	co := make([]*sig.KeyPair, signers-1)
	for i := range co {
		co[i] = sig.GenerateDeterministic(fmt.Sprintf("bench7/co/%d", i))
	}
	var jsns []uint64
	for i := 0; i < 1000; i++ {
		req, err := tl.Request(benchkit.Payload("bench7", i, payloadSize), nil, co)
		if err != nil {
			b.Fatal(err)
		}
		r, err := tl.L.Append(req)
		if err != nil {
			b.Fatal(err)
		}
		jsns = append(jsns, r.JSN)
	}
	return tl, jsns
}

func BenchmarkFig7_What(b *testing.B) {
	for _, size := range []int{256, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("payload=%dB", size), func(b *testing.B) {
			tl, jsns := fig7Ledger(b, size, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jsn := jsns[i%len(jsns)]
				p, err := tl.L.ProveExistence(jsn, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ledger.VerifyExistence(p, tl.LSP.Public()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7_Who(b *testing.B) {
	for _, signers := range []int{1, 3, 5, 7} {
		b.Run(fmt.Sprintf("sig=%d", signers), func(b *testing.B) {
			tl, jsns := fig7Ledger(b, 256, signers)
			recs := make([]*journal.Record, len(jsns))
			for i, jsn := range jsns {
				rec, err := tl.L.GetJournal(jsn)
				if err != nil {
					b.Fatal(err)
				}
				recs[i] = rec
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := journal.VerifyRecordSigs(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- Fig 8

func BenchmarkFig8a_Append(b *testing.B) {
	models := []struct {
		name string
		run  func(leaves []hashutil.Digest)
	}{
		{"tim", func(leaves []hashutil.Digest) {
			acc := accumulator.New()
			for _, d := range leaves {
				acc.Append(d)
				if _, err := acc.Root(); err != nil {
					panic(err)
				}
			}
		}},
	}
	for _, h := range []uint8{5, 10, 15, 20} {
		h := h
		models = append(models, struct {
			name string
			run  func(leaves []hashutil.Digest)
		}{fmt.Sprintf("fam-%d", h), func(leaves []hashutil.Digest) {
			t := fam.MustNew(h)
			for _, d := range leaves {
				t.Append(d)
				if _, err := t.Root(); err != nil {
					panic(err)
				}
			}
		}})
	}
	const n = 1 << 15
	leaves := benchkit.Digests("bench8a", n)
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			b.ReportMetric(float64(n), "journals/op")
			for i := 0; i < b.N; i++ {
				m.run(leaves)
			}
		})
	}
}

func BenchmarkFig8b_GetProof(b *testing.B) {
	const n = 1 << 15
	leaves := benchkit.Digests("bench8b", n)

	b.Run("tim", func(b *testing.B) {
		acc := accumulator.New()
		for _, d := range leaves {
			acc.Append(d)
		}
		root, _ := acc.Root()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := uint64(i*7919) % n
			p, err := acc.Prove(idx)
			if err != nil {
				b.Fatal(err)
			}
			if err := accumulator.Verify(leaves[idx], p, root); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, h := range []uint8{5, 10, 15} {
		h := h
		b.Run(fmt.Sprintf("fam-%d", h), func(b *testing.B) {
			tree := fam.MustNew(h)
			for _, d := range leaves {
				tree.Append(d)
			}
			live, _ := tree.Root()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := uint64(i*7919) % n
				p, root, err := benchkit.ProveAOA(tree, idx, live)
				if err != nil {
					b.Fatal(err)
				}
				if err := fam.VerifyBatch([]fam.Leaf{{Index: idx, Digest: leaves[idx]}}, p, root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- Fig 9

func fig9Structures(b *testing.B, background, entries int) (*cmtree.Tree, *accumulator.Accumulator, *cmtree.CCMPT, []hashutil.Digest) {
	b.Helper()
	cm := cmtree.New()
	acc := accumulator.New()
	cc := cmtree.NewCCMPT(acc)
	jsn := uint64(0)
	for i := 0; i < background; i++ {
		clue := fmt.Sprintf("bg-%06d", i)
		d := hashutil.Leaf([]byte(clue))
		cm.Insert(clue, jsn, d)
		acc.Append(d)
		cc.Insert(clue, jsn)
		jsn++
	}
	digests := make([]hashutil.Digest, entries)
	for v := 0; v < entries; v++ {
		d := hashutil.Leaf([]byte(fmt.Sprintf("target/%d", v)))
		digests[v] = d
		cm.Insert("target", jsn, d)
		acc.Append(d)
		cc.Insert("target", jsn)
		jsn++
	}
	return cm, acc, cc, digests
}

func BenchmarkFig9a_ClueVerify(b *testing.B) {
	for _, background := range []int{1 << 10, 1 << 14} {
		cm, acc, cc, digests := fig9Structures(b, background, 50)
		b.Run(fmt.Sprintf("CM-Tree/ledger=%d", background), func(b *testing.B) {
			snap := cm.Snapshot()
			root := snap.RootHash()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := snap.ProveClue("target", 0, uint64(len(digests)))
				if err != nil {
					b.Fatal(err)
				}
				if err := cmtree.VerifyClue(root, p, digests); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ccMPT/ledger=%d", background), func(b *testing.B) {
			ccRoot := cc.RootHash()
			ledgerRoot, _ := acc.Root()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := cc.ProveClue("target")
				if err != nil {
					b.Fatal(err)
				}
				if err := cmtree.VerifyCCMPT(ccRoot, ledgerRoot, p, digests); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9b_ClueVerifyByEntries(b *testing.B) {
	for _, m := range []int{10, 100, 1000} {
		cm, acc, cc, digests := fig9Structures(b, 1<<14, m)
		b.Run(fmt.Sprintf("CM-Tree/entries=%d", m), func(b *testing.B) {
			snap := cm.Snapshot()
			root := snap.RootHash()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := snap.ProveClue("target", 0, uint64(m))
				if err != nil {
					b.Fatal(err)
				}
				if err := cmtree.VerifyClue(root, p, digests); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ccMPT/entries=%d", m), func(b *testing.B) {
			ccRoot := cc.RootHash()
			ledgerRoot, _ := acc.Root()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := cc.ProveClue("target")
				if err != nil {
					b.Fatal(err)
				}
				if err := cmtree.VerifyCCMPT(ccRoot, ledgerRoot, p, digests); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------- Fig 10

func BenchmarkFig10a_NotarizationAppend(b *testing.B) {
	b.Run("LedgerDB", func(b *testing.B) {
		tl, err := benchkit.NewTestLedger("ledger://bench10a", 15, 128)
		if err != nil {
			b.Fatal(err)
		}
		payload := benchkit.Payload("b10a", 0, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tl.Append(payload, fmt.Sprintf("doc-%d", i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fabric", func(b *testing.B) {
		fab := fabricsim.New(fabricsim.Config{})
		payload := benchkit.Payload("b10a", 0, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fab.Submit(fmt.Sprintf("doc-%d", i), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig10b_NotarizationVerify(b *testing.B) {
	const docs = 512
	b.Run("LedgerDB", func(b *testing.B) {
		tl, err := benchkit.NewTestLedger("ledger://bench10b", 15, 128)
		if err != nil {
			b.Fatal(err)
		}
		var jsns []uint64
		for i := 0; i < docs; i++ {
			r, err := tl.Append(benchkit.Payload("b10b", i, 4<<10), fmt.Sprintf("doc-%d", i))
			if err != nil {
				b.Fatal(err)
			}
			jsns = append(jsns, r.JSN)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := tl.L.ProveExistence(jsns[i%docs], true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ledger.VerifyExistence(p, tl.LSP.Public()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fabric", func(b *testing.B) {
		fab := fabricsim.New(fabricsim.Config{})
		for i := 0; i < docs; i++ {
			if _, err := fab.Submit(fmt.Sprintf("doc-%d", i), benchkit.Payload("b10b", i, 4<<10)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fab.GetState(fmt.Sprintf("doc-%d", i%docs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig10cd_LineageVerify(b *testing.B) {
	for _, m := range []int{5, 50, 100} {
		b.Run(fmt.Sprintf("LedgerDB/entries=%d", m), func(b *testing.B) {
			tl, err := benchkit.NewTestLedger("ledger://bench10c", 15, 128)
			if err != nil {
				b.Fatal(err)
			}
			for v := 0; v < m; v++ {
				if _, err := tl.Append(benchkit.Payload("asset", v, 1024), "asset"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bundle, err := tl.L.ProveClue("asset", 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ledger.VerifyClue(bundle, tl.LSP.Public()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Fabric/entries=%d", m), func(b *testing.B) {
			fab := fabricsim.New(fabricsim.Config{})
			for v := 0; v < m; v++ {
				if _, err := fab.Submit("asset", benchkit.Payload("asset", v, 1024)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fab.VerifyHistory("asset"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyClue64 states both costs of the client's lineage check
// side by side: cold is the pure verifier every paper-figure benchmark
// above measures (65 ECDSA checks per proof), warm is what a
// client.Client pays for a range it has already verified (its
// verified-signature memo answers all 65; the CM-Tree folds remain).
func BenchmarkVerifyClue64(b *testing.B) {
	tl, err := benchkit.NewTestLedger("ledger://benchmemo", 15, 128)
	if err != nil {
		b.Fatal(err)
	}
	for v := 0; v < 64; v++ {
		if _, err := tl.Append(benchkit.Payload("asset", v, 256), "asset"); err != nil {
			b.Fatal(err)
		}
	}
	bundle, err := tl.L.ProveClue("asset", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    ledger.Verifier
	}{
		{"cold", ledger.Verifier{LSP: tl.LSP.Public()}},
		{"warm", ledger.Verifier{LSP: tl.LSP.Public(), Memo: new(sig.Memo)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := c.v.VerifyClue(bundle); err != nil { // warms the memo, if any
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.v.VerifyClue(bundle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------- batched write path

// BenchmarkAppendSingleVsBatch shows the mechanism behind the paper's
// high write throughput (§II-C: "exceeding 300,000 TPS"): batching
// amortizes the LSP receipt signature and parallelizes π_c verification
// across CPUs.
func BenchmarkAppendSingleVsBatch(b *testing.B) {
	const batchSize = 256
	mkReqs := func(tl *benchkit.TestLedger, n int) []*journal.Request {
		reqs := make([]*journal.Request, n)
		for i := range reqs {
			req, err := tl.Request(benchkit.Payload("b", i, 256), nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			reqs[i] = req
		}
		return reqs
	}
	b.Run("single", func(b *testing.B) {
		tl, err := benchkit.NewTestLedger("ledger://single", 15, 1024)
		if err != nil {
			b.Fatal(err)
		}
		reqs := mkReqs(tl, batchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tl.L.Append(reqs[i%batchSize]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		tl, err := benchkit.NewTestLedger("ledger://batched", 15, 1024)
		if err != nil {
			b.Fatal(err)
		}
		reqs := mkReqs(tl, batchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i += batchSize {
			if _, _, err := tl.L.AppendBatch(reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ------------------------------------------- staged commit pipeline

// benchParallelAppend drives par goroutines of pre-signed appends at
// one engine: admission (π_c verification, hashing, blob writes) and
// receipt signing run concurrently, and index updates group-commit.
func benchParallelAppend(b *testing.B, par int) {
	b.Helper()
	tl, err := benchkit.NewTestLedger("ledger://pipe-bench", 15, 1024)
	if err != nil {
		b.Fatal(err)
	}
	const pool = 512
	reqs := make([]*journal.Request, pool)
	for i := range reqs {
		req, err := tl.Request(benchkit.Payload("pp", i, 256), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = req
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		n := b.N / par
		if w < b.N%par {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				if _, err := tl.L.Append(reqs[(w*131+k)%pool]); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	if err := tl.L.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAppendParallelism sweeps client parallelism 1/4/16 over the
// one write path (EXPERIMENTS.md records the measured ratios next to
// Fig. 7).
func BenchmarkAppendParallelism(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			benchParallelAppend(b, par)
		})
	}
}

// ------------------------------------------------------------ §V audit

// BenchmarkAudit measures the Dasein-complete audit's replay rate
// (journals per op over a 500-journal ledger with clues and time
// journals) — the cost an external auditor pays.
func BenchmarkAudit(b *testing.B) {
	tl, err := benchkit.NewTestLedger("ledger://benchaudit", 10, 64)
	if err != nil {
		b.Fatal(err)
	}
	clock := int64(0)
	authority := tsa.New("bench-audit", tsa.Options{Clock: func() int64 { clock++; return clock }})
	for i := 0; i < 500; i++ {
		if _, err := tl.Append(benchkit.Payload("a", i, 256), fmt.Sprintf("clue-%d", i%5)); err != nil {
			b.Fatal(err)
		}
		if (i+1)%100 == 0 {
			if _, err := tl.L.AnchorTimeWith(authority.Stamp); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg := audit.Config{
		LSP:        tl.LSP.Public(),
		DBA:        tl.DBA.Public(),
		TrustedTSA: []sig.PublicKey{authority.Public()},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := audit.Audit(tl.L, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.TimeJournals != 5 {
			b.Fatal("unexpected report")
		}
	}
	b.ReportMetric(float64(tl.L.Size()), "journals/op")
}

// -------------------------------------------------- concurrency ablation

// BenchmarkParallelGetProof measures anchored existence verification
// under concurrent readers — the lock-free-read claim of the engine
// design (appends serialize; proofs scale with cores).
func BenchmarkParallelGetProof(b *testing.B) {
	tl, err := benchkit.NewTestLedger("ledger://par", 10, 128)
	if err != nil {
		b.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := tl.Append(benchkit.Payload("par", i, 256)); err != nil {
			b.Fatal(err)
		}
	}
	lsp := tl.LSP.Public()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			p, err := tl.L.ProveExistence(uint64(1+i%n), false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ledger.VerifyExistence(p, lsp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// -------------------------------------------------------------- Table 2

func BenchmarkTable2_Notarization(b *testing.B) {
	b.Run("LedgerDB/verify", func(b *testing.B) {
		tl, err := benchkit.NewTestLedger("ledger://bencht2", 15, 128)
		if err != nil {
			b.Fatal(err)
		}
		doc := benchkit.Payload("t2", 0, 32<<10)
		r, err := tl.Append(doc, "doc-0")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := tl.L.ProveExistence(r.JSN, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ledger.VerifyExistence(p, tl.LSP.Public()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("QLDBsim/verify", func(b *testing.B) {
		q := qldbsim.New(0) // structural cost only; cmd/bench table2 adds RTT
		doc := benchkit.Payload("t2", 0, 32<<10)
		for i := 0; i < 512; i++ {
			if _, err := q.Insert(fmt.Sprintf("doc-%d", i), doc); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := q.VerifyDocument(fmt.Sprintf("doc-%d", i%512)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTable2_Lineage(b *testing.B) {
	for _, versions := range []int{5, 100} {
		b.Run(fmt.Sprintf("LedgerDB/versions=%d", versions), func(b *testing.B) {
			tl, err := benchkit.NewTestLedger("ledger://bencht2l", 15, 128)
			if err != nil {
				b.Fatal(err)
			}
			for v := 0; v < versions; v++ {
				if _, err := tl.Append(benchkit.Payload("k", v, 1024), "k"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bundle, err := tl.L.ProveClue("k", 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ledger.VerifyClue(bundle, tl.LSP.Public()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("QLDBsim/versions=%d", versions), func(b *testing.B) {
			q := qldbsim.New(0)
			for v := 0; v < versions; v++ {
				if _, err := q.Insert("k", benchkit.Payload("k", v, 1024)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.VerifyLineage("k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
