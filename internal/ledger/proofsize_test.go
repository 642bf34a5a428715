package ledger_test

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ledgerdb/internal/benchkit"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
)

var (
	proofReadOnce sync.Once
	proofReadTL   *benchkit.TestLedger
	proofReadJSNs []uint64
	proofReadErr  error
)

// proofRead builds the 40 000-journal fixture once per test binary.
func proofRead() (*benchkit.TestLedger, []uint64, error) {
	proofReadOnce.Do(func() { proofReadTL, proofReadJSNs, proofReadErr = benchkit.ProofReadLedger() })
	return proofReadTL, proofReadJSNs, proofReadErr
}

func readBudget(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("bad budget file %s: %v", path, err)
	}
	return budget
}

// TestProofBatch16BytesBudget is the proof-size regression guard run by
// `scripts/check.sh perf`: on the deterministic 40 000-journal δ = 15
// fixture, the encoded existence batch for the 16 oldest versions of
// the hottest clue — what a Limit-16 query reply carries — must stay
// within testdata/proof_batch16_bytes_budget. The size repeats exactly
// between builds, so the budget is the measured value; lower it when
// proofs shrink, never raise it to admit a regression.
func TestProofBatch16BytesBudget(t *testing.T) {
	budget := readBudget(t, "testdata/proof_batch16_bytes_budget")
	tl, jsns, err := proofRead()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := tl.L.ProveExistenceBatch(jsns, false, ledger.Held{})
	if err != nil {
		t.Fatal(err)
	}
	enc := batch.EncodeBytes()
	if _, err := ledger.VerifyExistenceBatch(batch, tl.LSP.Public()); err != nil {
		t.Fatal(err)
	}
	t.Logf("16-match batch: %d bytes, %d fam digests (budget %d bytes)", len(enc), len(batch.Fam.Nodes), budget)
	if len(enc) > budget {
		t.Fatalf("16-match batch encodes to %d bytes, budget %d (testdata/proof_batch16_bytes_budget)", len(enc), budget)
	}
}

// TestVerifyClue64Costs is the fan-out guard run by `scripts/check.sh
// perf`, on the fixture's repeat 64-version clue read (benchkit
// ClueRead). A warm verify — decode, fill, VerifyClue under a memo that
// has seen every signature — allocates no more than
// testdata/verify_clue_warm64_allocs_budget at GOMAXPROCS 4: a reply
// the memo answers in full starts no goroutine, which would cost
// allocations (not checked under -race). A cold verify runs exactly
// one ECDSA check per signature the reply carries, the signed state's
// included: the fan-out skips none and doubles none.
func TestVerifyClue64Costs(t *testing.T) {
	budget := readBudget(t, "testdata/verify_clue_warm64_allocs_budget")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tl, jsns, err := proofRead()
	if err != nil {
		t.Fatal(err)
	}
	cr, err := benchkit.NewClueRead(tl, jsns)
	if err != nil {
		t.Fatal(err)
	}
	held, err := cr.ProveHeld()
	if err != nil {
		t.Fatal(err)
	}
	lsp := tl.LSP.Public()
	warm := ledger.Verifier{LSP: lsp, Memo: new(sig.Memo)}
	if _, err := warm.VerifyClue(cr.Cold); err != nil {
		t.Fatal(err)
	}
	enc := held.EncodeBytes()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := cr.Verify(enc, warm); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := int((after.Mallocs - before.Mallocs) / runs)
	t.Logf("warm 64-record clue verify: %d allocs/op (budget %d)", allocs, budget)
	if allocs > budget && !ledger.RaceEnabled { // -race adds allocations of its own
		t.Fatalf("warm 64-record clue verify allocates %d times, budget %d (testdata/verify_clue_warm64_allocs_budget)", allocs, budget)
	}

	want := uint64(1) // the signed state
	for _, raw := range cr.Cold.Records {
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		want += uint64(1 + len(rec.CoSigners))
	}
	_, v0 := sig.OpCounts()
	if err := cr.Verify(cr.Cold.EncodeBytes(), ledger.Verifier{LSP: lsp}); err != nil {
		t.Fatal(err)
	}
	_, v1 := sig.OpCounts()
	t.Logf("cold 64-record clue verify: %d ECDSA verifies for %d signatures", v1-v0, want)
	if v1-v0 != want {
		t.Fatalf("cold 64-record clue verify ran %d ECDSA verifies, the reply carries %d signatures", v1-v0, want)
	}
}
