package ledger_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"ledgerdb/internal/benchkit"
	"ledgerdb/internal/ledger"
)

// TestProofBatch16BytesBudget is the proof-size regression guard run by
// `scripts/check.sh perf`: on the deterministic 40 000-journal δ = 15
// fixture, the encoded existence batch for the 16 oldest versions of
// the hottest clue — what a Limit-16 query reply carries — must stay
// within testdata/proof_batch16_bytes_budget. The size repeats exactly
// between builds, so the budget is the measured value; lower it when
// proofs shrink, never raise it to admit a regression.
func TestProofBatch16BytesBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/proof_batch16_bytes_budget")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("bad budget file: %v", err)
	}
	tl, jsns, err := benchkit.ProofReadLedger()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := tl.L.ProveExistenceBatch(jsns, false)
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
