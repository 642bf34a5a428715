package ledger_test

import (
	"fmt"
	"testing"

	"ledgerdb/internal/benchkit"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/wire"
)

// stateFixture is a ledger whose 256 journals each set their own state
// key acct-000 … acct-255, and the state proof of acct-042.
func stateFixture(t *testing.T) (*benchkit.TestLedger, *ledger.StateProof) {
	t.Helper()
	tl, err := benchkit.NewTestLedger("ledger://state", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		req, err := tl.Request([]byte(fmt.Sprintf("balance=%d", i)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.StateKey = []byte(fmt.Sprintf("acct-%03d", i))
		if err := req.Sign(tl.Client); err != nil {
			t.Fatal(err)
		}
		if _, err := tl.L.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	p, err := tl.L.ProveState([]byte("acct-042"))
	if err != nil {
		t.Fatal(err)
	}
	return tl, p
}

// TestStateProofBytesBudget is the state-proof size guard run by
// `scripts/check.sh perf`: the encoded proof of one key on the 256-key
// fixture stays within testdata/state_proof_bytes_budget. The size
// repeats exactly between builds, so the budget is the measured value;
// lower it when proofs shrink, never raise it to admit a regression.
func TestStateProofBytesBudget(t *testing.T) {
	budget := readBudget(t, "testdata/state_proof_bytes_budget")
	tl, p := stateFixture(t)
	if _, _, err := ledger.VerifyState(p, tl.LSP.Public()); err != nil {
		t.Fatal(err)
	}
	n := len(p.EncodeBytes())
	t.Logf("state proof on 256 keys: %d bytes, %d path steps (budget %d bytes)", n, len(p.MPT.Nodes), budget)
	if n > budget {
		t.Fatalf("state proof encodes to %d bytes, budget %d (testdata/state_proof_bytes_budget)", n, budget)
	}
}

// TestStateProofPathMutations sweeps the state MPT path inside an
// encoded state proof: every byte flipped, the path cut short at every
// byte, and a byte inserted at every position of it — each mutant is
// refused by DecodeStateProof or VerifyState. So are the proof under
// another key and under another value.
func TestStateProofPathMutations(t *testing.T) {
	tl, p := stateFixture(t)
	enc := p.EncodeBytes()
	w := wire.NewWriter(512)
	w.WriteBytes(p.Key)
	w.WriteBytes(p.Value)
	from := w.Len()
	p.MPT.Encode(w)
	to := w.Len()
	check := func(b []byte) error {
		got, err := ledger.DecodeStateProof(b)
		if err != nil {
			return err
		}
		_, _, err = ledger.VerifyState(got, tl.LSP.Public())
		return err
	}
	if err := check(enc); err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(enc))
	for i := from; i < to; i++ {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			copy(mut, enc)
			mut[i] ^= mask
			if check(mut) == nil {
				t.Fatalf("path byte %d ^ %#02x accepted", i-from, mask)
			}
		}
		if check(append(append([]byte(nil), enc[:i]...), enc[to:]...)) == nil {
			t.Fatalf("path cut at byte %d accepted", i-from)
		}
	}
	for i := from; i <= to; i++ {
		for _, b := range []byte{0x00, 0x01, 0x81, 0xFF} {
			if check(append(append(append([]byte(nil), enc[:i]...), b), enc[i:]...)) == nil {
				t.Fatalf("byte %#02x inserted at path byte %d accepted", b, i-from)
			}
		}
	}
	other := *p
	other.Key = []byte("acct-043")
	if _, _, err := ledger.VerifyState(&other, tl.LSP.Public()); err == nil {
		t.Fatal("acct-042's path accepted for acct-043")
	}
	next, err := tl.L.ProveState([]byte("acct-043"))
	if err != nil {
		t.Fatal(err)
	}
	other = *p
	other.Value = next.Value
	if _, _, err := ledger.VerifyState(&other, tl.LSP.Public()); err == nil {
		t.Fatal("acct-042's path accepted for another value")
	}
}
