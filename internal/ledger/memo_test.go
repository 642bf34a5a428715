package ledger

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
)

// verdict reduces a verifier outcome to what a caller can observe: the
// accept/reject bit, the sentinel classes errors.Is reports, and the
// message.
func verdict(err error) string {
	if err == nil {
		return "accept"
	}
	var classes []string
	for _, c := range []struct {
		name string
		err  error
	}{
		{"ErrVerify", ErrVerify},
		{"journal.ErrBadSignature", journal.ErrBadSignature},
		{"journal.ErrDecode", journal.ErrDecode},
		{"sig.ErrBadSignature", sig.ErrBadSignature},
		{"sig.ErrBadKey", sig.ErrBadKey},
	} {
		if errors.Is(err, c.err) {
			classes = append(classes, c.name)
		}
	}
	return "reject[" + strings.Join(classes, ",") + "] " + err.Error()
}

// TestVerifierMemoDifferential is the memo's soundness test. For every
// proof shape a client verifies it warms a memo on the valid proof,
// checks that re-verifying it costs no ECDSA, then runs the single-byte
// mutation sweep (every byte, inverted and low-bit-flipped) through a
// Verifier holding the warm memo, through one whose memo holds only the
// π_c the writer filed when it signed (sig.Memo.Signed), and through
// one without, and requires the same verdict — accept/reject, error
// classes, message — on every mutant. A memo that could turn one
// rejection into an acceptance, or change what a caller sees on
// failure, fails here.
func TestVerifierMemoDifferential(t *testing.T) {
	codecs, lsp, signed := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			atProcs(t, func(note func(string)) {
				cold := Verifier{LSP: lsp}
				warm := Verifier{LSP: lsp, Memo: new(sig.Memo)}
				own := Verifier{LSP: lsp, Memo: new(sig.Memo)}
				own.Memo.Signed(signed...)
				orig, err := c.decode(c.enc)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.verify(orig, warm); err != nil {
					t.Fatalf("valid proof under an empty memo: %v", err)
				}
				_, misses := warm.Memo.Stats()
				if misses == 0 {
					t.Fatal("verification reached no memoised signature check")
				}
				if err := c.verify(orig, warm); err != nil {
					t.Fatalf("valid proof under a warm memo: %v", err)
				}
				if _, again := warm.Memo.Stats(); again != misses {
					t.Fatalf("re-verifying the same proof ran %d ECDSA checks", again-misses)
				}
				if err := c.verify(orig, own); err != nil {
					t.Fatalf("valid proof under the signer's memo: %v", err)
				}
				if _, ownMisses := own.Memo.Stats(); ownMisses > misses {
					t.Fatalf("the signer's memo ran %d ECDSA checks on the valid proof, an empty one %d", ownMisses, misses)
				}
				mutants, rejected := 0, 0
				for _, mask := range []byte{0xFF, 0x01} {
					c.forEachByteFlip(mask, func(i int, v any) {
						want, got := verdict(c.verify(v, cold)), verdict(c.verify(v, warm))
						if got != want {
							t.Fatalf("byte %d ^ %#x:\n  nil memo:  %s\n  warm memo: %s", i, mask, want, got)
						}
						if got := verdict(c.verify(v, own)); got != want {
							t.Fatalf("byte %d ^ %#x:\n  nil memo:    %s\n  signer memo: %s", i, mask, want, got)
						}
						note(want)
						mutants++
						if want != "accept" {
							rejected++
						}
					})
				}
				t.Logf("%d decodable mutants of %d bytes, %d rejected, verdicts identical", mutants, len(c.enc), rejected)
			})
		})
	}
}

// atProcs runs sweep once at GOMAXPROCS 1 and once at 4 and requires
// both runs to note the same verdicts in the same order: fanning the
// signature checks of a reply out over the cores (par.Each) must not
// change what a verifier says about any input, message included.
func atProcs(t *testing.T, sweep func(note func(verdict string))) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var runs [2][]string
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		sweep(func(v string) { runs[i] = append(runs[i], v) })
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("GOMAXPROCS 1 noted %d verdicts, GOMAXPROCS 4 noted %d", len(runs[0]), len(runs[1]))
	}
	for j := range runs[0] {
		if runs[0][j] != runs[1][j] {
			t.Fatalf("verdict %d differs:\n  GOMAXPROCS 1: %s\n  GOMAXPROCS 4: %s", j, runs[0][j], runs[1][j])
		}
	}
}

// TestVerifyClueFoldsBeforeSignatures: a 64-record clue bundle whose
// lineage carries one forged node is refused as a lineage failure
// before a single ECDSA check runs.
func TestVerifyClueFoldsBeforeSignatures(t *testing.T) {
	e := newEnv(t, nil)
	reqs := make([]*journal.Request, 64)
	for i := range reqs {
		reqs[i] = e.request(t, fmt.Sprintf("version-%d", i), "K")
	}
	if _, _, err := e.ledger.AppendBatch(reqs); err != nil {
		t.Fatal(err)
	}
	b, err := e.ledger.ProveClue("K", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 64 || len(b.CM.Frontier) == 0 {
		t.Fatalf("fixture: %d records, %d frontier nodes", len(b.Records), len(b.CM.Frontier))
	}
	b.CM.Frontier[0][7] ^= 1
	_, before := sig.OpCounts()
	_, err = Verifier{LSP: e.lsp.Public(), Memo: new(sig.Memo)}.VerifyClue(b)
	_, after := sig.OpCounts()
	if !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), "lineage") {
		t.Fatalf("forged lineage node: %v, want a lineage failure", err)
	}
	if after != before {
		t.Fatalf("a forged lineage ran %d ECDSA verifies before it was refused, want 0", after-before)
	}
}

// TestVerifierMemoAcrossShapes: one memo serves every shape, so a
// signature first checked inside one proof is a hit inside another —
// and a proof of the same records under a forged state still fails.
func TestVerifierMemoAcrossShapes(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 6; i++ {
		e.append(t, "doc", "K")
	}
	v := Verifier{LSP: e.lsp.Public(), Memo: new(sig.Memo)}
	cb, err := e.ledger.ProveClue("K", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyClue(cb); err != nil {
		t.Fatal(err)
	}
	_, misses := v.Memo.Stats()
	if misses != 7 { // one state + six π_c
		t.Fatalf("clue proof of 6 records ran %d ECDSA checks, want 7", misses)
	}
	ep, err := e.ledger.ProveExistence(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyExistenceLearned(ep, nil); err != nil {
		t.Fatal(err)
	}
	if _, again := v.Memo.Stats(); again != misses {
		t.Fatalf("existence proof of a record the clue proof covered ran %d ECDSA checks", again-misses)
	}
	// Same records, state re-signed by another key: every π_c hits, the
	// proof must still be refused.
	forged := *ep.State
	if _, err := forged.sign(sig.GenerateDeterministic("mallory")); err != nil {
		t.Fatal(err)
	}
	ep.State = &forged
	if _, err := v.VerifyExistenceLearned(ep, nil); !errors.Is(err, journal.ErrBadSignature) {
		t.Fatalf("state signed by the wrong key under a warm memo: %v", err)
	}
}
