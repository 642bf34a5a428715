package ledger

import (
	"errors"
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
// Verifier holding the warm memo and through one without, and requires
// the same verdict — accept/reject, error classes, message — on every
// mutant. A memo that could turn one rejection into an acceptance, or
// change what a caller sees on failure, fails here.
func TestVerifierMemoDifferential(t *testing.T) {
	codecs, lsp := buildProofCodecs(t)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			cold := Verifier{LSP: lsp}
			warm := Verifier{LSP: lsp, Memo: new(sig.Memo)}
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
			mutants, rejected := 0, 0
			for _, mask := range []byte{0xFF, 0x01} {
				c.forEachByteFlip(mask, func(i int, v any) {
					want, got := verdict(c.verify(v, cold)), verdict(c.verify(v, warm))
					if got != want {
						t.Fatalf("byte %d ^ %#x:\n  nil memo:  %s\n  warm memo: %s", i, mask, want, got)
					}
					mutants++
					if want != "accept" {
						rejected++
					}
				})
			}
			t.Logf("%d decodable mutants of %d bytes, %d rejected, verdicts identical", mutants, len(c.enc), rejected)
		})
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
	if _, err := v.VerifyExistenceAnchored(ep, nil); err != nil {
		t.Fatal(err)
	}
	if _, again := v.Memo.Stats(); again != misses {
		t.Fatalf("existence proof of a record the clue proof covered ran %d ECDSA checks", again-misses)
	}
	// Same records, state re-signed by another key: every π_c hits, the
	// proof must still be refused.
	forged := *ep.State
	if err := forged.sign(sig.GenerateDeterministic("mallory")); err != nil {
		t.Fatal(err)
	}
	ep.State = &forged
	if _, err := v.VerifyExistenceAnchored(ep, nil); !errors.Is(err, journal.ErrBadSignature) {
		t.Fatalf("state signed by the wrong key under a warm memo: %v", err)
	}
}
