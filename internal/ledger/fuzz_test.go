package ledger

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/wire"
)

// Native go test -fuzz targets for the wire formats that cross the
// trust boundary most often: existence proofs (single and batched), clue
// lineage bundles, receipts, and absence proofs. The deterministic sweeps in
// codecfuzz_test.go enumerate
// every 1-byte truncation and flip of a VALID encoding; the fuzzer
// complements them by mutating far off the valid manifold, where
// structural fields (counts, lengths) take adversarial values.
//
// Invariant per target: the decoder never panics, and when it accepts an
// input, re-encoding is a fixpoint — decode(encode(decode(x))) yields
// the same bytes as encode(decode(x)). (Strict input round-tripping is
// deliberately NOT asserted: verification recomputes digests from the
// decoded content, so a leniently-decoded non-minimal varint is not a
// soundness hole, but an unstable re-encoding would be.)
//
// The checked-in seed corpus lives in testdata/fuzz/<FuzzName>/ — the
// native corpus location — so plain `go test` replays the seeds as
// regression inputs even without -fuzz. Regenerate the valid-proof seeds
// with LEDGERDB_REGEN_FUZZ_CORPUS=1 go test -run TestRegenFuzzCorpus.

// buildFuzzSeeds builds one small ledger and returns valid encodings of
// the four fuzzed formats.
func buildFuzzSeeds(tb testing.TB) (existence, clueBundle, receipt, absence []byte) {
	tb.Helper()
	e := newEnv(tb, nil)
	var rc *journal.Receipt
	for i := 0; i < 5; i++ {
		rc = e.append(tb, fmt.Sprintf("doc-%d", i), "K")
	}
	ep, err := e.ledger.ProveExistence(3, true)
	if err != nil {
		tb.Fatal(err)
	}
	cb, err := e.ledger.ProveClue("K", 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	ap, err := e.ledger.ProveAbsence("J", false) // between genesis and "K": both neighbors present
	if err != nil {
		tb.Fatal(err)
	}
	w := wire.NewWriter(256)
	rc.Encode(w)
	return ep.EncodeBytes(), cb.EncodeBytes(), w.Bytes(), ap.EncodeBytes()
}

func FuzzDecodeExistenceProof(f *testing.F) {
	seed, _, _, _ := buildFuzzSeeds(f)
	f.Add(seed)
	held := buildHeldFixture(f)
	f.Add(held.sealed.EncodeBytes())  // no state: a learned epoch's in-epoch path
	f.Add(held.open.EncodeBytes())    // the requester's state held back
	f.Add(held.heldRec.EncodeBytes()) // the requester's record held back: a placeholder
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeExistenceProof(data)
		if err != nil {
			return
		}
		enc := p.EncodeBytes()
		p2, err := DecodeExistenceProof(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted proof failed: %v", err)
		}
		if !bytes.Equal(p2.EncodeBytes(), enc) {
			t.Fatal("existence proof encoding is not a fixpoint")
		}
	})
}

func FuzzDecodeClueBundle(f *testing.F) {
	_, seed, _, _ := buildFuzzSeeds(f)
	f.Add(seed)
	f.Add(buildHeldFixture(f).warmClue.EncodeBytes()) // records left out as placeholders
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeClueProofBundle(data)
		if err != nil {
			return
		}
		enc := b.EncodeBytes()
		b2, err := DecodeClueProofBundle(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted bundle failed: %v", err)
		}
		if !bytes.Equal(b2.EncodeBytes(), enc) {
			t.Fatal("clue bundle encoding is not a fixpoint")
		}
	})
}

func FuzzDecodeReceipt(f *testing.F) {
	_, _, seed, _ := buildFuzzSeeds(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		rc, err := journal.DecodeReceipt(r)
		if err != nil {
			return
		}
		w := wire.NewWriter(len(data))
		rc.Encode(w)
		enc := w.Bytes()
		rc2, err := journal.DecodeReceipt(wire.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of accepted receipt failed: %v", err)
		}
		w2 := wire.NewWriter(len(enc))
		rc2.Encode(w2)
		if !bytes.Equal(w2.Bytes(), enc) {
			t.Fatal("receipt encoding is not a fixpoint")
		}
	})
}

// FuzzDecodeAbsenceProof covers the newest boundary format: the
// authenticated-absence proof, whose neighbor paths and indices take
// adversarial values far off the sorted-commitment manifold.
func FuzzDecodeAbsenceProof(f *testing.F) {
	_, _, _, seed := buildFuzzSeeds(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeAbsenceProof(data)
		if err != nil {
			return
		}
		enc := p.EncodeBytes()
		p2, err := DecodeAbsenceProof(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted proof failed: %v", err)
		}
		if !bytes.Equal(p2.EncodeBytes(), enc) {
			t.Fatal("absence proof encoding is not a fixpoint")
		}
	})
}

// FuzzDecodeExistenceProofBatch covers the shared-node batch proof. On
// top of the fixpoint invariant it drives the fam walk itself — which
// the state signature shields from hostile sizes in VerifyExistenceBatch
// — with whatever height, size and node list the fuzzer decoded: it must
// return, never panic or spin.
func FuzzDecodeExistenceProofBatch(f *testing.F) {
	seed, _ := buildSealedBatchFixture(f)
	f.Add(seed.EncodeBytes())
	f.Add(buildHeldFixture(f).warmQuery.Batch.EncodeBytes()) // records left out as placeholders
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeExistenceProofBatch(data)
		if err != nil {
			return
		}
		enc := b.EncodeBytes()
		b2, err := DecodeExistenceProofBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if !bytes.Equal(b2.EncodeBytes(), enc) {
			t.Fatal("existence batch encoding is not a fixpoint")
		}
		leaves := make([]fam.Leaf, 0, len(b.Items))
		for i := range b.Items {
			if rec, err := journal.DecodeRecord(b.Items[i].RecordBytes); err == nil {
				leaves = append(leaves, fam.Leaf{Index: rec.JSN, Digest: rec.TxHash()})
			}
		}
		var root hashutil.Digest // a held state is the requester's: any root will do
		if b.State != nil {
			root = b.State.JournalRoot
		}
		_ = fam.VerifyBatch(leaves, b.Fam, root) // any verdict; it must come back
	})
}

// TestRegenFuzzCorpus rewrites the valid-proof seed entries of the
// checked-in corpus. Gated behind an env var because the ECDSA
// signatures inside the encodings are randomized, so every run produces
// different (equally valid) bytes.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("LEDGERDB_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set LEDGERDB_REGEN_FUZZ_CORPUS=1 to rewrite the testdata/fuzz seed corpus")
	}
	existence, clueBundle, receipt, absence := buildFuzzSeeds(t)
	bundle := buildBundleSeed(t)
	batch, _ := buildSealedBatchFixture(t)
	for name, data := range map[string][]byte{
		"FuzzDecodeExistenceProof": existence,
		"FuzzDecodeClueBundle":     clueBundle,
		"FuzzDecodeReceipt":        receipt,
		"FuzzDecodeAbsenceProof":   absence,
		"FuzzDecodeProofBundle":    bundle,

		"FuzzDecodeExistenceProofBatch": batch.EncodeBytes(),
	} {
		dir := filepath.Join("testdata", "fuzz", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "valid-proof"), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		// A truncated-in-half variant seeds the error paths.
		entry = "go test fuzz v1\n[]byte(" + strconv.Quote(string(data[:len(data)/2])) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "truncated-proof"), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Replies that leave held records out, one per codec that can.
	held := buildHeldFixture(t)
	for name, data := range map[string][]byte{
		"FuzzDecodeClueBundle":          held.warmClue.EncodeBytes(),
		"FuzzDecodeExistenceProofBatch": held.warmQuery.Batch.EncodeBytes(),
		"FuzzDecodeExistenceProof":      held.heldRec.EncodeBytes(),
	} {
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", name, "held-placeholders"), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
