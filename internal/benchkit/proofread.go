package benchkit

import (
	"fmt"
	"math/rand"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
)

// The constants below size the proof-size fixture
// like the end-to-end benchmark's read workload: 40 000 journals at the
// server's δ = 15 and block size 128, 256-byte payloads, one clue per
// journal drawn Zipf(1.1) from 1000 names after a first pass that gives
// every name one version. At this size the ledger has sealed exactly one
// fam epoch, so a proof of an early journal pays the merged-leaf hop.
const (
	proofReadJournals = 40000
	proofReadHeight   = 15
	proofReadBlock    = 128
	proofReadClues    = 1000
	proofReadBatch    = 32
	// proofReadBatch16 is the match limit of the benchmark's queries.
	proofReadBatch16 = 16
)

func proofReadClue(i int) string { return fmt.Sprintf("c%04d", i) }

// proofReadZipf is the fixture's seeded clue draw.
func proofReadZipf() *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(15)), 1.1, 1, proofReadClues-1)
}

// ProofReadLedger builds the deterministic proof-size fixture and
// returns it with the jsns a Limit-16 prefix query for its hottest clue
// matches (the clue's 16 oldest versions). Keys, clock, clue draw and
// payloads are all seeded, so record sizes and fam positions — and
// therefore every encoded proof size — repeat exactly; only signature
// bytes differ between builds.
func ProofReadLedger() (*TestLedger, []uint64, error) {
	tl, err := NewTestLedger("ledger://proof-read", proofReadHeight, proofReadBlock)
	if err != nil {
		return nil, nil, err
	}
	zipf := proofReadZipf()
	versions := make([][]uint64, proofReadClues)
	for done := 0; done < proofReadJournals; done += proofReadBatch {
		reqs := make([]*journal.Request, proofReadBatch)
		clues := make([]int, proofReadBatch)
		for j := range reqs {
			clues[j] = int(zipf.Uint64())
			if done+j < proofReadClues {
				clues[j] = done + j
			}
			if reqs[j], err = tl.Request(Payload("proof-read", done+j, 256), []string{proofReadClue(clues[j])}, nil); err != nil {
				return nil, nil, err
			}
		}
		br, _, err := tl.L.AppendBatch(reqs)
		if err != nil {
			return nil, nil, err
		}
		for j, c := range clues {
			versions[c] = append(versions[c], br.FirstJSN+uint64(j))
		}
	}
	hottest := versions[0]
	for _, v := range versions {
		if len(v) > len(hottest) {
			hottest = v
		}
	}
	if len(hottest) < proofReadBatch16 {
		return nil, nil, fmt.Errorf("benchkit: hottest clue has %d versions", len(hottest))
	}
	return tl, hottest[:proofReadBatch16], nil
}

// benchProofBatch16 measures the multi-record reply the query path
// serves on the proof-size fixture: building and encoding the 16-match
// batch (server side; WireBytes is what it puts on the wire) and
// decoding and verifying it cold (client side).
func benchProofBatch16() (prove, verify HotPathResult) {
	tl, jsns, err := ProofReadLedger()
	if err != nil {
		panic(err)
	}
	var enc []byte
	prove = resultOf("proof-batch16-bytes", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch, err := tl.L.ProveExistenceBatch(jsns, false)
			if err != nil {
				b.Fatal(err)
			}
			enc = batch.EncodeBytes()
		}
	}))
	prove.WireBytes = int64(len(enc))
	lsp := tl.LSP.Public()
	verify = resultOf("verify-batch16", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch, err := ledger.DecodeExistenceProofBatch(enc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ledger.VerifyExistenceBatch(batch, lsp); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return prove, verify
}
