package benchkit

import (
	"fmt"
	"math/rand"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
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
	return proofReadLedgerOn(streamfs.NewMemory(), streamfs.NewMemoryBlobs())
}

// proofReadLedgerOn builds the fixture over the given stores.
func proofReadLedgerOn(store streamfs.Store, blobs streamfs.BlobStore) (*TestLedger, []uint64, error) {
	tl, err := newTestLedgerOn("ledger://proof-read", proofReadHeight, proofReadBlock, store, blobs)
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
func benchProofBatch16(tl *TestLedger, jsns []uint64) (prove, verify HotPathResult) {
	var enc []byte
	prove = resultOf("proof-batch16-bytes", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch, err := tl.L.ProveExistenceBatch(jsns, false, ledger.Held{})
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

// ClueRead is the fixture's repeat clue read: the newest 64 versions of
// the hottest clue (the clue jsns[0] belongs to), proven for a client
// that holds none of them (Cold) and, by ProveHeld, for one that holds
// all 64 (every record a placeholder), with that client's held bytes
// (Get).
type ClueRead struct {
	Cold       *ledger.ClueProofBundle
	Get        func(jsn uint64) ([]byte, bool)
	l          *ledger.Ledger
	clue       string
	begin, end uint64
	held       ledger.Held
}

// NewClueRead sets the read up on the fixture ProofReadLedger returns.
func NewClueRead(tl *TestLedger, jsns []uint64) (*ClueRead, error) {
	rec, err := tl.L.GetJournal(jsns[0])
	if err != nil {
		return nil, err
	}
	cr := &ClueRead{l: tl.L, clue: rec.Clues[0]}
	lineage, err := tl.L.ListClue(cr.clue)
	if err != nil {
		return nil, err
	}
	cr.end = uint64(len(lineage))
	cr.begin = cr.end - min(cr.end, 64)
	if cr.Cold, err = tl.L.ProveClue(cr.clue, cr.begin, cr.end); err != nil {
		return nil, err
	}
	store := make(map[uint64][]byte, len(cr.Cold.Records))
	var named []uint64
	for i, r := range lineage[cr.begin:] {
		named = append(named, r.JSN)
		store[r.JSN] = cr.Cold.Records[i]
	}
	cr.held = ledger.NewHeld(named)
	cr.Get = func(jsn uint64) ([]byte, bool) { raw, ok := store[jsn]; return raw, ok }
	return cr, nil
}

// ProveHeld builds the reply for the client that holds all 64 records.
func (cr *ClueRead) ProveHeld() (*ledger.ClueProofBundle, error) {
	return cr.l.ProveClueHeld(cr.clue, cr.begin, cr.end, cr.held)
}

// Verify is what the client pays per reply: decode enc, fill its
// placeholders from the held bytes and verify it under v.
func (cr *ClueRead) Verify(enc []byte, v ledger.Verifier) error {
	bundle, err := ledger.DecodeClueProofBundle(enc)
	if err != nil {
		return err
	}
	if _, err := bundle.Fill(cr.Get); err != nil {
		return err
	}
	_, err = v.VerifyClue(bundle)
	return err
}

// benchClue64 measures the fixture's repeat clue read. The server
// builds and encodes the reply with all 64 records as placeholders
// (WireBytes is what it puts on the wire); the client decodes it, puts
// its held bytes back and verifies with the memo it carries from the
// read that filed them (warm). Cold is the same 64 versions sent in
// full to a client that holds and remembers nothing: 65 ECDSA checks.
func benchClue64(tl *TestLedger, jsns []uint64) (prove, warm, cold HotPathResult) {
	cr, err := NewClueRead(tl, jsns)
	if err != nil {
		panic(err)
	}
	var enc []byte
	prove = resultOf("clue-warm64-bytes", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bundle, err := cr.ProveHeld()
			if err != nil {
				b.Fatal(err)
			}
			enc = bundle.EncodeBytes()
		}
	}))
	prove.WireBytes = int64(len(enc))
	verify := func(name string, enc []byte, v ledger.Verifier) HotPathResult {
		return resultOf(name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cr.Verify(enc, v); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	ver := ledger.Verifier{LSP: tl.LSP.Public(), Memo: new(sig.Memo)}
	if _, err := ver.VerifyClue(cr.Cold); err != nil {
		panic(err)
	}
	warm = verify("verify-clue-warm64", enc, ver)
	cold = verify("verify-clue-cold64", cr.Cold.EncodeBytes(), ledger.Verifier{LSP: tl.LSP.Public()})
	return prove, warm, cold
}

// benchProofWarm measures the existence replies of a client that holds
// the fixture's signed state and the root of sealed epoch 0, which it
// learned from a cold proof (ledger.SealedRoot): for a journal of epoch
// 0 the in-epoch path alone with no state, for the newest journal (the
// open epoch) the cold path with the state left out. WireBytes is what
// each reply puts on the wire. verify-proof-warm is what the client pays
// for the epoch-0 reply: decode, fill, check against the learned root,
// and the record's π_c from scratch (a journal it has not read before).
func benchProofWarm(tl *TestLedger, jsns []uint64) (sealed, open, verify HotPathResult) {
	lsp := tl.LSP.Public()
	cold, err := tl.L.ProveExistence(jsns[0], false)
	if err != nil {
		panic(err)
	}
	rec, err := ledger.VerifyExistence(cold, lsp)
	if err != nil {
		panic(err)
	}
	epoch, root, ok := cold.SealedRoot(rec)
	if !ok || epoch != 0 {
		panic(fmt.Sprintf("benchkit: cold proof of jsn %d taught no epoch-0 root", jsns[0]))
	}
	roots := []hashutil.Digest{root}
	held := ledger.Held{State: cold.State.Digest(), Sealed: 1}
	measure := func(name string, jsn uint64, slot ledger.StateSlot) (HotPathResult, []byte) {
		var enc []byte
		r := resultOf(name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := tl.L.ProveExistenceHeld(jsn, false, held)
				if err != nil || p.Slot != slot {
					b.Fatalf("jsn %d: state slot %d, %v", jsn, p.Slot, err)
				}
				enc = p.EncodeBytes()
			}
		}))
		r.WireBytes = int64(len(enc))
		return r, enc
	}
	sealed, enc := measure("proof-warm-sealed-bytes", jsns[0], ledger.StateNone)
	open, _ = measure("proof-warm-open-bytes", tl.L.Size()-1, ledger.StateHeld)
	verify = resultOf("verify-proof-warm", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := ledger.DecodeExistenceProof(enc)
			if err == nil {
				err = p.FillState(cold.State, 1)
			}
			if err == nil {
				_, err = ledger.Verifier{LSP: lsp}.VerifyExistenceLearned(p, roots)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}))
	return sealed, open, verify
}
