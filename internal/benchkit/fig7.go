package benchkit

import (
	"fmt"
	"time"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/merkle/accumulator"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

// Figure 7: latency breakdown of a Dasein audit over 1000 sequential
// journals, split into the three factors:
//
//	what — fam existence verification + payload digest check,
//	when — time-evidence verification (TSA-direct vs T-Ledger),
//	who  — client signature (and co-signature) re-verification.
//
// The when scenarios model evidence *retrieval* cost explicitly: a
// direct TSA interaction is an external authority round trip
// (tsaFetch), while T-Ledger evidence is a local public-cloud service
// read (tlFetch). Both constants are printed in the table note; all
// cryptographic work is really performed and timed.
const (
	fig7Journals = 1000
	tsaFetch     = 5 * time.Millisecond  // external TSA evidence fetch
	tlFetch      = 50 * time.Microsecond // public T-Ledger evidence read
)

// fig7Workload is a pre-built batch of journal records with their fam
// tree, proofs, and payloads.
type fig7Workload struct {
	records  []*journal.Record
	payloads [][]byte
	tree     *fam.Tree
	proofs   []*fam.BatchProof
	roots    []hashutil.Digest // the root each proof folds to
}

func buildFig7Workload(payloadSize, signers int) *fig7Workload {
	client := sig.GenerateDeterministic("fig7/client")
	coSigners := make([]*sig.KeyPair, signers-1)
	for i := range coSigners {
		coSigners[i] = sig.GenerateDeterministic(fmt.Sprintf("fig7/co/%d", i))
	}
	w := &fig7Workload{tree: fam.MustNew(10)}
	for i := 0; i < fig7Journals; i++ {
		payload := Payload("fig7", i, payloadSize)
		req := &journal.Request{
			LedgerURI: "ledger://fig7",
			Type:      journal.TypeNormal,
			Payload:   payload,
			Nonce:     uint64(i),
		}
		if err := req.Sign(client); err != nil {
			panic(err)
		}
		for _, kp := range coSigners {
			if err := req.CoSign(kp); err != nil {
				panic(err)
			}
		}
		rec := &journal.Record{
			JSN:           uint64(i),
			Type:          journal.TypeNormal,
			Timestamp:     int64(i),
			RequestHash:   req.Hash(),
			PayloadDigest: hashutil.Sum(payload),
			PayloadSize:   uint64(len(payload)),
			ClientPK:      req.ClientPK,
			ClientSig:     req.ClientSig,
			CoSigners:     req.CoSigners,
		}
		w.records = append(w.records, rec)
		w.payloads = append(w.payloads, payload)
		w.tree.Append(rec.TxHash())
	}
	live, err := w.tree.Root()
	if err != nil {
		panic(err)
	}
	for i := range w.records {
		p, root, err := ProveAOA(w.tree, uint64(i), live)
		if err != nil {
			panic(err)
		}
		w.proofs, w.roots = append(w.proofs, p), append(w.roots, root)
	}
	return w
}

// whatLatency verifies every journal's existence and payload digest.
func (w *fig7Workload) whatLatency() time.Duration {
	start := time.Now()
	for i, rec := range w.records {
		if err := fam.VerifyBatch([]fam.Leaf{{Index: rec.JSN, Digest: rec.TxHash()}}, w.proofs[i], w.roots[i]); err != nil {
			panic(err)
		}
		if hashutil.Sum(w.payloads[i]) != rec.PayloadDigest {
			panic("payload mismatch")
		}
	}
	return time.Since(start)
}

// whoLatency re-verifies every journal's signatures.
func (w *fig7Workload) whoLatency() time.Duration {
	start := time.Now()
	for _, rec := range w.records {
		if err := journal.VerifyRecordSigs(rec); err != nil {
			panic(err)
		}
	}
	return time.Since(start)
}

// whenLatencyTSA verifies per-journal direct TSA attestations: one
// external evidence fetch plus one signature check per journal.
func (w *fig7Workload) whenLatencyTSA() time.Duration {
	clock := logicalclock.New(1)
	authority := tsa.New("fig7", tsa.Options{Clock: clock.Tick})
	atts := make([]*journal.TimeAttestation, len(w.records))
	for i, rec := range w.records {
		ta, err := authority.Stamp(rec.TxHash())
		if err != nil {
			panic(err)
		}
		atts[i] = ta
	}
	start := time.Now()
	for _, ta := range atts {
		if err := ta.Verify(); err != nil {
			panic(err)
		}
	}
	return time.Since(start) + time.Duration(len(atts))*tsaFetch
}

// whenLatencyTL verifies T-Ledger evidence at the given submission TPS:
// journals share a TSA finalization per Δτ window, so the expensive TSA
// signature check amortizes over tps journals; per-journal work is the
// cheap inclusion path plus the T-Ledger entry signature.
func (w *fig7Workload) whenLatencyTL(tps int) time.Duration {
	clock := logicalclock.New(1)
	authority := tsa.New("fig7-tl", tsa.Options{Clock: clock.Now})
	tl, err := tledger.New(tledger.Config{
		Clock:     clock.Now,
		Tolerance: 10,
		TSA:       tsa.NewPool(authority),
	})
	if err != nil {
		panic(err)
	}
	notarySigs := make([]*journal.TimeAttestation, len(w.records))
	for i, rec := range w.records {
		entry, ta, err := tl.Submit("ledger://fig7", rec.TxHash(), clock.Now())
		if err != nil {
			panic(err)
		}
		notarySigs[i] = ta
		if int(entry.Seq+1)%tps == 0 {
			clock.Advance(1) // Δτ elapses
			if _, err := tl.Finalize(); err != nil {
				panic(err)
			}
		}
	}
	if _, err := tl.Finalize(); err != nil {
		panic(err)
	}
	trusted := []sig.PublicKey{authority.Public()}

	start := time.Now()
	verifiedWindows := make(map[uint64]bool)
	fetches := 0
	for i := range w.records {
		// The T-Ledger's own notary signature for this journal.
		if err := notarySigs[i].Verify(); err != nil {
			panic(err)
		}
		proof, err := tl.ProveTime(uint64(i))
		if err != nil {
			panic(err)
		}
		if verifiedWindows[proof.Covering.Index] {
			// Finalization already verified: only the inclusion path.
			if err := accumulator.Verify(entryDigest(proof.Entry), proof.Inclusion, proof.Covering.Root); err != nil {
				panic(err)
			}
			continue
		}
		if _, _, err := tledger.VerifyTimeProof(proof, trusted); err != nil {
			panic(err)
		}
		verifiedWindows[proof.Covering.Index] = true
		fetches++
	}
	return time.Since(start) + time.Duration(fetches)*tlFetch
}

// Fig7 produces the full breakdown table.
func Fig7() *Table {
	t := &Table{
		Title: "Figure 7: Dasein verification latency breakdown, audit of 1000 sequential journals",
		Note: fmt.Sprintf("evidence retrieval model: direct TSA fetch = %v/attestation, T-Ledger read = %v/window; all signatures/hashes really verified",
			tsaFetch, tlFetch),
		Header: []string{"scenario", "what", "when", "who", "total"},
	}
	add := func(name string, what, when, who time.Duration) {
		t.AddRow(name,
			fmt.Sprintf("%.1fms", what.Seconds()*1000),
			fmt.Sprintf("%.1fms", when.Seconds()*1000),
			fmt.Sprintf("%.1fms", who.Seconds()*1000),
			fmt.Sprintf("%.1fms", (what+when+who).Seconds()*1000))
	}

	// Left bars: the when factor (256B payloads, Sig-1).
	base := buildFig7Workload(256, 1)
	what := base.whatLatency()
	who := base.whoLatency()
	add("when: TSA (direct)", what, base.whenLatencyTSA(), who)
	add("when: TL-1", what, base.whenLatencyTL(1), who)
	add("when: TL-10", what, base.whenLatencyTL(10), who)

	// Middle bars: the what factor (payload sweep on TL-1, Sig-1).
	for _, size := range []int{256, 4 << 10, 64 << 10, 256 << 10} {
		w := buildFig7Workload(size, 1)
		add(fmt.Sprintf("what: payload %s", byteLabel(size)),
			w.whatLatency(), w.whenLatencyTL(1), w.whoLatency())
	}

	// Right bars: the who factor (signer sweep on TL-1, 256B).
	for _, signers := range []int{1, 3, 5, 7} {
		w := buildFig7Workload(256, signers)
		add(fmt.Sprintf("who: Sig-%d", signers),
			w.whatLatency(), w.whenLatencyTL(1), w.whoLatency())
	}
	return t
}

func byteLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// entryDigest re-derives a T-Ledger entry's accumulator leaf; exported
// from tledger only through the proof, so recompute it here the same way.
func entryDigest(e *tledger.Entry) hashutil.Digest {
	return tledger.EntryLeafDigest(e)
}
