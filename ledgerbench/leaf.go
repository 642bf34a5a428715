package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// perCall is the mean duration of one call in nanoseconds, kept as a
// float so that a mean over n calls keeps its fractional digits.
type perCall float64

func (d perCall) ns() float64 { return float64(d) }
func (d perCall) us() float64 { return float64(d) / 1e3 }

func meanOf(total time.Duration, n int) perCall { return perCall(float64(total) / float64(n)) }

// timeN runs fn n times and returns the mean duration of one call.
func timeN(n int, fn func(i int) error) (perCall, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return meanOf(time.Since(t0), n), nil
}

// leafMetrics times the leaf layers by calling their public functions
// directly, with no HTTP in the way, on the engine the traced pass just
// drove (shard 0 when sharded) and on inputs of the run's own size and
// clue distribution. Each is the floor under one span-derived number.
func leafMetrics(p *pass, seed int64) (map[string]float64, error) {
	m := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))
	eng, ix := p.st.engines[0], p.st.indexes[0]
	lsp := eng.LSPPublic()
	size := eng.Size()
	member := sig.GenerateDeterministic(fmt.Sprintf("ledgerbench/leaf/%d", seed))

	// sig: the floor of every latency and of client CPU.
	digest := hashutil.Sum([]byte("ledgerbench"))
	var sg sig.Signature
	d, err := timeN(200, func(int) (err error) { sg, err = member.Sign(digest); return })
	if err != nil {
		return nil, err
	}
	m["sig.sign_us"] = d.us()
	if d, err = timeN(200, func(int) error { return sig.Verify(member.Public(), digest, sg) }); err != nil {
		return nil, err
	}
	m["sig.verify_us"] = d.us()

	// journal: per-record commit work and the admission hash.
	rec, err := eng.GetJournal(size - 1)
	if err != nil {
		return nil, err
	}
	d, _ = timeN(20000, func(int) error {
		enc := wire.GetWriter()
		rec.Encode(enc)
		_ = hashutil.Journal(enc.Bytes())
		wire.PutWriter(enc)
		return nil
	})
	m["journal.encode_digest_ns"] = d.ns()
	gen := NewGenerator(p.w, seed, -3)
	newReq := func() (*journal.Request, error) {
		op := gen.Of(KAppend)
		req := &journal.Request{
			LedgerURI: benchURI, Type: journal.TypeNormal, Clues: []string{clueName(op.Clues[0])},
			Payload: op.Payloads[0], Nonce: rng.Uint64(),
		}
		return req, req.Sign(member)
	}
	req, err := newReq()
	if err != nil {
		return nil, err
	}
	d, _ = timeN(20000, func(int) error { _ = req.Hash(); return nil })
	m["journal.request_hash_ns"] = d.ns()

	// ledger, read side: the server's share of proof, clue and query
	// latency, and the client's share (the pure verifiers).
	proofs := make([]*ledger.ExistenceProof, 512)
	if d, err = timeN(len(proofs), func(i int) (err error) {
		proofs[i], err = eng.ProveExistence(1+rng.Uint64()%(size-1), false)
		return
	}); err != nil {
		return nil, err
	}
	m["ledger.prove_existence_us"] = d.us()
	if d, err = timeN(len(proofs), func(i int) error { _, err := ledger.VerifyExistence(proofs[i], lsp); return err }); err != nil {
		return nil, err
	}
	m["ledger.verify_existence_us"] = d.us()
	if d, err = timeN(2048, func(int) error { _, err := eng.GetJournal(1 + rng.Uint64()%(size-1)); return err }); err != nil {
		return nil, err
	}
	m["ledger.get_journal_us"] = d.us()

	// Clues that exist on this engine (all of them on a single node).
	var clues []string
	for i := 0; i < clueSpace && len(clues) < 64; i++ {
		if recs, err := eng.ListClue(clueName(i)); err == nil && len(recs) > 0 {
			clues = append(clues, clueName(i))
		}
	}
	bundles := make([]*ledger.ClueProofBundle, len(clues))
	if d, err = timeN(len(clues), func(i int) (err error) {
		recs, err := eng.ListClue(clues[i])
		if err != nil {
			return err
		}
		n := uint64(len(recs))
		bundles[i], err = eng.ProveClue(clues[i], n-min(n, clueVersions), n)
		return err
	}); err != nil {
		return nil, err
	}
	m["ledger.prove_clue_us"] = d.us() // includes listing the clue to find its newest versions
	if d, err = timeN(len(bundles), func(i int) error { _, err := ledger.VerifyClue(bundles[i], lsp); return err }); err != nil {
		return nil, err
	}
	m["ledger.verify_clue_us"] = d.us()

	// Queries sync the index first; ingest the run's backlog up front so
	// the timing is of queries, not of one catch-up.
	if err := ix.Sync(); err != nil {
		return nil, err
	}
	results := make([]*ledger.QueryResult, len(clues))
	query := func(i int) ledger.Query {
		return ledger.Query{Kind: ledger.QueryByPrefix, Prefix: clues[i], Limit: queryLimit}
	}
	if d, err = timeN(len(clues), func(i int) (err error) { results[i], err = ix.Query(query(i)); return }); err != nil {
		return nil, err
	}
	m["index.query_us"] = d.us()
	var matched int
	if d, err = timeN(len(results), func(i int) error {
		recs, err := ledger.VerifyQueryResult(lsp, query(i), results[i])
		matched += len(recs)
		return err
	}); err != nil {
		return nil, err
	}
	m["ledger.verify_query_us"] = d.us()
	m["index.results_per_query"] = float64(matched) / float64(len(results))

	// ledger, write side. These run last: they grow the ledger.
	const appends, stateProbes = 256, 64
	var stateNS time.Duration
	reqs := make([]*journal.Request, appends)
	for i := range reqs {
		if reqs[i], err = newReq(); err != nil {
			return nil, err
		}
	}
	var appendNS time.Duration
	for i, r := range reqs {
		t0 := time.Now()
		if _, err := eng.Append(r); err != nil {
			return nil, err
		}
		appendNS += time.Since(t0)
		if i < stateProbes {
			// The append moved the generation, so this State call signs
			// afresh: the cost a proof pays on mixed_verify and never
			// on proof_read.
			t0 = time.Now()
			if _, err := eng.State(); err != nil {
				return nil, err
			}
			stateNS += time.Since(t0)
		}
	}
	m["ledger.append_us"] = meanOf(appendNS, appends).us()
	m["ledger.state_us"] = meanOf(stateNS, stateProbes).us()
	const batches = 8
	batchReqs := make([][]*journal.Request, batches)
	for b := range batchReqs {
		for j := 0; j < batchSize; j++ {
			r, err := newReq()
			if err != nil {
				return nil, err
			}
			batchReqs[b] = append(batchReqs[b], r)
		}
	}
	if d, err = timeN(batches, func(i int) error { _, _, err := eng.AppendBatch(batchReqs[i]); return err }); err != nil {
		return nil, err
	}
	m["ledger.append_batch32_us"] = d.us()

	famMetrics(m, size, rng)
	if err := cmtreeMetrics(m, p.w, seed, size); err != nil {
		return nil, err
	}
	if d, err = fsyncLatency(p.dir); err != nil {
		return nil, err
	}
	m["streamfs.fsync_us"] = d.us()
	return m, nil
}

func leafDigest(i uint64) hashutil.Digest {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return hashutil.Sum(b[:])
}

// famMetrics builds a fam tree of the run's size at the server's δ and
// times append, prove and verify on it. fam.path_len is the digests a
// verifier touches, the quantity the fam design shrinks; for a fixed
// seed it is exact.
func famMetrics(m map[string]float64, size uint64, rng *rand.Rand) {
	t := fam.MustNew(serverDefaults.Height)
	t0 := time.Now()
	for i := uint64(0); i < size; i++ {
		t.Append(leafDigest(i))
	}
	m["fam.append_ns"] = meanOf(time.Since(t0), int(size)).ns()
	root, _ := t.Root() // a non-empty tree has a root
	const n = 512
	idx := make([]uint64, n)
	proofs := make([]*fam.Proof, n)
	for i := range idx {
		idx[i] = rng.Uint64() % size
	}
	d, _ := timeN(n, func(i int) (err error) { proofs[i], err = t.Prove(idx[i]); return })
	m["fam.prove_us"] = d.us()
	var path int
	d, _ = timeN(n, func(i int) error {
		path += proofs[i].PathLen()
		return fam.Verify(leafDigest(idx[i]), proofs[i], root)
	})
	m["fam.verify_us"] = d.us()
	m["fam.path_len"] = float64(path) / n
}

// cmtreeMetrics replays size clue insertions drawn from the workload's
// Zipf distribution into a fresh CM-Tree and times insert, range proof
// and range verification over the newest clueVersions versions.
// cmtree.proof_entries counts frontier digests, range cells and CM-Tree1
// trie nodes per proof.
func cmtreeMetrics(m map[string]float64, w Workload, seed int64, size uint64) error {
	gen := NewGenerator(w, seed, -4)
	t := cmtree.New()
	digests := make(map[int][]hashutil.Digest)
	t0 := time.Now()
	for jsn := uint64(0); jsn < size; jsn++ {
		c := gen.clue()
		d := leafDigest(jsn)
		t.Insert(clueName(c), jsn, d)
		digests[c] = append(digests[c], d)
	}
	m["cmtree.insert_us"] = meanOf(time.Since(t0), int(size)).us()
	snap := t.Snapshot()
	root := snap.RootHash()
	const n = 64
	picks := make([]int, 0, n)
	for len(picks) < n {
		if c := gen.clue(); len(digests[c]) > 0 {
			picks = append(picks, c)
		}
	}
	proofs := make([]*cmtree.ClueProof, n)
	d, err := timeN(n, func(i int) (err error) {
		v := uint64(len(digests[picks[i]]))
		proofs[i], err = snap.ProveClue(clueName(picks[i]), v-min(v, clueVersions), v)
		return
	})
	if err != nil {
		return err
	}
	m["cmtree.prove_clue_us"] = d.us()
	var entries int
	if d, err = timeN(n, func(i int) error {
		p := proofs[i]
		entries += len(p.Frontier) + len(p.Cells) + len(p.MPT.Nodes)
		return cmtree.VerifyClue(root, p, digests[picks[i]][p.Begin:p.End])
	}); err != nil {
		return err
	}
	m["cmtree.verify_clue_us"] = d.us()
	m["cmtree.proof_entries"] = float64(entries) / n
	return nil
}

// fsyncLatency is the mean cost of making a 4 KiB append durable on the
// data dir's file system: the floor under any durable commit.
func fsyncLatency(dir string) (perCall, error) {
	fs := streamfs.OSFileSystem()
	path := filepath.Join(dir, "fsync-probe")
	f, err := fs.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		f.Close()
		_ = fs.Remove(path) // the whole dir is removed right after
	}()
	block := make([]byte, 4096)
	var total time.Duration
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return meanOf(total, n), nil
}
