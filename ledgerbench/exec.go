package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ledgerdb/internal/client"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/ledger"
)

// receipt is what a client keeps of an acknowledged journal: enough to
// ask for its proof later and to tell whether the proven record is the
// one that was acknowledged.
type receipt struct {
	shard int
	jsn   uint64
	tx    hashutil.Digest
}

// ledgerView is the harness's knowledge of the ledger, built only from
// verified acknowledgements: it never asks the server what exists.
// Because an ack follows the commit, every target derived from it is
// already provable.
type ledgerView struct {
	sharded   bool
	size      atomic.Uint64 // single node: highest acked jsn + 1
	clueCount [clueSpace]atomic.Uint64
	userBytes atomic.Uint64 // payload bytes acknowledged since the dir was created

	mu       sync.Mutex
	receipts []receipt // sample pool for proof targets and re-verification gates
}

func (v *ledgerView) acked(shard int, jsn uint64, tx hashutil.Digest, clue int) {
	if !v.sharded {
		for {
			cur := v.size.Load()
			if jsn < cur || v.size.CompareAndSwap(cur, jsn+1) {
				break
			}
		}
	}
	v.clueCount[clue].Add(1)
	v.userBytes.Add(payloadSize)
	v.mu.Lock()
	v.receipts = append(v.receipts, receipt{shard, jsn, tx})
	v.mu.Unlock()
}

func (v *ledgerView) receiptAt(pick uint64) receipt {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.receipts[pick%uint64(len(v.receipts))]
}

func (v *ledgerView) receiptCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.receipts)
}

// errWrongAnswer marks a reply that verified cryptographically but does
// not answer the question asked (wrong jsn, wrong record, wrong count).
var errWrongAnswer = errors.New("ledgerbench: verified reply does not match the request")

// executor runs generated ops through one client.Client. One executor
// belongs to one goroutine.
type executor struct {
	cl   *client.Client
	w    Workload
	view *ledgerView
	// staleRetries counts global proofs re-asked because the fold did
	// not cover the receipt yet (latency, not failure).
	staleRetries int
}

// do executes one op and returns nil only if the reply verified and
// answers the op.
func (e *executor) do(op Op) error {
	switch op.Kind {
	case KAppend:
		shard, rc, err := e.cl.AppendRouted(op.Payloads[0], clueName(op.Clues[0]))
		if err != nil {
			return err
		}
		e.view.acked(shard, rc.JSN, rc.TxHash, op.Clues[0])
		return nil
	case KBatch:
		return e.batch(op)
	case KProof:
		return e.proof(op.Pick)
	case KClue:
		n := e.view.clueCount[op.Clues[0]].Load()
		begin := n - min(n, clueVersions)
		recs, err := e.cl.VerifyClue(clueName(op.Clues[0]), begin, n)
		if err != nil {
			return err
		}
		if uint64(len(recs)) != n-begin {
			return fmt.Errorf("%w: clue proof covers %d versions, asked %d", errWrongAnswer, len(recs), n-begin)
		}
		return nil
	case KQuery:
		q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: clueName(op.Clues[0]), Limit: queryLimit}
		recs, err := e.cl.QueryRecords(q)
		if err != nil {
			return err
		}
		// Every clue has a version from set-up on at least one shard;
		// each shard answers with at most queryLimit.
		if len(recs) == 0 || len(recs) > queryLimit*e.w.Shards {
			return fmt.Errorf("%w: query returned %d records", errWrongAnswer, len(recs))
		}
		return nil
	}
	return fmt.Errorf("ledgerbench: unknown op kind %d", op.Kind)
}

func (e *executor) batch(op Op) error {
	clues := make([][]string, len(op.Clues))
	for i, c := range op.Clues {
		clues[i] = []string{clueName(c)}
	}
	receipts, hashes, err := e.cl.AppendBatchSharded(op.Payloads, clues)
	if err != nil {
		return err
	}
	// Sub-batches keep submission order within a shard, but which clue
	// went to which shard is the partitioner's business; crediting the
	// clue counts in submission order is exact on a single node (the
	// only place clue proofs run).
	i := 0
	for shard, br := range receipts {
		for j, tx := range hashes[shard] {
			e.view.acked(shard, br.FirstJSN+uint64(j), tx, op.Clues[i])
			i++
		}
	}
	return nil
}

func (e *executor) proof(pick uint64) error {
	if e.view.sharded {
		r := e.view.receiptAt(pick)
		for attempt := 0; ; attempt++ {
			rec, _, err := e.cl.VerifyExistenceGlobal(r.shard, r.jsn, false)
			if err == nil {
				if rec.TxHash() != r.tx {
					return fmt.Errorf("%w: global proof of shard %d jsn %d proves another record", errWrongAnswer, r.shard, r.jsn)
				}
				return nil
			}
			var api *client.APIError
			if attempt >= 3 || !errors.As(err, &api) {
				return err
			}
			e.staleRetries++
		}
	}
	size := e.view.size.Load()
	span := size
	if e.w.ProofWindow > 0 && e.w.ProofWindow < size {
		span = e.w.ProofWindow
	}
	jsn := size - 1 - pick%span
	rec, _, err := e.cl.VerifyExistence(jsn, false)
	if err != nil {
		return err
	}
	if rec.JSN != jsn {
		return fmt.Errorf("%w: asked jsn %d, proof is for %d", errWrongAnswer, jsn, rec.JSN)
	}
	return nil
}

// reverify checks that receipt r still proves: the record the ledger
// serves at that position is the one the receipt acknowledged.
func (e *executor) reverify(r receipt) error {
	if e.view.sharded {
		rec, _, err := e.cl.VerifyExistenceGlobal(r.shard, r.jsn, false)
		if err != nil {
			return err
		}
		if rec.TxHash() != r.tx {
			return fmt.Errorf("%w: shard %d jsn %d", errWrongAnswer, r.shard, r.jsn)
		}
		return nil
	}
	rec, _, err := e.cl.VerifyExistence(r.jsn, false)
	if err != nil {
		return err
	}
	if rec.JSN != r.jsn || rec.TxHash() != r.tx {
		return fmt.Errorf("%w: jsn %d", errWrongAnswer, r.jsn)
	}
	return nil
}
