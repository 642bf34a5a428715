// The request-handling core: what the service does with a decoded
// append or rich read, whoever decoded it. The HTTP handlers call the
// unexported methods (ServeHTTP has already admitted the request); the
// exported ones pass the same gate first and make *Server a
// ShardBackend, so a Router in the same process calls its shards
// directly — same gate, dedup window and ledger errors as over HTTP,
// no loopback hop, no re-verifying signatures this process just made.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
)

// appendOne commits a signed request at most once within the dedup
// window, keyed by the request's own hash; the bool reports a replay of
// the original receipt.
func (s *Server) appendOne(ctx context.Context, req *journal.Request) (*journal.Receipt, bool, error) {
	h := req.Hash()
	out, replay, err := s.idem.dedup(ctx, journal.RequestKey(h), func() (appendOutcome, error) {
		receipt, err := s.Ledger.Append(req)
		return appendOutcome{receipt: receipt}, err
	}, func(jsn uint64) error { return s.checkIdemReplay(jsn, h) })
	return out.receipt, replay, err
}

// appendBatch is appendOne for a batch: one receipt over the whole
// batch plus the committed tx-hashes.
func (s *Server) appendBatch(ctx context.Context, reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error) {
	hashes := requestHashes(reqs)
	out, replay, err := s.idem.dedup(ctx, journal.BatchRequestKey(hashes), func() (appendOutcome, error) {
		br, txHashes, err := s.Ledger.AppendBatch(reqs)
		return appendOutcome{batch: br, txHashes: txHashes}, err
	}, func(jsn uint64) error { return s.checkIdemReplay(jsn, hashes[0]) })
	return out.batch, out.txHashes, replay, err
}

// checkIdemReplay cross-checks a cached dedup entry against the journal
// before its receipt is replayed: the committed record at that jsn must
// acknowledge the same signed request. A purged or occulted journal
// still replays — the commit happened; only the payload is gone.
func (s *Server) checkIdemReplay(jsn uint64, want hashutil.Digest) error {
	rec, err := s.Ledger.GetJournal(jsn)
	if errors.Is(err, ledger.ErrPurged) || errors.Is(err, ledger.ErrOcculted) {
		return nil
	}
	if err != nil {
		return err
	}
	if rec.RequestHash != want {
		return fmt.Errorf("%w: idempotency entry for jsn %d acknowledges a different request", journal.ErrBadRequest, jsn)
	}
	return nil
}

// query answers a rich read out of the sidecar index.
func (s *Server) query(q ledger.Query) (*ledger.QueryResult, error) {
	if s.Index == nil {
		return nil, &statusError{status: http.StatusNotImplemented, msg: "server: query index not enabled"}
	}
	return s.Index.Query(q)
}

// SubmitRequest implements ShardBackend, whose methods carry no
// context by contract.
func (s *Server) SubmitRequest(req *journal.Request) (*journal.Receipt, error) {
	receipt, _, err := s.SubmitRequestReplay(context.Background(), req)
	return receipt, err
}

// SubmitRequestReplay is SubmitRequest under the caller's context, also
// reporting a deduplicated replay (see replayReporter). ctx bounds only
// the wait for a concurrent duplicate; an append this call started runs
// to its commit.
func (s *Server) SubmitRequestReplay(ctx context.Context, req *journal.Request) (*journal.Receipt, bool, error) {
	if err := s.gate.enter(); err != nil {
		return nil, false, err
	}
	defer s.gate.leave()
	return s.appendOne(ctx, req)
}

// SubmitBatch implements ShardBackend.
func (s *Server) SubmitBatch(reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, error) {
	br, txHashes, _, err := s.SubmitBatchReplay(context.Background(), reqs)
	return br, txHashes, err
}

// SubmitBatchReplay is SubmitRequestReplay for a batch.
func (s *Server) SubmitBatchReplay(ctx context.Context, reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error) {
	if err := s.gate.enter(); err != nil {
		return nil, nil, false, err
	}
	defer s.gate.leave()
	return s.appendBatch(ctx, reqs)
}

// Query implements ShardBackend.
func (s *Server) Query(q ledger.Query) (*ledger.QueryResult, error) {
	if err := s.gate.enter(); err != nil {
		return nil, err
	}
	defer s.gate.leave()
	return s.query(q)
}

// ProveAbsence implements ShardBackend.
func (s *Server) ProveAbsence(name string, prefix bool) (*ledger.AbsenceProof, error) {
	if err := s.gate.enter(); err != nil {
		return nil, err
	}
	defer s.gate.leave()
	return s.Ledger.ProveAbsence(name, prefix)
}
