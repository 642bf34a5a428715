// The sharded front door: a Router owns no ledger itself. It routes
// each signed request to its clue's shard, fans batches and rich reads
// out shard-by-shard, and serves the coordinator's cross-shard artifacts
// (global state, global proofs). A shard in the same process is its
// *Server, called directly; a remote shard or read replica is the
// hardened *client.Client (retries, idempotency keys, breaker,
// re-verification of what crossed the wire). Either way the router
// vouches for nothing: the submitter checks every receipt and proof
// against the LSP and coordinator keys it pinned. A 1-shard Router
// degenerates to a pass-through proxy.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/shard"
)

// ShardBackend is one shard's append and rich-read path as the router
// sees it. *Server satisfies it in-process (backend.go); the hardened
// *client.Client satisfies it for a shard elsewhere (SubmitRequest/
// SubmitBatch forward pre-signed requests verbatim; Query/ProveAbsence
// fetch and re-verify proof-carrying reads). The client package's own
// tests stand up servers, so server cannot import client and names the
// interface instead.
type ShardBackend interface {
	SubmitRequest(req *journal.Request) (*journal.Receipt, error)
	SubmitBatch(reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, error)
	Query(q ledger.Query) (*ledger.QueryResult, error)
	ProveAbsence(name string, prefix bool) (*ledger.AbsenceProof, error)
}

// replayReporter is the optional half of a backend: the two submits
// under the routed request's context, also saying whether the shard
// answered out of its dedup window, so the router can pass
// Idempotent-Replay on. *Server and *client.Client have it; a backend
// without it loses the marker and the cancellation, nothing else.
type replayReporter interface {
	SubmitRequestReplay(ctx context.Context, req *journal.Request) (*journal.Receipt, bool, error)
	SubmitBatchReplay(ctx context.Context, reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error)
}

// Router fronts a sharded deployment: requests in, shard-routed appends
// out, plus the coordinator's global state and proofs. Reads that are
// shard-local (existence proofs, clue lineages, state reads) go straight
// to the owning shard's service — /v1/shard-of tells a client which.
type Router struct {
	Coord    *shard.Coordinator
	Part     *shard.Partitioner
	Backends []ShardBackend
	// replicas[i] are read-replica backends for Backends[i] (see
	// WithReplicas); nil means no fallback.
	replicas [][]ShardBackend
	mux      *http.ServeMux
}

// NewRouter wires the sharded front door. backends[i] must talk to the
// same engine the coordinator folds at slot i, or routed receipts and
// global proofs will disagree.
func NewRouter(coord *shard.Coordinator, part *shard.Partitioner, backends []ShardBackend) (*Router, error) {
	if coord.Shards() != len(backends) {
		return nil, fmt.Errorf("%w: %d backends for %d shards", shard.ErrBadShards, len(backends), coord.Shards())
	}
	rt := &Router{Coord: coord, Part: part, Backends: backends, mux: http.NewServeMux()}
	route(rt.mux, "POST /v1/append", rt.handleAppend)
	route(rt.mux, "POST /v1/append-batch", rt.handleAppendBatch)
	route(rt.mux, "GET /v1/global", rt.handleGlobal)
	route(rt.mux, "GET /v1/proof-global/{shard}/{jsn}", rt.handleProofGlobal)
	route(rt.mux, "GET /v1/query", rt.handleQuery)
	route(rt.mux, "GET /v1/absence", rt.handleAbsence)
	route(rt.mux, "GET /v1/shard-of", rt.handleShardOf)
	route(rt.mux, "GET /v1/info", rt.handleInfo)
	route(rt.mux, "GET /healthz", func(http.ResponseWriter, *http.Request) (*Envelope, error) { return &Envelope{}, nil })
	route(rt.mux, "GET /readyz", rt.handleReadyz)
	return rt, nil
}

// WithReplicas registers per-shard read replicas: replicas[i] front
// followers of the engine behind Backends[i]. Proof-carrying reads
// (rich queries, authenticated absence) fall back to a replica when the
// primary backend fails — the replies anchor to the replica's newest
// verified checkpoint, so the fallback trades freshness, never trust.
// Appends never fall back: replicas are apply-only, and a router that
// silently redirected writes would turn a partition into data loss.
func (rt *Router) WithReplicas(replicas [][]ShardBackend) error {
	if len(replicas) != len(rt.Backends) {
		return fmt.Errorf("%w: replica sets for %d of %d shards", shard.ErrBadShards, len(replicas), len(rt.Backends))
	}
	rt.replicas = replicas
	return nil
}

// readShard runs a proof-carrying read against shard i, falling back
// to its replicas when the primary is unreachable. The primary's error
// is the one reported when every backend fails — it names the
// authoritative failure, not the last replica tried.
func (rt *Router) readShard(i int, read func(ShardBackend) (encoder, error)) (string, error) {
	res, err := read(rt.Backends[i])
	if err != nil && rt.replicas != nil {
		for _, rep := range rt.replicas[i] {
			if rres, rerr := read(rep); rerr == nil {
				res, err = rres, nil
				break
			}
		}
	}
	if err != nil {
		return "", err
	}
	return b64(res.EncodeBytes()), nil
}

// fanOut asks every shard concurrently and collects the encoded answers
// under their shard index, as the envelope maps carry them. An empty
// answer (a shard a batch had nothing for) and a failed one are left
// out; the lowest-numbered failure is returned beside the rest.
func (rt *Router) fanOut(f func(shard int) (string, error)) (map[string]string, error) {
	n := len(rt.Backends)
	blobs, errs := make([]string, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range blobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blobs[i], errs[i] = f(i)
		}()
	}
	wg.Wait()
	out := make(map[string]string, n)
	var firstErr error
	for i, blob := range blobs {
		switch {
		case errs[i] != nil && firstErr == nil:
			firstErr = fmt.Errorf("shard %d: %w", i, errs[i])
		case blob != "":
			out[strconv.Itoa(i)] = blob
		}
	}
	return out, firstErr
}

// ServeHTTP implements http.Handler. The router does no admission
// control of its own: each backend already sheds load, and its 429/503
// refusals come back as errors that carry their status (statusError
// in-process, client.APIError from a remote shard).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// handleAppend decodes the signed request just enough to route it, then
// hands it on whole. The backend verifies π_c; the response carries
// the shard index so the submitter can later prove the record globally.
func (rt *Router) handleAppend(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	req, err := decodeAppend(w, r)
	if err != nil {
		return nil, err
	}
	i := rt.Part.Route(req)
	var receipt *journal.Receipt
	var replay bool
	if b, ok := rt.Backends[i].(replayReporter); ok {
		receipt, replay, err = b.SubmitRequestReplay(r.Context(), req)
	} else {
		receipt, err = rt.Backends[i].SubmitRequest(req)
	}
	if err != nil {
		return nil, err
	}
	return receiptReply(w, enc(receipt), replay, &i)
}

// handleAppendBatch fans a batch out by shard: requests are grouped by
// route, sub-batches submit concurrently, and the response maps shard
// index → that shard's batch receipt (same wire layout as the
// single-shard /v1/append-batch blob). Sub-batches commit independently;
// a partial failure answers 502 with the error and the receipts of the
// sub-batches that did commit, so the submitter knows exactly which
// journals landed. The reply is marked a replay only when every
// sub-batch was one.
func (rt *Router) handleAppendBatch(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	reqs, err := decodeAppendBatch(w, r)
	if err != nil {
		return nil, err
	}
	groups := make([][]*journal.Request, len(rt.Backends))
	for _, req := range reqs {
		s := rt.Part.Route(req)
		groups[s] = append(groups[s], req)
	}
	var fresh atomic.Bool // some sub-batch committed now rather than replayed
	receipts, err := rt.fanOut(func(s int) (string, error) {
		if groups[s] == nil {
			return "", nil
		}
		var br *ledger.BatchReceipt
		var txHashes []hashutil.Digest
		var replay bool
		var err error
		if b, ok := rt.Backends[s].(replayReporter); ok {
			br, txHashes, replay, err = b.SubmitBatchReplay(r.Context(), groups[s])
		} else {
			br, txHashes, err = rt.Backends[s].SubmitBatch(groups[s])
		}
		if err != nil {
			return "", err
		}
		if !replay {
			fresh.Store(true)
		}
		return encBatchReceipt(br, txHashes), nil
	})
	if err != nil {
		return &Envelope{Receipts: receipts}, &statusError{status: http.StatusBadGateway, msg: err.Error()}
	}
	if !fresh.Load() {
		w.Header().Set(idempotentReplayHeader, "true")
	}
	return &Envelope{Receipts: receipts}, nil
}

// handleGlobal serves the freshest coordinator-signed global state,
// folding on demand when none exists yet.
func (rt *Router) handleGlobal(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	f := rt.Coord.Current()
	if f == nil {
		var err error
		if f, err = rt.Coord.Fold(); err != nil {
			return nil, err
		}
	}
	return &Envelope{Global: b64(f.State.EncodeBytes())}, nil
}

// handleProofGlobal serves the full cross-shard existence proof for
// (shard, jsn): record → shard fam root → signed global root.
func (rt *Router) handleProofGlobal(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	sIdx, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || sIdx < 0 || sIdx >= rt.Coord.Shards() {
		return nil, fmt.Errorf("%w: shard %q of %d", journal.ErrBadRequest, r.PathValue("shard"), rt.Coord.Shards())
	}
	jsn, err := pathJSN(r)
	if err != nil {
		return nil, err
	}
	withPayload := r.URL.Query().Get("payload") == "1"
	return proofReply(rt.Coord.ProveGlobal(sIdx, jsn, withPayload))
}

// handleQuery fans a rich read to every shard — a prefix, time range,
// or signer can match records anywhere — and replies with one
// verifiable QueryResult per shard. Each result is anchored to that
// shard's own signed state, so the client verifies them independently;
// the router adds routing, never trust.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	q, err := queryFromURL(r.URL.Query())
	if err != nil {
		return nil, err
	}
	out, err := rt.fanOut(func(i int) (string, error) {
		return rt.readShard(i, func(b ShardBackend) (encoder, error) { return b.Query(q) })
	})
	if err != nil {
		return nil, err
	}
	return &Envelope{Results: out, Shards: len(rt.Backends)}, nil
}

// handleAbsence serves authenticated absence through the topology: an
// exact clue routes to its owning shard (the partitioner pins where it
// WOULD live, so one shard's answer is total), while a prefix fans to
// every shard — the prefix is absent iff each shard proves it absent
// from its own clue set.
func (rt *Router) handleAbsence(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	name, prefix, err := absenceFromURL(r.URL.Query())
	if err != nil {
		return nil, err
	}
	absence := func(i int) (string, error) {
		return rt.readShard(i, func(b ShardBackend) (encoder, error) { return b.ProveAbsence(name, prefix) })
	}
	if !prefix {
		i := rt.Part.ShardOfClue(name)
		blob, err := absence(i)
		if err != nil {
			return nil, err
		}
		return &Envelope{Result: blob, Shard: &i}, nil
	}
	out, err := rt.fanOut(absence)
	if err != nil {
		return nil, err
	}
	return &Envelope{Results: out, Shards: len(rt.Backends)}, nil
}

// handleShardOf tells a client which shard owns a clue, so shard-local
// reads (lineage proofs, existence proofs by receipt) can go straight to
// the owning service.
func (rt *Router) handleShardOf(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	clue := r.URL.Query().Get("clue")
	if clue == "" {
		return nil, fmt.Errorf("%w: missing clue", journal.ErrBadRequest)
	}
	i := rt.Part.ShardOfClue(clue)
	return &Envelope{Shard: &i, Shards: rt.Coord.Shards()}, nil
}

// handleInfo aggregates the topology: total journal count across shards,
// the shard count, and the coordinator key clients pin for VerifyGlobal.
func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	n := rt.Coord.Shards()
	var size uint64
	for i := 0; i < n; i++ {
		size += rt.Coord.Shard(i).Size()
	}
	return &Envelope{
		URI:      rt.Coord.Shard(0).URI(),
		Size:     size,
		Shards:   n,
		CoordKey: rt.Coord.PublicKey().Hex(),
		LSPKey:   rt.Coord.Shard(0).LSPPublic().Hex(),
	}, nil
}

// handleReadyz is readiness for the whole process: 503 + Retry-After as
// soon as any shard served from this process is draining or has its
// engine closed, so a load balancer treats a draining sharded process
// like a draining single node. A remote shard answers its own /readyz.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) (*Envelope, error) {
	for i, b := range rt.Backends {
		if s, ok := b.(*Server); ok {
			if err := s.ready(); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return &Envelope{}, nil
}
