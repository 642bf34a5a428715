// Package server exposes a LedgerDB instance as an HTTP service — the
// ledger proxy + ledger server path of Figure 1. Proof objects travel as
// base64-encoded deterministic wire blobs inside small JSON envelopes, so
// clients re-verify exactly the bytes the server committed to.
package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/wire"
)

// Server wires a ledger (and optionally a T-Ledger for time anchoring)
// into an http.Handler with bounded admission, per-request timeouts,
// append idempotency, and health endpoints (see harden.go).
type Server struct {
	Ledger *ledger.Ledger
	// TLedger, when set, serves time anchoring: POST /v1/anchor-time
	// submits the current state digest through Protocol 4.
	TLedger *tledger.TLedger
	// Index, when set, serves rich queries: GET /v1/query answers
	// prefix/time/signer reads with proof-carrying results. Absence
	// proofs (GET /v1/absence) come straight from the ledger and work
	// without it.
	Index *index.Index
	mux   *http.ServeMux
	opts  Options
	gate  gate
	idem  *idemTable
	// testStall, when set, runs after admission and before dispatch —
	// the seam load-shed tests use to hold slots occupied.
	testStall func(r *http.Request)
}

// New builds the HTTP surface over a ledger with default Options.
func New(l *ledger.Ledger, tl *tledger.TLedger) *Server {
	return NewWithOptions(l, tl, Options{})
}

// NewWithOptions builds the HTTP surface with explicit robustness
// settings.
func NewWithOptions(l *ledger.Ledger, tl *tledger.TLedger, opts Options) *Server {
	s := &Server{Ledger: l, TLedger: tl, mux: http.NewServeMux(), opts: opts}
	s.gate.max = opts.MaxInFlight
	s.idem = newIdemTable(opts.IdempotencyCapacity)
	s.mux.HandleFunc("POST /v1/append", s.handleAppend)
	s.mux.HandleFunc("POST /v1/append-batch", s.handleAppendBatch)
	s.mux.HandleFunc("GET /v1/state", s.handleState)
	s.mux.HandleFunc("GET /v1/journal/{jsn}", s.handleJournal)
	s.mux.HandleFunc("GET /v1/payload/{jsn}", s.handlePayload)
	s.mux.HandleFunc("GET /v1/proof/{jsn}", s.handleProof)
	s.mux.HandleFunc("POST /v1/proofs", s.handleProofBatch)
	s.mux.HandleFunc("GET /v1/anchor", s.handleAnchor)
	s.mux.HandleFunc("POST /v1/proof-anchored/{jsn}", s.handleProofAnchored)
	s.mux.HandleFunc("GET /v1/clue/{name}/proof", s.handleClueProof)
	s.mux.HandleFunc("GET /v1/clue/{name}/jsns", s.handleClueJSNs)
	s.mux.HandleFunc("POST /v1/anchor-time", s.handleAnchorTime)
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /v1/stateproof", s.handleStateProof)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/absence", s.handleAbsence)
	s.mux.HandleFunc("POST /v1/admin/purge", s.handlePurge)
	s.mux.HandleFunc("POST /v1/admin/occult", s.handleOccult)
	s.mux.HandleFunc("GET /v1/replica/pull", s.handleReplicaPull)
	s.mux.HandleFunc("GET /v1/bundle/{jsn}", s.handleBundle)
	return s
}

// Envelope is the uniform JSON response shape.
type Envelope struct {
	// B64 fields hold deterministic wire encodings.
	Receipt string   `json:"receipt,omitempty"`
	State   string   `json:"state,omitempty"`
	Record  string   `json:"record,omitempty"`
	Proof   string   `json:"proof,omitempty"`
	Payload string   `json:"payload,omitempty"`
	JSNs    []uint64 `json:"jsns,omitempty"`
	Result  string   `json:"result,omitempty"` // b64 QueryResult / AbsenceProof
	Error   string   `json:"error,omitempty"`

	URI    string `json:"uri,omitempty"`
	Size   uint64 `json:"size,omitempty"`
	Base   uint64 `json:"base,omitempty"`
	Height uint64 `json:"height,omitempty"`
	LSPKey string `json:"lsp_key,omitempty"` // hex; clients pin it (TOFU)

	// Replication fields. Frame is a b64 sealed SegmentFrame (pull
	// responses). Generation/Jsn/Watermark ride on /healthz and /readyz:
	// Jsn is the applied journal frontier, Watermark the newest verified
	// primary-signed checkpoint (== Jsn on a primary, which signs its
	// own states), so Jsn-Watermark is the honest staleness a follower
	// admits to. Always present on health replies — a zero Watermark on
	// a seeding follower is itself the signal.
	Frame      string  `json:"frame,omitempty"`
	Generation *uint64 `json:"generation,omitempty"`
	Jsn        *uint64 `json:"jsn,omitempty"`
	Watermark  *uint64 `json:"watermark,omitempty"`

	// Sharded-topology fields (router responses only).
	Global   string            `json:"global,omitempty"`   // b64 GlobalState
	Shard    *int              `json:"shard,omitempty"`    // routed shard index
	Shards   int               `json:"shards,omitempty"`   // topology width
	Receipts map[string]string `json:"receipts,omitempty"` // shard idx → b64 batch receipt
	Results  map[string]string `json:"results,omitempty"`  // shard idx → b64 QueryResult / AbsenceProof
	CoordKey string            `json:"coord_key,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, env *Envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(env); err != nil {
		// The response is already committed; nothing sensible to do.
		_ = err
	}
}

// writeErr maps ledger errors to statuses with distinct retry
// semantics: permanent outcomes (404 missing, 410 purged, 451 occulted,
// 4xx request errors) must never be retried, while 503 marks conditions
// a replacement instance could serve (and carries Retry-After so
// well-behaved clients pace themselves).
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var coded interface{ HTTPStatus() int }
	switch {
	case errors.As(err, &coded):
		// A forwarded backend error (the router fanning out through the
		// hardened client) already carries its mapped status — 410
		// purged, 451 occulted, 403 forbidden — and must not be
		// flattened back to 500.
		status = coded.HTTPStatus()
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
	case errors.Is(err, ledger.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ledger.ErrPurged):
		// The journal existed and is permanently gone (Protocol 2):
		// a definitive, non-retryable outcome distinct from 404.
		status = http.StatusGone
	case errors.Is(err, ledger.ErrOcculted):
		// Hidden by policy, not absent: 451 tells the client the denial
		// is deliberate and retrying is pointless.
		status = http.StatusUnavailableForLegalReasons
	case errors.Is(err, ledger.ErrNotPermitted), errors.Is(err, journal.ErrBadSignature):
		status = http.StatusForbidden
	case errors.Is(err, errBodyTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, journal.ErrBadRequest), errors.Is(err, journal.ErrDecode):
		status = http.StatusBadRequest
	case errors.Is(err, tledger.ErrStale), errors.Is(err, tledger.ErrFuture):
		status = http.StatusConflict
	case errors.Is(err, ledger.ErrPresent):
		// Absence was requested for a clue that is live: a definitive
		// conflict — the right call is an existence query.
		status = http.StatusConflict
	case errors.Is(err, ledger.ErrClosed):
		// The commit pipeline is draining (shutdown); clients may retry
		// against a replacement instance.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ledger.ErrStaleCheckpoint):
		// A follower asked to prove past its verified checkpoint: the
		// journal may exist but cannot be served yet. Retryable here
		// (replication is catching up) or against the primary.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, &Envelope{Error: err.Error()})
}

// Request-body ceilings. Payloads travel base64 inside JSON, so the
// append cap allows a full 16 MiB payload plus encoding overhead;
// batches get a larger allowance; admin and proof bodies are tiny.
const (
	maxAppendBody = 24 << 20
	maxBatchBody  = 64 << 20
	maxAdminBody  = 4 << 20
)

var errBodyTooLarge = errors.New("server: request body too large")

// decodeJSONBody decodes a JSON request body bounded by limit, so a
// hostile or misconfigured client cannot make the server buffer an
// unbounded payload. Oversized bodies map to 413 via errBodyTooLarge.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("%w: body exceeds %d bytes", errBodyTooLarge, tooBig.Limit)
		}
		return fmt.Errorf("%w: %v", journal.ErrBadRequest, err)
	}
	return nil
}

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

func pathJSN(r *http.Request) (uint64, error) {
	v := r.PathValue("jsn")
	jsn, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad jsn %q", journal.ErrBadRequest, v)
	}
	return jsn, nil
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Request string `json:"request"`
	}
	if err := decodeJSONBody(w, r, maxAppendBody, &body); err != nil {
		writeErr(w, err)
		return
	}
	raw, err := base64.StdEncoding.DecodeString(body.Request)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", journal.ErrBadRequest, err))
		return
	}
	req, err := journal.DecodeRequest(raw)
	if err != nil {
		writeErr(w, err)
		return
	}
	exec := func() (uint64, []byte, error) {
		receipt, err := s.Ledger.Append(req)
		if err != nil {
			return 0, nil, err
		}
		wr := newWriter()
		receipt.Encode(wr)
		return receipt.JSN, wr.Bytes(), nil
	}
	if key := r.Header.Get(idempotencyKeyHeader); key != "" {
		if key != journal.RequestKey(req.Hash()) {
			writeErr(w, fmt.Errorf("%w: %v", journal.ErrBadRequest, errIdemKeyMismatch))
			return
		}
		blob, replay, err := s.idem.dedup(r.Context(), key, exec, func(jsn uint64) error {
			return s.checkIdemReplay(jsn, req.Hash())
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		if replay {
			w.Header().Set(idempotentReplayHeader, "true")
		}
		writeJSON(w, http.StatusOK, &Envelope{Receipt: b64(blob)})
		return
	}
	_, blob, err := exec()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Receipt: b64(blob)})
}

// Idempotency headers. The request header carries the client-derived
// key (journal.RequestKey / journal.BatchRequestKey); the response
// header marks a deduplicated replay of a previously-committed append.
const (
	idempotencyKeyHeader   = "Idempotency-Key"
	idempotentReplayHeader = "Idempotent-Replay"
)

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

// handleAppendBatch ingests a batch of signed requests (the amortized
// write path). The response carries the batch receipt and the committed
// tx-hashes so the submitter can bind each journal to the receipt.
func (s *Server) handleAppendBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Requests []string `json:"requests"`
	}
	if err := decodeJSONBody(w, r, maxBatchBody, &body); err != nil {
		writeErr(w, err)
		return
	}
	reqs := make([]*journal.Request, 0, len(body.Requests))
	for i, enc := range body.Requests {
		raw, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: request %d: %v", journal.ErrBadRequest, i, err))
			return
		}
		req, err := journal.DecodeRequest(raw)
		if err != nil {
			writeErr(w, err)
			return
		}
		reqs = append(reqs, req)
	}
	exec := func() (uint64, []byte, error) {
		br, txHashes, err := s.Ledger.AppendBatch(reqs)
		if err != nil {
			return 0, nil, err
		}
		wr := newWriter()
		wr.Uvarint(br.FirstJSN)
		wr.Uvarint(br.Count)
		wr.Digest(br.BatchHash)
		wr.Int64(br.Timestamp)
		sig.EncodePublicKey(wr, br.LSPPK)
		sig.EncodeSignature(wr, br.LSPSig)
		for _, d := range txHashes {
			wr.Digest(d)
		}
		return br.FirstJSN, wr.Bytes(), nil
	}
	if key := r.Header.Get(idempotencyKeyHeader); key != "" && len(reqs) > 0 {
		hashes := make([]hashutil.Digest, len(reqs))
		for i, req := range reqs {
			hashes[i] = req.Hash()
		}
		if key != journal.BatchRequestKey(hashes) {
			writeErr(w, fmt.Errorf("%w: %v", journal.ErrBadRequest, errIdemKeyMismatch))
			return
		}
		blob, replay, err := s.idem.dedup(r.Context(), key, exec, func(jsn uint64) error {
			return s.checkIdemReplay(jsn, hashes[0])
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		if replay {
			w.Header().Set(idempotentReplayHeader, "true")
		}
		writeJSON(w, http.StatusOK, &Envelope{Receipt: b64(blob)})
		return
	}
	_, blob, err := exec()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Receipt: b64(blob)})
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	st, err := s.Ledger.State()
	if err != nil {
		writeErr(w, err)
		return
	}
	wr := newWriter()
	st.Encode(wr)
	writeJSON(w, http.StatusOK, &Envelope{State: b64(wr.Bytes())})
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	jsn, err := pathJSN(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	rec, err := s.Ledger.GetJournal(jsn)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Record: b64(rec.EncodeBytes())})
}

func (s *Server) handlePayload(w http.ResponseWriter, r *http.Request) {
	jsn, err := pathJSN(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	payload, err := s.Ledger.GetPayload(jsn)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Payload: b64(payload)})
}

func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	jsn, err := pathJSN(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	withPayload := r.URL.Query().Get("payload") == "1"
	p, err := s.Ledger.ProveExistence(jsn, withPayload)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Proof: b64(p.EncodeBytes())})
}

// handleProofBatch serves N existence proofs sharing one SignedState
// (the amortized read path mirroring append-batch on the write side).
// The ledger enforces the per-batch item ceiling.
func (s *Server) handleProofBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		JSNs    []uint64 `json:"jsns"`
		Payload bool     `json:"payload"`
	}
	if err := decodeJSONBody(w, r, maxAdminBody, &body); err != nil {
		writeErr(w, err)
		return
	}
	b, err := s.Ledger.ProveExistenceBatch(body.JSNs, body.Payload)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Proof: b64(b.EncodeBytes())})
}

// handleAnchor hands out the current fam-aoa trusted anchor. A verifier
// adopts it only AFTER auditing the ledger up to the anchor's size; from
// then on anchored proofs are near-constant size (Figure 4).
func (s *Server) handleAnchor(w http.ResponseWriter, r *http.Request) {
	anchor := s.Ledger.Anchor()
	wr := newWriter()
	anchor.Encode(wr)
	writeJSON(w, http.StatusOK, &Envelope{Proof: b64(wr.Bytes())})
}

// handleProofAnchored builds an existence proof against the anchor the
// client ships in the request body (the fam-aoa regime).
func (s *Server) handleProofAnchored(w http.ResponseWriter, r *http.Request) {
	jsn, err := pathJSN(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var body struct {
		Anchor string `json:"anchor"`
	}
	if err := decodeJSONBody(w, r, maxAdminBody, &body); err != nil {
		writeErr(w, err)
		return
	}
	raw, err := base64.StdEncoding.DecodeString(body.Anchor)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", journal.ErrBadRequest, err))
		return
	}
	anchor, err := fam.DecodeAnchor(wire.NewReader(raw))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", journal.ErrBadRequest, err))
		return
	}
	withPayload := r.URL.Query().Get("payload") == "1"
	p, err := s.Ledger.ProveExistenceAnchored(jsn, anchor, withPayload)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Proof: b64(p.EncodeBytes())})
}

// The clue handlers take the path segment verbatim (PathValue has
// already unescaped it): admission accepts any non-empty clue but "."
// and ".." (which no URL path can carry), spaces and slashes included,
// so lookup must not normalise what append did not.
func (s *Server) handleClueProof(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query()
	begin, err := versionParam(q, "begin")
	if err != nil {
		writeErr(w, err)
		return
	}
	end, err := versionParam(q, "end")
	if err != nil {
		writeErr(w, err)
		return
	}
	b, err := s.Ledger.ProveClue(name, begin, end)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Proof: b64(b.EncodeBytes())})
}

// versionParam reads an optional clue-version bound. Absent means 0
// (begin = end = 0 proves the whole clue); present but unparsable is the
// caller's mistake, never a silent fallback to the whole clue.
func versionParam(q url.Values, name string) (uint64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q", journal.ErrBadRequest, name, v)
	}
	return n, nil
}

func (s *Server) handleClueJSNs(w http.ResponseWriter, r *http.Request) {
	recs, err := s.Ledger.ListClue(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	jsns := make([]uint64, len(recs))
	for i, rec := range recs {
		jsns[i] = rec.JSN
	}
	writeJSON(w, http.StatusOK, &Envelope{JSNs: jsns})
}

func (s *Server) handleAnchorTime(w http.ResponseWriter, r *http.Request) {
	if s.TLedger == nil {
		writeErr(w, fmt.Errorf("%w: no time notary configured", ledger.ErrNotPermitted))
		return
	}
	receipt, err := s.Ledger.AnchorTimeWith(
		s.TLedger.StampFunc(s.Ledger.URI(), s.Ledger.Clock()))
	if err != nil {
		writeErr(w, err)
		return
	}
	wr := newWriter()
	receipt.Encode(wr)
	writeJSON(w, http.StatusOK, &Envelope{Receipt: b64(wr.Bytes())})
}

// handleStateProof serves a verifiable world-state read for ?key=<hex or
// plain>. Keys are passed base64 to be binary-safe.
func (s *Server) handleStateProof(w http.ResponseWriter, r *http.Request) {
	key, err := base64.StdEncoding.DecodeString(r.URL.Query().Get("key"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: key: %v", journal.ErrBadRequest, err))
		return
	}
	p, err := s.Ledger.ProveState(key)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &Envelope{Proof: b64(p.EncodeBytes())})
}

// mutationBody is the admin request shape: a descriptor plus the
// gathered multi-signatures, both as wire blobs. The server re-checks
// the prerequisites; signatures cannot be forged by the transport.
type mutationBody struct {
	Descriptor string `json:"descriptor"`
	Sigs       string `json:"sigs"`
}

func decodeMutation(w http.ResponseWriter, r *http.Request) ([]byte, *sig.MultiSig, error) {
	var body mutationBody
	if err := decodeJSONBody(w, r, maxAdminBody, &body); err != nil {
		return nil, nil, err
	}
	desc, err := base64.StdEncoding.DecodeString(body.Descriptor)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: descriptor: %v", journal.ErrBadRequest, err)
	}
	rawSigs, err := base64.StdEncoding.DecodeString(body.Sigs)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: sigs: %v", journal.ErrBadRequest, err)
	}
	ms, err := sig.DecodeMultiSig(wire.NewReader(rawSigs))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: sigs: %v", journal.ErrBadRequest, err)
	}
	return desc, ms, nil
}

func (s *Server) handlePurge(w http.ResponseWriter, r *http.Request) {
	rawDesc, ms, err := decodeMutation(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	desc, err := ledger.DecodePurgeDescriptor(rawDesc)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", journal.ErrBadRequest, err))
		return
	}
	receipt, err := s.Ledger.Purge(desc, ms)
	if err != nil {
		writeErr(w, err)
		return
	}
	wr := newWriter()
	receipt.Encode(wr)
	writeJSON(w, http.StatusOK, &Envelope{Receipt: b64(wr.Bytes())})
}

func (s *Server) handleOccult(w http.ResponseWriter, r *http.Request) {
	rawDesc, ms, err := decodeMutation(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	desc, err := ledger.DecodeOccultDescriptor(rawDesc)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", journal.ErrBadRequest, err))
		return
	}
	receipt, err := s.Ledger.Occult(desc, ms)
	if err != nil {
		writeErr(w, err)
		return
	}
	wr := newWriter()
	receipt.Encode(wr)
	writeJSON(w, http.StatusOK, &Envelope{Receipt: b64(wr.Bytes())})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &Envelope{
		URI:    s.Ledger.URI(),
		Size:   s.Ledger.Size(),
		Base:   s.Ledger.Base(),
		Height: s.Ledger.Height(),
		LSPKey: s.Ledger.LSPPublic().Hex(),
	})
}

// newWriter is a tiny indirection so handlers read naturally.
func newWriter() *wire.Writer { return wire.NewWriter(256) }
