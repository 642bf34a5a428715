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
	"strings"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
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
	s.gate.max, s.gate.retryAfter = opts.MaxInFlight, opts.retryAfterSecs()
	s.idem = newIdemTable(opts.IdempotencyCapacity)
	route(s.mux, "POST /v1/append", s.handleAppend)
	route(s.mux, "POST /v1/append-batch", s.handleAppendBatch)
	route(s.mux, "GET /v1/state", s.handleState)
	route(s.mux, "GET /v1/journal/{jsn}", s.handleJournal)
	route(s.mux, "GET /v1/payload/{jsn}", s.handlePayload)
	route(s.mux, "GET /v1/proof/{jsn}", s.handleProof)
	route(s.mux, "POST /v1/proofs", s.handleProofBatch)
	route(s.mux, "GET /v1/clue/{name}/proof", s.handleClueProof)
	route(s.mux, "GET /v1/clue/{name}/jsns", s.handleClueJSNs)
	route(s.mux, "POST /v1/anchor-time", s.handleAnchorTime)
	route(s.mux, "GET /v1/info", s.handleInfo)
	route(s.mux, "GET /v1/stateproof", s.handleStateProof)
	route(s.mux, "GET /v1/query", s.handleQuery)
	route(s.mux, "GET /v1/absence", s.handleAbsence)
	route(s.mux, "POST /v1/admin/purge", s.handlePurge)
	route(s.mux, "POST /v1/admin/occult", s.handleOccult)
	route(s.mux, "GET /v1/replica/pull", s.handleReplicaPull)
	route(s.mux, "GET /v1/bundle/{jsn}", s.handleBundle)
	route(s.mux, "/healthz", s.handleHealthz)
	route(s.mux, "/readyz", s.handleReadyz)
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

// endpoint is a handler reduced to what differs between routes: decode
// the request, do the work, name the reply. A nil error answers 200 with
// the envelope; an error answers its mapped status (writeErr), into the
// envelope when one came back with it.
type endpoint func(w http.ResponseWriter, r *http.Request) (*Envelope, error)

func route(mux *http.ServeMux, pattern string, h endpoint) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if env, err := h(w, r); err != nil {
			writeErr(w, err, env)
		} else {
			writeJSON(w, http.StatusOK, env)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, env *Envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env) // the response is already committed; nothing sensible to do
}

// writeErr maps ledger errors to statuses with distinct retry
// semantics: permanent outcomes (404 missing, 410 purged, 451 occulted,
// 4xx request errors) must never be retried, while 503 marks conditions
// a replacement instance could serve (and carries Retry-After so
// well-behaved clients pace themselves). env, when not nil, already
// carries fields the reply keeps (the health watermarks of a failing
// /readyz, the receipts of a half-committed sharded batch).
func writeErr(w http.ResponseWriter, err error, env *Envelope) {
	if env == nil {
		env = &Envelope{}
	}
	status, retryAfter := http.StatusInternalServerError, ""
	var coded interface{ HTTPStatus() int }
	switch {
	case errors.As(err, &coded):
		// An error that already carries its mapped status — a backend's
		// 410 purged / 451 occulted / 403 forbidden forwarded by the
		// router through the hardened client, or this package's own
		// refusals — must not be flattened back to 500.
		status = coded.HTTPStatus()
		if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
			retryAfter = "1"
		}
		var own *statusError
		if errors.As(err, &own) {
			retryAfter = own.retryAfter
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
	case errors.Is(err, ledger.ErrClosed), errors.Is(err, ledger.ErrStaleCheckpoint):
		// The commit pipeline is draining (shutdown), or a follower was
		// asked to prove past its verified checkpoint (the journal may
		// exist but cannot be served yet): retryable, here once
		// replication catches up or against another instance.
		status, retryAfter = http.StatusServiceUnavailable, "1"
	}
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	env.Error = err.Error()
	writeJSON(w, status, env)
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

// decodeAppend reads a POST /v1/append: the signed request plus, when
// the client sent one, an Idempotency-Key that must be the key derived
// from that request. Server and Router admit appends through it, so a
// mismatched key is a 400 at either front door.
func decodeAppend(w http.ResponseWriter, r *http.Request) (*journal.Request, error) {
	var body struct {
		Request string `json:"request"`
	}
	if err := decodeJSONBody(w, r, maxAppendBody, &body); err != nil {
		return nil, err
	}
	req, err := decodeRequest(body.Request)
	if err != nil {
		return nil, err
	}
	return req, checkIdemKey(r, journal.RequestKey(req.Hash()))
}

func decodeRequest(enc string) (*journal.Request, error) {
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", journal.ErrBadRequest, err)
	}
	return journal.DecodeRequest(raw)
}

// decodeAppendBatch is decodeAppend for POST /v1/append-batch; the key
// covers the ordered request hashes.
func decodeAppendBatch(w http.ResponseWriter, r *http.Request) ([]*journal.Request, error) {
	var body struct {
		Requests []string `json:"requests"`
	}
	if err := decodeJSONBody(w, r, maxBatchBody, &body); err != nil {
		return nil, err
	}
	if len(body.Requests) == 0 {
		return nil, fmt.Errorf("%w: empty batch", journal.ErrBadRequest)
	}
	reqs := make([]*journal.Request, len(body.Requests))
	for i, enc := range body.Requests {
		var err error
		if reqs[i], err = decodeRequest(enc); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return reqs, checkIdemKey(r, journal.BatchRequestKey(requestHashes(reqs)))
}

func requestHashes(reqs []*journal.Request) []hashutil.Digest {
	hashes := make([]hashutil.Digest, len(reqs))
	for i, req := range reqs {
		hashes[i] = req.Hash()
	}
	return hashes
}

// checkIdemKey refuses a submission whose advertised key is not the one
// its signed content derives. An absent header is fine: the service
// derives the key itself.
func checkIdemKey(r *http.Request, want string) error {
	if key := r.Header.Get(idempotencyKeyHeader); key != "" && key != want {
		return fmt.Errorf("%w: %v", journal.ErrBadRequest, errIdemKeyMismatch)
	}
	return nil
}

// Idempotency headers. The request header carries the client-derived
// key (journal.RequestKey / journal.BatchRequestKey); the response
// header marks a deduplicated replay of a previously-committed append.
const (
	idempotencyKeyHeader   = "Idempotency-Key"
	idempotentReplayHeader = "Idempotent-Replay"
)

// receiptReply answers an append: the encoded receipt (with the routed
// shard index when a router asks), marked when it is a replay.
func receiptReply(w http.ResponseWriter, blob string, replay bool, shard *int) (*Envelope, error) {
	if replay {
		w.Header().Set(idempotentReplayHeader, "true")
	}
	return &Envelope{Receipt: blob, Shard: shard}, nil
}

// encoder is a proof object with a deterministic wire form.
type encoder interface{ EncodeBytes() []byte }

// proofReply names p as the reply's proof, or passes its error on.
func proofReply[P encoder](p P, err error) (*Envelope, error) {
	if err != nil {
		return nil, err
	}
	return &Envelope{Proof: b64(p.EncodeBytes())}, nil
}

// enc is the base64 of v's deterministic wire encoding.
func enc(v interface{ Encode(*wire.Writer) }) string {
	wr := wire.NewWriter(256)
	v.Encode(wr)
	return b64(wr.Bytes())
}

// encBatchReceipt is the one batch-receipt blob layout: the signed
// receipt followed by the committed tx-hashes, so the submitter can
// bind each journal to it. Sharded and single-node receipts decode
// identically client-side.
func encBatchReceipt(br *ledger.BatchReceipt, txHashes []hashutil.Digest) string {
	wr := wire.NewWriter(256)
	wr.Uvarint(br.FirstJSN)
	wr.Uvarint(br.Count)
	wr.Digest(br.BatchHash)
	wr.Int64(br.Timestamp)
	sig.EncodePublicKey(wr, br.LSPPK)
	sig.EncodeSignature(wr, br.LSPSig)
	for _, d := range txHashes {
		wr.Digest(d)
	}
	return b64(wr.Bytes())
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	req, err := decodeAppend(w, r)
	if err != nil {
		return nil, err
	}
	receipt, replay, err := s.appendOne(r.Context(), req)
	if err != nil {
		return nil, err
	}
	return receiptReply(w, enc(receipt), replay, nil)
}

// handleAppendBatch ingests a batch of signed requests (the amortized
// write path).
func (s *Server) handleAppendBatch(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	reqs, err := decodeAppendBatch(w, r)
	if err != nil {
		return nil, err
	}
	br, txHashes, replay, err := s.appendBatch(r.Context(), reqs)
	if err != nil {
		return nil, err
	}
	return receiptReply(w, encBatchReceipt(br, txHashes), replay, nil)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	st, err := s.Ledger.State()
	if err != nil {
		return nil, err
	}
	return &Envelope{State: enc(st)}, nil
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	jsn, err := pathJSN(r)
	if err != nil {
		return nil, err
	}
	rec, err := s.Ledger.GetJournal(jsn)
	if err != nil {
		return nil, err
	}
	return &Envelope{Record: b64(rec.EncodeBytes())}, nil
}

func (s *Server) handlePayload(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	jsn, err := pathJSN(r)
	if err != nil {
		return nil, err
	}
	payload, err := s.Ledger.GetPayload(jsn)
	if err != nil {
		return nil, err
	}
	return &Envelope{Payload: b64(payload)}, nil
}

// handleProof serves one existence proof. The requester may name the
// signed state it holds (state=), how many sealed fam epoch roots it
// learned (sealed=) and the records it holds (held=): a journal in one
// of those epochs is answered with its in-epoch path alone, any other
// with the state left out when it is the named one, and a held record
// as a placeholder (ledger.ProveExistenceHeld).
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	jsn, err := pathJSN(r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	withPayload, err := flagParam(q, "payload")
	if err != nil {
		return nil, err
	}
	held, err := heldParam(q)
	if err != nil {
		return nil, err
	}
	if held.Sealed, err = countParam(q, "sealed"); err != nil {
		return nil, err
	}
	return proofReply(s.Ledger.ProveExistenceHeld(jsn, withPayload, held))
}

// handleProofBatch serves N existence proofs sharing one SignedState
// (the amortized read path mirroring append-batch on the write side),
// the state left out when it is the one the body names and the records
// it names as held (at most MaxProofBatch, as heldParam) as placeholders.
// The ledger enforces the per-batch item ceiling.
func (s *Server) handleProofBatch(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	var body struct {
		JSNs    []uint64 `json:"jsns"`
		Payload bool     `json:"payload"`
		State   string   `json:"state"`
		Held    []uint64 `json:"held"`
	}
	if err := decodeJSONBody(w, r, maxAdminBody, &body); err != nil {
		return nil, err
	}
	if n := len(body.Held); n > ledger.MaxProofBatch {
		return nil, fmt.Errorf("%w: %d held jsns exceed %d", journal.ErrBadRequest, n, ledger.MaxProofBatch)
	}
	held := ledger.NewHeld(body.Held)
	if body.State != "" {
		var err error
		if held.State, err = digestParam("state", body.State); err != nil {
			return nil, err
		}
	}
	return proofReply(s.Ledger.ProveExistenceBatch(body.JSNs, body.Payload, held))
}

// The clue handlers take the path segment verbatim (PathValue has
// already unescaped it): admission accepts any non-empty clue but "."
// and ".." (which no URL path can carry), spaces and slashes included,
// so lookup must not normalise what append did not.
func (s *Server) handleClueProof(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	q := r.URL.Query()
	begin, err := versionParam(q, "begin")
	if err != nil {
		return nil, err
	}
	end, err := versionParam(q, "end")
	if err != nil {
		return nil, err
	}
	held, err := heldParam(q)
	if err != nil {
		return nil, err
	}
	return proofReply(s.Ledger.ProveClueHeld(r.PathValue("name"), begin, end, held))
}

// heldParam reads what the requester names as held: the jsns whose
// verified record bytes it holds (held=, comma-separated, at most
// MaxProofBatch), which the reply may then leave out, and the digest of
// the signed state it holds (state=), which a reply proven at that state
// leaves out (ledger.Held).
func heldParam(q url.Values) (ledger.Held, error) {
	var held ledger.Held
	if v := q.Get("held"); v != "" {
		if n := strings.Count(v, ",") + 1; n > ledger.MaxProofBatch {
			return held, fmt.Errorf("%w: %d held jsns exceed %d", journal.ErrBadRequest, n, ledger.MaxProofBatch)
		}
		parts := strings.Split(v, ",")
		jsns := make([]uint64, len(parts))
		for i, s := range parts {
			var err error
			if jsns[i], err = strconv.ParseUint(s, 10, 64); err != nil {
				return held, fmt.Errorf("%w: held %q", journal.ErrBadRequest, s)
			}
		}
		held = ledger.NewHeld(jsns)
	}
	if q.Has("state") {
		var err error
		if held.State, err = digestParam("state", q.Get("state")); err != nil {
			return held, err
		}
	}
	return held, nil
}

// digestParam parses a digest parameter: exactly 64 hex characters.
func digestParam(name, v string) (hashutil.Digest, error) {
	d, err := hashutil.Parse(v)
	if err != nil {
		return d, fmt.Errorf("%w: %s %q: %v", journal.ErrBadRequest, name, v, err)
	}
	return d, nil
}

// versionParam reads an optional clue-version bound. Absent means 0
// (begin = end = 0 proves the whole clue); present but unparsable is the
// caller's mistake, never a silent fallback to the whole clue.
func versionParam(q url.Values, name string) (uint64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	return countParam(q, name)
}

// countParam reads an optional decimal count: absent means 0, anything
// but a decimal number is a bad request.
func countParam(q url.Values, name string) (uint64, error) {
	if !q.Has(name) {
		return 0, nil
	}
	v := q.Get(name)
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q", journal.ErrBadRequest, name, v)
	}
	return n, nil
}

// flagParam reads an optional flag: absent or 0 is off, 1 is on, and
// anything else — true, yes, an empty value — is a bad request, never a
// silent off.
func flagParam(q url.Values, name string) (bool, error) {
	if !q.Has(name) {
		return false, nil
	}
	switch v := q.Get(name); v {
	case "0":
		return false, nil
	case "1":
		return true, nil
	default:
		return false, fmt.Errorf("%w: %s %q (want 0 or 1)", journal.ErrBadRequest, name, v)
	}
}

func (s *Server) handleClueJSNs(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	recs, err := s.Ledger.ListClue(r.PathValue("name"))
	if err != nil {
		return nil, err
	}
	jsns := make([]uint64, len(recs))
	for i, rec := range recs {
		jsns[i] = rec.JSN
	}
	return &Envelope{JSNs: jsns}, nil
}

func (s *Server) handleAnchorTime(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	if s.TLedger == nil {
		return nil, fmt.Errorf("%w: no time notary configured", ledger.ErrNotPermitted)
	}
	receipt, err := s.Ledger.AnchorTimeWith(
		s.TLedger.StampFunc(s.Ledger.URI(), s.Ledger.Clock()))
	if err != nil {
		return nil, err
	}
	return &Envelope{Receipt: enc(receipt)}, nil
}

// handleStateProof serves a verifiable world-state read for ?key=<hex or
// plain>. Keys are passed base64 to be binary-safe.
func (s *Server) handleStateProof(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	key, err := base64.StdEncoding.DecodeString(r.URL.Query().Get("key"))
	if err != nil {
		return nil, fmt.Errorf("%w: key: %v", journal.ErrBadRequest, err)
	}
	return proofReply(s.Ledger.ProveState(key))
}

// mutate serves an admin mutation: a descriptor plus the gathered
// multi-signatures, both as wire blobs. The ledger re-checks the
// prerequisites; signatures cannot be forged by the transport.
func mutate[D any](w http.ResponseWriter, r *http.Request, decode func([]byte) (D, error), apply func(D, *sig.MultiSig) (*journal.Receipt, error)) (*Envelope, error) {
	var body struct {
		Descriptor string `json:"descriptor"`
		Sigs       string `json:"sigs"`
	}
	if err := decodeJSONBody(w, r, maxAdminBody, &body); err != nil {
		return nil, err
	}
	rawDesc, err := base64.StdEncoding.DecodeString(body.Descriptor)
	if err != nil {
		return nil, fmt.Errorf("%w: descriptor: %v", journal.ErrBadRequest, err)
	}
	rawSigs, err := base64.StdEncoding.DecodeString(body.Sigs)
	if err != nil {
		return nil, fmt.Errorf("%w: sigs: %v", journal.ErrBadRequest, err)
	}
	ms, err := sig.DecodeMultiSig(wire.NewReader(rawSigs))
	if err != nil {
		return nil, fmt.Errorf("%w: sigs: %v", journal.ErrBadRequest, err)
	}
	desc, err := decode(rawDesc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", journal.ErrBadRequest, err)
	}
	receipt, err := apply(desc, ms)
	if err != nil {
		return nil, err
	}
	return &Envelope{Receipt: enc(receipt)}, nil
}

func (s *Server) handlePurge(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	return mutate(w, r, ledger.DecodePurgeDescriptor, s.Ledger.Purge)
}

func (s *Server) handleOccult(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	return mutate(w, r, ledger.DecodeOccultDescriptor, s.Ledger.Occult)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	return &Envelope{
		URI:    s.Ledger.URI(),
		Size:   s.Ledger.Size(),
		Base:   s.Ledger.Base(),
		Height: s.Ledger.Height(),
		LSPKey: s.Ledger.LSPPublic().Hex(),
	}, nil
}
