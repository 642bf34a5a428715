// Package client is the ledger-client SDK for the HTTP service (package
// server). Every response that matters is re-verified locally: the
// client decodes the server's deterministic wire blobs and runs the pure
// verification functions, so a distrusted LSP cannot fake responses —
// "verified at client side when LSP is distrusted" (§II-C). The client
// also treats the network itself as hostile: calls honor context
// deadlines end to end, retries use capped full-jitter backoff and honor
// Retry-After, ambiguous append outcomes are made safe to retry by
// idempotency keys, a circuit breaker fails fast during outages, and any
// response that fails a local check is returned as a TamperError
// carrying the raw evidence.
package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// Errors returned by this package.
var (
	ErrHTTP = errors.New("client: request failed")
)

// APIError is a non-OK HTTP reply from the server, preserving the
// numeric status code. Callers that forward a backend error onward —
// the shard router fanning a request out through this client — need
// the code structurally (server.writeErr probes for HTTPStatus), not
// flattened into the message where a 410/451/403 would collapse to
// 500. It unwraps to ErrHTTP, and Error() keeps the historical
// "client: request failed: <status>: <message>" shape.
type APIError struct {
	Status     int    // numeric HTTP status code
	StatusText string // e.g. "410 Gone"
	Message    string // server envelope error text
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s: %s", ErrHTTP.Error(), e.StatusText, e.Message)
}

func (e *APIError) Unwrap() error { return ErrHTTP }

// HTTPStatus returns the reply's status code.
func (e *APIError) HTTPStatus() int { return e.Status }

// IdempotencyKeyHeader carries the client-computed request hash on
// append POSTs so the server can dedup a retried submission whose first
// response was lost.
const IdempotencyKeyHeader = "Idempotency-Key"

// idempotentReplayHeader marks a reply the server answered out of its
// dedup window: the original receipt of an append that had committed.
const idempotentReplayHeader = "Idempotent-Replay"

// Client talks to one ledger service endpoint on behalf of one member.
// A Client is safe for concurrent use once configured: the only mutable
// state is the request nonce, drawn atomically from a counter, and the
// verified-signature memo; both are shared with every derived client
// (Clone, WithContext).
type Client struct {
	BaseURL string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Key signs requests (π_c). Required for Append.
	Key *sig.KeyPair
	// LSP is the pinned service-provider key every receipt, state, and
	// proof is checked against. Required.
	LSP sig.PublicKey
	// Coordinator is the pinned cross-shard trust root: the key that
	// signs global states. Required only for GlobalState and
	// VerifyExistenceGlobal against a sharded deployment's router.
	Coordinator sig.PublicKey
	// URI is the target ledger identifier.
	URI string
	// Retries re-attempts a call after a retryable failure: 503/429 (the
	// server refused before committing) and 502/504 (an intermediary
	// failed), plus transport errors on GETs and on idempotency-keyed
	// appends (the server dedups a resubmission, so an ambiguous lost
	// response is safe to retry). Other POSTs are never transport-retried.
	// Zero means no retries.
	Retries int
	// RetryBackoff bounds the delay before the first retry; each actual
	// wait is drawn uniformly from [0, bound] (full jitter) and the bound
	// doubles per attempt up to MaxBackoff. A Retry-After header
	// overrides the jittered wait. Zero means 50ms.
	RetryBackoff time.Duration
	// MaxBackoff caps the backoff bound (and any server-advertised
	// Retry-After). Zero means 5s.
	MaxBackoff time.Duration
	// Timeout bounds each call (all retries included). Zero means no
	// client-imposed deadline beyond Context's.
	Timeout time.Duration
	// Context is the base context for every call; nil means
	// context.Background(). Use WithContext to derive a per-request
	// client without mutating a shared one.
	Context context.Context
	// Breaker, when set, fails calls fast after consecutive transport
	// failures. Share one *Breaker per endpoint.
	Breaker *Breaker

	// sleepFn and jitterFn are test seams for the retry loop.
	sleepFn  func(ctx context.Context, d time.Duration) error
	jitterFn func(bound time.Duration) time.Duration

	sharedOnce sync.Once
	nonce      *atomic.Uint64
	// memo remembers signatures this client (or a clone) has already
	// verified on the read path, so a proof that repeats the LSP state
	// of an unchanged generation or a record seen before skips those
	// ECDSA checks. Always on; see sig.Memo for why it cannot change a
	// verdict.
	memo *sig.Memo
}

// shared lazily allocates the state every client derived from this one
// shares: the nonce counter and the verified-signature memo.
func (c *Client) shared() {
	c.sharedOnce.Do(func() {
		if c.nonce == nil {
			c.nonce = new(atomic.Uint64)
		}
		if c.memo == nil {
			c.memo = new(sig.Memo)
		}
	})
}

// nextNonce draws a process-unique request nonce. The counter is shared
// by all clients derived from this one, so derived clients can never
// reuse a nonce.
func (c *Client) nextNonce() uint64 {
	c.shared()
	return c.nonce.Add(1)
}

// verifier is the read-path trust root: the pinned LSP key and the
// shared memo. Receipts (π_s) are not checked through it — each is
// seen once.
func (c *Client) verifier() ledger.Verifier {
	c.shared()
	return ledger.Verifier{LSP: c.LSP, Memo: c.memo}
}

// MemoStats reports how many read-path signature checks this client and
// its clones answered from the verified-signature memo (hits) and how
// many ran ECDSA (misses).
func (c *Client) MemoStats() (hits, misses uint64) {
	c.shared()
	return c.memo.Stats()
}

// Clone returns a new Client with the same configuration. The clone
// shares this client's nonce counter and verified-signature memo (and
// Breaker, if any), so clones may append concurrently without nonce
// collisions. Client values must not be copied directly (the nonce
// counter is copy-protected); use Clone to derive a variant, e.g. one
// pointed at a different BaseURL.
func (c *Client) Clone() *Client {
	c.shared() // allocate the shared state so the clone shares it
	return &Client{
		BaseURL:      c.BaseURL,
		HTTP:         c.HTTP,
		Key:          c.Key,
		LSP:          c.LSP,
		Coordinator:  c.Coordinator,
		URI:          c.URI,
		Retries:      c.Retries,
		RetryBackoff: c.RetryBackoff,
		MaxBackoff:   c.MaxBackoff,
		Timeout:      c.Timeout,
		Context:      c.Context,
		Breaker:      c.Breaker,
		sleepFn:      c.sleepFn,
		jitterFn:     c.jitterFn,
		nonce:        c.nonce,
		memo:         c.memo,
	}
}

// WithContext returns a derived client whose calls run under ctx
// (sharing the nonce counter, memo and breaker with the receiver). This
// is the per-call cancellation/deadline mechanism:
//
//	rc, err := cli.WithContext(ctx).Append(payload, "clue")
func (c *Client) WithContext(ctx context.Context) *Client {
	n := c.Clone()
	n.Context = ctx
	return n
}

type envelope struct {
	Receipt string   `json:"receipt"`
	State   string   `json:"state"`
	Record  string   `json:"record"`
	Proof   string   `json:"proof"`
	Payload string   `json:"payload"`
	JSNs    []uint64 `json:"jsns"`
	Result  string   `json:"result"`
	Error   string   `json:"error"`
	LSPKey  string   `json:"lsp_key"`
	URI     string   `json:"uri"`
	Size    uint64   `json:"size"`
	Base    uint64   `json:"base"`
	Height  uint64   `json:"height"`

	// Sharded-topology fields (router responses).
	Global   string            `json:"global"`
	Shard    *int              `json:"shard"`
	Shards   int               `json:"shards"`
	Receipts map[string]string `json:"receipts"`
	Results  map[string]string `json:"results"`
	CoordKey string            `json:"coord_key"`

	// Replication fields (pull frames and health watermarks).
	Frame      string  `json:"frame"`
	Generation *uint64 `json:"generation"`
	Jsn        *uint64 `json:"jsn"`
	Watermark  *uint64 `json:"watermark"`
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// reply is one completed exchange: the decoded envelope plus enough raw
// material to build TamperEvidence if a later check fails.
type reply struct {
	env        *envelope
	status     int
	httpStatus string
	retryAfter time.Duration
	replay     bool // the server marked this a deduplicated Idempotent-Replay
	method     string
	path       string
	reqBody    []byte
	rawBody    []byte
}

// tamper wraps a failed local check into a TamperError carrying this
// exchange's evidence.
func (r *reply) tamper(check string, err error) error {
	return &TamperError{
		Evidence: &TamperEvidence{
			Method:       r.method,
			Path:         r.path,
			Status:       r.status,
			RequestBody:  r.reqBody,
			ResponseBody: r.rawBody,
			Check:        check,
		},
		Err: err,
	}
}

// blob base64-decodes an envelope field, treating failure as tampering
// (the server encodes these fields itself; they cannot be malformed in
// an honest response).
func (r *reply) blob(field, what string) ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(field)
	if err != nil {
		return nil, r.tamper(what+" base64", fmt.Errorf("%w: base64: %v", ErrHTTP, err))
	}
	return b, nil
}

// retryableStatus reports whether a status is worth retrying: the
// server (or an intermediary) refused before committing anything.
// Everything else is a definitive answer — notably 404/410/451 for
// missing/purged/occulted journals and 4xx request errors.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusServiceUnavailable, // draining pipeline, closing ledger
		http.StatusTooManyRequests, // load shed before admission
		http.StatusBadGateway,      // intermediary failure
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.sleepFn != nil {
		return c.sleepFn(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) jitter(bound time.Duration) time.Duration {
	if c.jitterFn != nil {
		return c.jitterFn(bound)
	}
	if bound <= 0 {
		return 0
	}
	// Full jitter: uniform in [0, bound]. Decorrelated waits spread a
	// thundering herd of clients retrying after the same outage.
	return time.Duration(rand.Int63n(int64(bound) + 1))
}

func (c *Client) call(method, path string, body any) (*reply, error) {
	return c.callIdem(method, path, body, "")
}

// callIdem performs one logical call with retries. idem, when set, is
// the request's idempotency key: it makes transport-retrying a POST
// safe, because the server dedups resubmissions of the same key.
func (c *Client) callIdem(method, path string, body any, idem string) (*reply, error) {
	var payload []byte
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		payload = buf
	}
	ctx := c.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	if backoff > maxBackoff {
		backoff = maxBackoff
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if c.Breaker != nil {
			if err := c.Breaker.Allow(); err != nil {
				if lastErr != nil {
					return nil, fmt.Errorf("%w (last error: %v)", err, lastErr)
				}
				return nil, err
			}
		}
		rep, err := c.doOnce(ctx, method, path, payload, idem)
		if c.Breaker != nil {
			// Only failures that never produced an HTTP response — and
			// were not the caller's own context expiring — count against
			// the circuit.
			c.Breaker.Record(err != nil && rep == nil && ctx.Err() == nil)
		}
		var retryAfter time.Duration
		switch {
		case err == nil && rep.status == http.StatusOK:
			return rep, nil
		case err == nil:
			lastErr = &APIError{Status: rep.status, StatusText: rep.httpStatus, Message: rep.env.Error}
			if !retryableStatus(rep.status) {
				return nil, lastErr
			}
			retryAfter = rep.retryAfter
		default:
			lastErr = err
			var te *TamperError
			if errors.As(err, &te) {
				// A forged response must surface with its evidence, not
				// be papered over by a retry that happens to verify.
				return nil, lastErr
			}
			if ctx.Err() != nil {
				return nil, lastErr
			}
			if method != http.MethodGet && idem == "" {
				// A lost response does not mean a lost commit; without an
				// idempotency key a non-idempotent call must not be
				// resubmitted.
				return nil, lastErr
			}
		}
		if attempt >= c.Retries {
			return nil, lastErr
		}
		wait := c.jitter(backoff)
		if retryAfter > 0 {
			// Honor the server's hint, bounded so a hostile header cannot
			// stall the client past its own cap.
			wait = retryAfter
			if wait > maxBackoff {
				wait = maxBackoff
			}
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			return nil, fmt.Errorf("%w (last error: %v)", serr, lastErr)
		}
		// Double the bound with an overflow-proof cap.
		if backoff > maxBackoff/2 {
			backoff = maxBackoff
		} else {
			backoff *= 2
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, idem string) (*reply, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idem != "" {
		req.Header.Set(IdempotencyKeyHeader, idem)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrHTTP, err)
	}
	defer resp.Body.Close()
	rawBody, err := io.ReadAll(resp.Body)
	if err != nil {
		// Truncated or reset mid-body: a transport failure, retryable
		// where a lost response is retryable.
		return nil, fmt.Errorf("%w: read body: %w", ErrHTTP, err)
	}
	rep := &reply{
		env:        &envelope{},
		status:     resp.StatusCode,
		httpStatus: resp.Status,
		method:     method,
		path:       path,
		reqBody:    payload,
		rawBody:    rawBody,
	}
	rep.replay = resp.Header.Get(idempotentReplayHeader) == "true"
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
			rep.retryAfter = time.Duration(secs) * time.Second
		}
	}
	if err := json.Unmarshal(rawBody, rep.env); err != nil {
		if resp.StatusCode != http.StatusOK {
			// Error statuses may carry non-JSON bodies (proxies, caps).
			return rep, nil
		}
		// rep is returned too so the caller can tell this apart from a
		// transport failure (an HTTP response did arrive — the circuit
		// breaker must not count it).
		return rep, rep.tamper("envelope decode", fmt.Errorf("%w: decode: %v", ErrHTTP, err))
	}
	return rep, nil
}

// Append signs and submits a normal journal, verifying the returned
// receipt (π_s) against the pinned LSP key and the submitted hashes.
// The submission carries an idempotency key (the signed request's
// hash), so a retry after a lost response cannot double-append.
func (c *Client) Append(payload []byte, clues ...string) (*journal.Receipt, error) {
	_, receipt, err := c.AppendRouted(payload, clues...)
	return receipt, err
}

// AppendBatch signs and submits several payloads in one exchange (the
// amortized write path). The batch receipt is verified against the
// pinned LSP key and the returned tx-hash list; payloads[i] maps to jsn
// FirstJSN+i. The submission carries an idempotency key derived from
// all request hashes, so a retry after a lost response cannot
// double-append the batch.
func (c *Client) AppendBatch(payloads [][]byte, clues [][]string) (*ledger.BatchReceipt, []hashutil.Digest, error) {
	if clues != nil && len(clues) != len(payloads) {
		return nil, nil, fmt.Errorf("%w: %d clue sets for %d payloads", journal.ErrBadRequest, len(clues), len(payloads))
	}
	reqs := make([]*journal.Request, len(payloads))
	for i, p := range payloads {
		req := &journal.Request{
			LedgerURI: c.URI,
			Type:      journal.TypeNormal,
			Payload:   p,
			Nonce:     c.nextNonce(),
		}
		if clues != nil {
			req.Clues = clues[i]
		}
		if err := req.Sign(c.Key); err != nil {
			return nil, nil, err
		}
		reqs[i] = req
	}
	return c.SubmitBatch(reqs)
}

// State fetches and verifies the live signed state.
func (c *Client) State() (*ledger.SignedState, error) {
	rep, err := c.call("GET", "/v1/state", nil)
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.State, "state")
	if err != nil {
		return nil, err
	}
	st, err := ledger.DecodeSignedState(wire.NewReader(raw))
	if err != nil {
		return nil, rep.tamper("state decode", err)
	}
	if err := c.verifier().VerifySignedState(st); err != nil {
		return nil, rep.tamper("state signature", err)
	}
	return st, nil
}

// GetJournal fetches a committed record (unverified metadata read).
func (c *Client) GetJournal(jsn uint64) (*journal.Record, error) {
	rep, err := c.call("GET", fmt.Sprintf("/v1/journal/%d", jsn), nil)
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.Record, "record")
	if err != nil {
		return nil, err
	}
	rec, err := journal.DecodeRecord(raw)
	if err != nil {
		return nil, rep.tamper("record decode", err)
	}
	return rec, nil
}

// GetPayload fetches a journal's raw payload.
func (c *Client) GetPayload(jsn uint64) ([]byte, error) {
	rep, err := c.call("GET", fmt.Sprintf("/v1/payload/%d", jsn), nil)
	if err != nil {
		return nil, err
	}
	return rep.blob(rep.env.Payload, "payload")
}

// VerifyExistence runs the full client-side what(+who) verification for
// one journal: fetch the proof bundle and validate every layer locally.
func (c *Client) VerifyExistence(jsn uint64, withPayload bool) (*journal.Record, []byte, error) {
	path := fmt.Sprintf("/v1/proof/%d", jsn)
	if withPayload {
		path += "?payload=1"
	}
	rep, err := c.call("GET", path, nil)
	if err != nil {
		return nil, nil, err
	}
	raw, err := rep.blob(rep.env.Proof, "proof")
	if err != nil {
		return nil, nil, err
	}
	proof, err := ledger.DecodeExistenceProof(raw)
	if err != nil {
		return nil, nil, rep.tamper("existence proof decode", err)
	}
	rec, err := c.verifier().VerifyExistenceAnchored(proof, nil)
	if err != nil {
		return nil, nil, rep.tamper("existence proof verification", err)
	}
	return rec, proof.Payload, nil
}

// VerifyExistenceBatch fetches one batched proof for jsns and runs the
// client-side verification with the LSP state signature checked once
// and all journals folded to the shared signed root through the one fam
// proof the reply carries. Returns the verified records (in jsns order) and their
// payloads (nil entries for digest-only or occulted journals).
func (c *Client) VerifyExistenceBatch(jsns []uint64, withPayload bool) ([]*journal.Record, [][]byte, error) {
	rep, err := c.call("POST", "/v1/proofs", map[string]any{
		"jsns":    jsns,
		"payload": withPayload,
	})
	if err != nil {
		return nil, nil, err
	}
	raw, err := rep.blob(rep.env.Proof, "proof batch")
	if err != nil {
		return nil, nil, err
	}
	batch, err := ledger.DecodeExistenceProofBatch(raw)
	if err != nil {
		return nil, nil, rep.tamper("proof batch decode", err)
	}
	if len(batch.Items) != len(jsns) {
		return nil, nil, rep.tamper("proof batch shape",
			fmt.Errorf("%w: %d proofs for %d jsns", ledger.ErrVerify, len(batch.Items), len(jsns)))
	}
	recs, err := c.verifier().VerifyExistenceBatch(batch)
	if err != nil {
		return nil, nil, rep.tamper("proof batch verification", err)
	}
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		if rec.JSN != jsns[i] {
			return nil, nil, rep.tamper("proof batch jsn binding",
				fmt.Errorf("%w: proof %d is for jsn %d, want %d", ledger.ErrVerify, i, rec.JSN, jsns[i]))
		}
		payloads[i] = batch.Items[i].Payload
	}
	return recs, payloads, nil
}

// FetchAnchor downloads the service's current fam-aoa anchor. The
// caller must audit the ledger up to the anchor before trusting it;
// after that, VerifyExistenceAnchored uses near-constant-size proofs.
func (c *Client) FetchAnchor() (*fam.Anchor, error) {
	rep, err := c.call("GET", "/v1/anchor", nil)
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.Proof, "anchor")
	if err != nil {
		return nil, err
	}
	a, err := fam.DecodeAnchor(wire.NewReader(raw))
	if err != nil {
		return nil, rep.tamper("anchor decode", err)
	}
	return a, nil
}

// VerifyExistenceAnchored is VerifyExistence in the fam-aoa regime: the
// proof is built and checked against the verifier-held trusted anchor,
// so sealed-epoch journals cost O(δ) instead of a full merged-leaf
// chain.
func (c *Client) VerifyExistenceAnchored(jsn uint64, anchor *fam.Anchor, withPayload bool) (*journal.Record, []byte, error) {
	path := fmt.Sprintf("/v1/proof-anchored/%d", jsn)
	if withPayload {
		path += "?payload=1"
	}
	wr := wire.NewWriter(256)
	anchor.Encode(wr)
	rep, err := c.call("POST", path, map[string]string{
		"anchor": base64.StdEncoding.EncodeToString(wr.Bytes()),
	})
	if err != nil {
		return nil, nil, err
	}
	raw, err := rep.blob(rep.env.Proof, "anchored proof")
	if err != nil {
		return nil, nil, err
	}
	proof, err := ledger.DecodeExistenceProof(raw)
	if err != nil {
		return nil, nil, rep.tamper("anchored proof decode", err)
	}
	rec, err := c.verifier().VerifyExistenceAnchored(proof, anchor)
	if err != nil {
		return nil, nil, rep.tamper("anchored proof verification", err)
	}
	return rec, proof.Payload, nil
}

// ClueJSNs lists a clue's journal sequence numbers.
func (c *Client) ClueJSNs(clue string) ([]uint64, error) {
	rep, err := c.call("GET", "/v1/clue/"+url.PathEscape(clue)+"/jsns", nil)
	if err != nil {
		return nil, err
	}
	return rep.env.JSNs, nil
}

// VerifyClue runs the client-side lineage verification of §IV-C for a
// version range (end = 0 means the whole clue). It returns the verified
// records.
func (c *Client) VerifyClue(clue string, begin, end uint64) ([]*journal.Record, error) {
	rep, err := c.call("GET", fmt.Sprintf("/v1/clue/%s/proof?begin=%d&end=%d", url.PathEscape(clue), begin, end), nil)
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.Proof, "clue proof")
	if err != nil {
		return nil, err
	}
	bundle, err := ledger.DecodeClueProofBundle(raw)
	if err != nil {
		return nil, rep.tamper("clue bundle decode", err)
	}
	recs, err := c.verifier().VerifyClue(bundle)
	if err != nil {
		return nil, rep.tamper("clue lineage verification", err)
	}
	return recs, nil
}

// AnchorTime asks the service to run one time-notary round and verifies
// the returned receipt.
func (c *Client) AnchorTime() (*journal.Receipt, error) {
	rep, err := c.call("POST", "/v1/anchor-time", nil)
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.Receipt, "receipt")
	if err != nil {
		return nil, err
	}
	receipt, err := journal.DecodeReceipt(wire.NewReader(raw))
	if err != nil {
		return nil, rep.tamper("receipt decode", err)
	}
	if err := receipt.Verify(c.LSP); err != nil {
		return nil, rep.tamper("receipt signature", err)
	}
	return receipt, nil
}

// VerifyState runs a verifiable world-state read: fetch the MPT proof
// for key and check it against the LSP-signed state root. Returns the
// jsn and payload digest of the journal holding the current value.
func (c *Client) VerifyState(key []byte) (uint64, hashutil.Digest, error) {
	rep, err := c.call("GET", "/v1/stateproof?key="+base64.StdEncoding.EncodeToString(key), nil)
	if err != nil {
		return 0, hashutil.Zero, err
	}
	raw, err := rep.blob(rep.env.Proof, "state proof")
	if err != nil {
		return 0, hashutil.Zero, err
	}
	p, err := ledger.DecodeStateProof(raw)
	if err != nil {
		return 0, hashutil.Zero, rep.tamper("state proof decode", err)
	}
	jsn, dig, err := c.verifier().VerifyState(p)
	if err != nil {
		return 0, hashutil.Zero, rep.tamper("state proof verification", err)
	}
	return jsn, dig, nil
}

// Purge submits a purge with its gathered multi-signatures (admin API).
// The server re-verifies Prerequisite 1.
func (c *Client) Purge(desc *ledger.PurgeDescriptor, ms *sig.MultiSig) (*journal.Receipt, error) {
	return c.mutate("/v1/admin/purge", desc.EncodeBytes(), ms)
}

// Occult submits an occult with its gathered multi-signatures (admin
// API). The server re-verifies Prerequisite 2.
func (c *Client) Occult(desc *ledger.OccultDescriptor, ms *sig.MultiSig) (*journal.Receipt, error) {
	return c.mutate("/v1/admin/occult", desc.EncodeBytes(), ms)
}

func (c *Client) mutate(path string, desc []byte, ms *sig.MultiSig) (*journal.Receipt, error) {
	wr := wire.NewWriter(512)
	ms.Encode(wr)
	rep, err := c.call("POST", path, map[string]string{
		"descriptor": base64.StdEncoding.EncodeToString(desc),
		"sigs":       base64.StdEncoding.EncodeToString(wr.Bytes()),
	})
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.Receipt, "receipt")
	if err != nil {
		return nil, err
	}
	receipt, err := journal.DecodeReceipt(wire.NewReader(raw))
	if err != nil {
		return nil, rep.tamper("receipt decode", err)
	}
	if err := receipt.Verify(c.LSP); err != nil {
		return nil, rep.tamper("receipt signature", err)
	}
	return receipt, nil
}

// Info reports the service's public counters.
func (c *Client) Info() (uri string, size, base, height uint64, err error) {
	rep, err := c.call("GET", "/v1/info", nil)
	if err != nil {
		return "", 0, 0, 0, err
	}
	return rep.env.URI, rep.env.Size, rep.env.Base, rep.env.Height, nil
}

// PullFrame fetches one sealed replication frame for stream starting at
// offset from (max 0 lets the server pick its ceiling). It returns the
// frame's raw bytes: the replica puller decodes and digest-verifies them
// itself, so the codec check happens exactly once, at the trust
// boundary. Calls run under ctx end to end.
func (c *Client) PullFrame(ctx context.Context, stream string, from uint64, max int) ([]byte, error) {
	path := fmt.Sprintf("/v1/replica/pull?stream=%s&from=%d&max=%d", url.QueryEscape(stream), from, max)
	rep, err := c.WithContext(ctx).call("GET", path, nil)
	if err != nil {
		return nil, err
	}
	return rep.blob(rep.env.Frame, "frame")
}

// StateCtx is State under an explicit context (the replica puller's
// checkpoint fetch).
func (c *Client) StateCtx(ctx context.Context) (*ledger.SignedState, error) {
	return c.WithContext(ctx).State()
}

// FetchBundle downloads a self-contained offline proof bundle for one
// journal and verifies it against the pinned LSP key before returning
// it (no TSA pin at this layer — the offline verifier applies its own).
func (c *Client) FetchBundle(jsn uint64, withPayload bool) (*ledger.ProofBundle, error) {
	path := fmt.Sprintf("/v1/bundle/%d", jsn)
	if withPayload {
		path += "?payload=1"
	}
	rep, err := c.call("GET", path, nil)
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.Proof, "bundle")
	if err != nil {
		return nil, err
	}
	b, err := ledger.DecodeProofBundle(raw)
	if err != nil {
		return nil, rep.tamper("bundle decode", err)
	}
	if _, _, err := c.verifier().VerifyBundle(b, nil); err != nil {
		return nil, rep.tamper("bundle verification", err)
	}
	return b, nil
}

// Health reads the service's /healthz watermark fields: the applied
// journal frontier (jsn) and the newest verified checkpoint (watermark).
// On a follower, jsn-watermark is the staleness the service admits to.
func (c *Client) Health() (generation, jsn, watermark uint64, err error) {
	rep, err := c.call("GET", "/healthz", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if rep.env.Generation == nil || rep.env.Jsn == nil || rep.env.Watermark == nil {
		return 0, 0, 0, rep.tamper("health shape", fmt.Errorf("%w: health reply missing watermark fields", ErrHTTP))
	}
	return *rep.env.Generation, *rep.env.Jsn, *rep.env.Watermark, nil
}

// DiscoverLSP fetches the service's advertised LSP key. Pinning a key
// from the service itself is trust-on-first-use: fine for tooling, not a
// substitute for an out-of-band pin in adversarial settings.
func (c *Client) DiscoverLSP() (sig.PublicKey, error) {
	rep, err := c.call("GET", "/v1/info", nil)
	if err != nil {
		return sig.PublicKey{}, err
	}
	return sig.ParsePublicKey(rep.env.LSPKey)
}
