// Load shedding, per-request timeouts, health endpoints, and graceful
// drain for the HTTP surface. The design rule is the same as the commit
// pipeline's: refuse early and loudly (429/503 with Retry-After) rather
// than queue unboundedly, and never lose work that was already admitted.
package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ledgerdb/internal/ledger"
)

// Options tunes the hardened HTTP surface. The zero value keeps every
// mechanism off except idempotency dedup (which is always on, since the
// client always sends keys on appends).
type Options struct {
	// MaxInFlight bounds concurrently-served requests; excess load is
	// answered 429 + Retry-After immediately. Zero means unlimited.
	MaxInFlight int
	// RequestTimeout bounds each request's handling; a request that
	// exceeds it is answered 503 + Retry-After while the stuck handler
	// finishes (and keeps holding its admission slot) in the background.
	// Zero means no per-request timeout.
	RequestTimeout time.Duration
	// RetryAfter is the hint advertised on shed (429) and drain (503)
	// responses. Zero means 1s.
	RetryAfter time.Duration
	// IdempotencyCapacity bounds the append dedup window (entries).
	// Zero means 4096.
	IdempotencyCapacity int
}

func (o Options) retryAfterSecs() string {
	return strconv.Itoa(max(1, int(o.RetryAfter/time.Second)))
}

// gate is the admission controller: a bounded in-flight counter plus a
// drain latch. It deliberately avoids sync.WaitGroup (Add after Wait
// races); the waiter channel is re-armed under the same mutex that
// counts admissions.
type gate struct {
	mu         sync.Mutex
	max        int    // 0 = unlimited
	retryAfter string // hint on refusals, seconds
	inflight   int
	draining   bool
	waiter     chan struct{} // closed when inflight reaches 0 while draining
}

// enter takes an admission slot or says why not: 503 once draining,
// 429 at capacity. On nil the caller owes a leave.
func (g *gate) enter() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return g.refusal(http.StatusServiceUnavailable, "server: draining")
	}
	if g.max > 0 && g.inflight >= g.max {
		return g.refusal(http.StatusTooManyRequests, "server: over capacity")
	}
	g.inflight++
	return nil
}

func (g *gate) refusal(status int, msg string) error {
	return &statusError{status, msg, g.retryAfter}
}

func (g *gate) leave() {
	g.mu.Lock()
	g.inflight--
	var w chan struct{}
	if g.inflight == 0 && g.waiter != nil {
		w = g.waiter
		g.waiter = nil
	}
	g.mu.Unlock()
	if w != nil {
		close(w)
	}
}

// drain stops admissions and waits for in-flight requests to finish
// (or ctx to expire). Idempotent.
func (g *gate) drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	if g.inflight == 0 {
		g.mu.Unlock()
		return nil
	}
	if g.waiter == nil {
		g.waiter = make(chan struct{})
	}
	w := g.waiter
	g.mu.Unlock()
	select {
	case <-w:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Shutdown drains the HTTP surface: new requests are refused with 503 +
// Retry-After, in-flight requests (including any still holding slots
// past their response timeout) run to completion, then Shutdown
// returns. It does NOT close the ledger — the caller closes the stack
// afterwards, so every admitted append's group is committed before the
// ledger shuts: stop accepting, finish in-flight, then close.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.gate.drain(ctx)
}

// statusError is a refusal the service issues itself rather than a
// ledger outcome: the gate shedding or draining, a timeout, a missing
// index. Like a forwarded client.APIError it carries its HTTP status
// (writeErr probes for HTTPStatus), so it reads the same written at this
// service's front door or returned to a Router calling in-process.
type statusError struct {
	status     int
	msg        string
	retryAfter string // Retry-After seconds; "" for none
}

func (e *statusError) Error() string   { return e.msg }
func (e *statusError) HTTPStatus() int { return e.status }

// ServeHTTP implements http.Handler: health endpoints bypass admission,
// everything else passes the gate and (when configured) the per-request
// timeout wrapper.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
		s.mux.ServeHTTP(w, r)
		return
	}
	if err := s.gate.enter(); err != nil {
		writeErr(w, err, nil)
		return
	}
	if s.opts.RequestTimeout <= 0 {
		s.serveAdmitted(w, r)
		return
	}
	serveTimed(w, r, s.opts.RequestTimeout, s.gate.retryAfter, s.serveAdmitted)
}

// serveAdmitted runs the mux (plus the test-only stall hook) for an
// admitted request and gives its slot back — when the handler actually
// finishes, which under a timeout can be after its 503 went out, so a
// timeout cannot be used to multiply server load.
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request) {
	defer s.gate.leave()
	if s.testStall != nil {
		s.testStall(r)
	}
	s.mux.ServeHTTP(w, r)
}

// TimeoutHandler bounds h's handling of each request by d the way a
// Server bounds its own by Options.RequestTimeout. A sharded process
// wraps its Router in it: the router reaches its shards by function
// call, past their HTTP surface, so the timeout sits at the front door.
// d <= 0 returns h unchanged.
func TimeoutHandler(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveTimed(w, r, d, Options{}.retryAfterSecs(), h.ServeHTTP)
	})
}

// serveTimed is an http.TimeoutHandler-style wrapper that answers a
// JSON 503 + Retry-After when h overruns d, instead of the stock
// plain-text 503. h keeps running until it finishes; its buffered
// response is then discarded.
func serveTimed(w http.ResponseWriter, r *http.Request, d time.Duration, retryAfter string, h http.HandlerFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	rec := &bufferedResponse{header: make(http.Header)}
	finished := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer close(finished)
		defer func() {
			if p := recover(); p != nil {
				panicked <- p
			}
		}()
		h(rec, r.WithContext(ctx))
	}()
	select {
	case <-finished:
		select {
		case p := <-panicked:
			panic(p)
		default:
		}
		rec.copyTo(w)
	case <-ctx.Done():
		writeErr(w, &statusError{http.StatusServiceUnavailable, "server: request timed out", retryAfter}, nil)
	}
}

// bufferedResponse records a handler's response so it can be replayed
// or discarded after the timeout race is decided.
type bufferedResponse struct {
	header http.Header
	status int
	body   []byte
}

func (b *bufferedResponse) Header() http.Header { return b.header }
func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}
func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	b.body = append(b.body, p...)
	return len(p), nil
}

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	status := b.status
	if status == 0 {
		status = http.StatusOK
	}
	// The body is complete, so say how long it is: without this net/http
	// sends every reply past its 2 KiB sniff buffer chunked.
	w.Header().Set("Content-Length", strconv.Itoa(len(b.body)))
	w.WriteHeader(status)
	w.Write(b.body)
}

// handleHealthz is liveness: the process is up and serving. The reply
// carries the replication watermark fields (see Envelope) so operators
// see staleness without a separate endpoint.
func (s *Server) handleHealthz(http.ResponseWriter, *http.Request) (*Envelope, error) {
	return s.health(&Envelope{}), nil
}

// handleReadyz is readiness: false once the server starts draining (or
// the ledger is closed), so load balancers stop routing new work here
// while in-flight requests finish. A partitioned follower stays ready —
// serving checkpoint-anchored reads while degraded is the point — and
// reports its honest staleness via Jsn/Watermark.
func (s *Server) handleReadyz(http.ResponseWriter, *http.Request) (*Envelope, error) {
	return s.health(&Envelope{}), s.ready()
}

// ready says why this service should be sent no new work: its gate is
// draining or its engine's write path is shut. Both are 503s.
func (s *Server) ready() error {
	if s.gate.isDraining() {
		return s.gate.refusal(http.StatusServiceUnavailable, "server: draining")
	}
	if s.Ledger != nil && s.Ledger.Closed() {
		return ledger.ErrClosed
	}
	return nil
}
