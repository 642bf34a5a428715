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
	ra := o.RetryAfter
	if ra <= 0 {
		ra = time.Second
	}
	secs := int(ra / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// gate is the admission controller: a bounded in-flight counter plus a
// drain latch. It deliberately avoids sync.WaitGroup (Add after Wait
// races); the waiter channel is re-armed under the same mutex that
// counts admissions.
type gate struct {
	mu       sync.Mutex
	max      int // 0 = unlimited
	inflight int
	draining bool
	waiter   chan struct{} // closed when inflight reaches 0 while draining
}

type admitResult int

const (
	admitOK admitResult = iota
	admitShed
	admitDraining
)

func (g *gate) enter() admitResult {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return admitDraining
	}
	if g.max > 0 && g.inflight >= g.max {
		return admitShed
	}
	g.inflight++
	return admitOK
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

// ServeHTTP implements http.Handler: health endpoints bypass admission,
// everything else passes the gate and (when configured) the per-request
// timeout wrapper.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		s.handleHealthz(w, r)
		return
	case "/readyz":
		s.handleReadyz(w, r)
		return
	}
	switch s.gate.enter() {
	case admitShed:
		w.Header().Set("Retry-After", s.opts.retryAfterSecs())
		writeJSON(w, http.StatusTooManyRequests, &Envelope{Error: "server: over capacity"})
		return
	case admitDraining:
		w.Header().Set("Retry-After", s.opts.retryAfterSecs())
		writeJSON(w, http.StatusServiceUnavailable, &Envelope{Error: "server: draining"})
		return
	}
	if s.opts.RequestTimeout <= 0 {
		defer s.gate.leave()
		s.serveAdmitted(w, r)
		return
	}
	s.serveWithTimeout(w, r)
}

// serveAdmitted runs the mux (plus the test-only stall hook) for an
// admitted request.
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request) {
	if s.testStall != nil {
		s.testStall(r)
	}
	s.mux.ServeHTTP(w, r)
}

// serveWithTimeout is an http.TimeoutHandler-style wrapper that answers
// a JSON 503 + Retry-After when the handler overruns, instead of the
// stock plain-text 503. The handler keeps running (and keeps its
// admission slot) until it actually finishes, so a timeout cannot be
// used to multiply server load; its buffered response is discarded.
func (s *Server) serveWithTimeout(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	rec := &bufferedResponse{header: make(http.Header)}
	done := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer s.gate.leave()
		defer close(done)
		defer func() {
			if p := recover(); p != nil {
				panicked <- p
			}
		}()
		s.serveAdmitted(rec, r.WithContext(ctx))
	}()
	select {
	case <-done:
		select {
		case p := <-panicked:
			panic(p)
		default:
		}
		rec.copyTo(w)
	case <-ctx.Done():
		w.Header().Set("Retry-After", s.opts.retryAfterSecs())
		writeJSON(w, http.StatusServiceUnavailable, &Envelope{Error: "server: request timed out"})
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
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health(&Envelope{}))
}

// handleReadyz is readiness: false once the server starts draining (or
// the ledger is closed), so load balancers stop routing new work here
// while in-flight requests finish. A partitioned follower stays ready —
// serving checkpoint-anchored reads while degraded is the point — and
// reports its honest staleness via Jsn/Watermark.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.gate.isDraining() {
		w.Header().Set("Retry-After", s.opts.retryAfterSecs())
		writeJSON(w, http.StatusServiceUnavailable, s.health(&Envelope{Error: "server: draining"}))
		return
	}
	writeJSON(w, http.StatusOK, s.health(&Envelope{}))
}
