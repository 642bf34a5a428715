package main

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one client
// call share Op; Parent is the span that caused this one (0 = none).
// Times are nanoseconds since the tracer started.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"` // response body bytes (transport spans)
}

// Layer names. They are package names: a span belongs to the package
// whose public entry point it brackets.
const (
	layerClient    = "client"    // around a client.Client call
	layerTransport = "transport" // RoundTripper on Client.HTTP
	layerServer    = "server"    // http.Handler around server.Server
	layerRouter    = "router"    // http.Handler around server.Router
	layerFanout    = "fanout"    // RoundTripper on the router's ShardBackend clients
)

// spanHeader carries the calling span's id across an HTTP hop.
const spanHeader = "X-Ledgerbench-Span"

// Tracer keeps spans in memory; they are written out when the run ends.
// It assumes ONE closed-loop client: at most one client call and one
// front-door handler are in flight, which is what lets a fan-out
// request find its parent without threading a context through
// server.ShardBackend (an interface this PR may not change).
type Tracer struct {
	t0 time.Time

	// on gates recording: set-up and gate traffic is not recorded.
	on atomic.Bool

	mu    sync.Mutex
	spans []Span

	curOp     atomic.Int32 // op id of the client call in flight
	curClient atomic.Int32 // its span
	curFront  atomic.Int32 // the front-door handler span in flight

	shed     atomic.Int64 // 429 replies seen by the client transport
	idemHits atomic.Int64 // Idempotent-Replay replies seen
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id, or 0 while recording is off.
func (t *Tracer) begin(name string, parent int32) int32 {
	if !t.on.Load() {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: t.curOp.Load(), Name: name, Start: start})
	t.mu.Unlock()
	return id
}

func (t *Tracer) end(id int32, bytes int64) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// call brackets one client call: op numbers it, name is
// "client.<kind>".
func (t *Tracer) call(op int32, name string, fn func() error) error {
	t.curOp.Store(op)
	id := t.begin(name, 0)
	t.curClient.Store(id)
	err := fn()
	t.end(id, 0)
	return err
}

// tracingRT records one span per HTTP exchange, from the request
// leaving to the last body byte read.
type tracingRT struct {
	tr     *Tracer
	inner  http.RoundTripper
	name   string
	parent *atomic.Int32 // the span in flight one layer up
	front  bool          // client-facing hop: count shed / idempotent replies
}

type spanBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

func (rt *tracingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	id := rt.tr.begin(rt.name, rt.parent.Load())
	r = r.Clone(r.Context()) // a RoundTripper must not modify the caller's request
	r.Header.Set(spanHeader, strconv.Itoa(int(id)))
	resp, err := rt.inner.RoundTrip(r)
	if err != nil {
		rt.tr.end(id, 0)
		return nil, err
	}
	if rt.front {
		if resp.StatusCode == http.StatusTooManyRequests {
			rt.tr.shed.Add(1)
		}
		if resp.Header.Get("Idempotent-Replay") != "" {
			rt.tr.idemHits.Add(1)
		}
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) { rt.tr.end(id, n) }}
	return resp, nil
}

// traceHandler records one span per handled request. A front handler
// also publishes itself as the parent of any fan-out it causes.
func traceHandler(tr *Tracer, name string, front bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // absent (health probes) = 0
		id := tr.begin(name, int32(parent))
		if front {
			tr.curFront.Store(id)
		}
		h.ServeHTTP(w, r)
		tr.end(id, 0)
	})
}

// selfTimes returns, per span id, the span's duration minus the part of
// it covered by its direct children. Children may overlap each other
// (a fan-out runs shards concurrently), so the covered part is the
// union of the child intervals clipped to the parent.
func selfTimes(spans []Span) map[int32]int64 {
	children := make(map[int32][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerOf maps a span name to its layer ("client.append" -> "client").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
