package server_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/server"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// A Router over *server.Server backends and a Router over
// *client.Client backends must be the same service: the tests below run
// one scripted session against both and require the same answers.

const parityURI = "ledger://parity"

// countingListener counts accepted connections: how a test sees whether
// the router reached a shard over loopback at all.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// parityTopo is a 2-shard topology behind a router; the backends are
// the shards' *server.Server values (local) or clients of the shards'
// listeners (remote). Everything else — keys, clock, options, the
// listeners themselves — is identical.
type parityTopo struct {
	local   bool
	member  *sig.KeyPair
	part    *shard.Partitioner
	coord   *shard.Coordinator
	engines []*ledger.Ledger
	shards  []*server.Server
	shardTS []*httptest.Server
	conns   []*countingListener
	router  *server.Router
	front   *httptest.Server
	cli     *client.Client // the OUTER client: pins LSP + coordinator, verifies everything
	nonce   uint64
}

func newParityTopo(t *testing.T, local bool, opts server.Options) *parityTopo {
	t.Helper()
	tp := &parityTopo{local: local, member: sig.GenerateDeterministic("parity/member")}
	clock := logicalclock.New(1_000_000)
	lsp := sig.GenerateDeterministic("parity/lsp")
	var err error
	if tp.part, err = shard.NewPartitioner(2); err != nil {
		t.Fatal(err)
	}
	backends := make([]server.ShardBackend, 2)
	for i := range backends {
		l, err := ledger.Open(ledger.Config{
			URI:           parityURI,
			FractalHeight: 3,
			BlockSize:     4,
			LSP:           lsp,
			DBA:           sig.GenerateDeterministic("parity/dba").Public(),
			Store:         streamfs.NewMemory(),
			Blobs:         streamfs.NewMemoryBlobs(),
			Clock:         clock.Tick,
			PipelineDepth: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		srv := server.NewWithOptions(l, nil, opts)
		if srv.Index, err = index.Open(l, streamfs.NewMemory()); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv)
		cl := &countingListener{Listener: ts.Listener}
		ts.Listener = cl
		ts.Start()
		t.Cleanup(ts.Close)
		tp.engines = append(tp.engines, l)
		tp.shards = append(tp.shards, srv)
		tp.shardTS = append(tp.shardTS, ts)
		tp.conns = append(tp.conns, cl)
		backends[i] = srv
		if !local {
			// No retries: a refusal must surface as it is, not after the
			// forwarding client has slept through its Retry-After.
			backends[i] = &client.Client{BaseURL: ts.URL, LSP: lsp.Public(), URI: parityURI}
		}
	}
	tp.coord = shard.NewCoordinator(parityURI, tp.engines, sig.GenerateDeterministic("parity/coord"), clock.Now)
	t.Cleanup(tp.coord.Stop)
	if tp.router, err = server.NewRouter(tp.coord, tp.part, backends); err != nil {
		t.Fatal(err)
	}
	tp.front = httptest.NewServer(tp.router)
	t.Cleanup(tp.front.Close)
	tp.cli = &client.Client{
		BaseURL:     tp.front.URL,
		Key:         tp.member,
		LSP:         lsp.Public(),
		Coordinator: tp.coord.PublicKey(),
		URI:         parityURI,
	}
	return tp
}

func (tp *parityTopo) name() string {
	if tp.local {
		return "local"
	}
	return "remote"
}

// clueOn returns the n-th clue name that routes to shard s.
func (tp *parityTopo) clueOn(s, n int) string {
	for i := 0; ; i++ {
		c := fmt.Sprintf("k%03d", i)
		if tp.part.ShardOfClue(c) == s {
			if n == 0 {
				return c
			}
			n--
		}
	}
}

// signed builds the next pre-signed member request.
func (tp *parityTopo) signed(t *testing.T, payload string, clues ...string) *journal.Request {
	t.Helper()
	tp.nonce++
	req := &journal.Request{LedgerURI: parityURI, Type: journal.TypeNormal, Clues: clues, Payload: []byte(payload), Nonce: 1_000_000 + tp.nonce}
	if err := req.Sign(tp.member); err != nil {
		t.Fatal(err)
	}
	return req
}

// seen is what one raw exchange looked like from outside.
type seen struct {
	Status     int
	Shape      string // sorted names of the non-empty envelope fields
	Replay     bool
	RetryAfter bool
	Detail     string // probe-specific: routing, jsns, counts
	receipt    string // not compared across topologies: signatures differ
}

func (s seen) String() string {
	return fmt.Sprintf("status=%d shape=[%s] replay=%t retry-after=%t %s", s.Status, s.Shape, s.Replay, s.RetryAfter, s.Detail)
}

func exchange(t *testing.T, method, url string, body []byte, idemKey string) seen {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if idemKey != "" {
		req.Header.Set(client.IdempotencyKeyHeader, idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("%s %s: reply is not a JSON envelope: %q", method, url, raw)
	}
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	out := seen{
		Status:     resp.StatusCode,
		Shape:      strings.Join(names, ","),
		Replay:     resp.Header.Get("Idempotent-Replay") == "true",
		RetryAfter: resp.Header.Get("Retry-After") != "",
	}
	if r, ok := fields["receipt"]; ok {
		out.receipt = string(r)
	}
	return out
}

func appendBody(reqs ...*journal.Request) []byte {
	enc := make([]string, len(reqs))
	for i, r := range reqs {
		enc[i] = base64.StdEncoding.EncodeToString(r.EncodeBytes())
	}
	var body []byte
	if len(reqs) == 1 {
		body, _ = json.Marshal(map[string]string{"request": enc[0]})
	} else {
		body, _ = json.Marshal(map[string]any{"requests": enc})
	}
	return body
}

// holdSlot occupies one admission slot of shard s through its own
// listener — a POST whose body never ends — and returns the release.
func (tp *parityTopo) holdSlot(t *testing.T, s int) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(tp.shardTS[s].URL+"/v1/append", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte(`{"request":"`)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for exchange(t, "GET", tp.shardTS[s].URL+"/v1/info", nil, "").Status != http.StatusTooManyRequests {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d never filled its gate", s)
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		pw.CloseWithError(io.ErrUnexpectedEOF)
		<-done
		for exchange(t, "GET", tp.shardTS[s].URL+"/v1/info", nil, "").Status != http.StatusOK {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never freed its slot", s)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func dbaSigned(t *testing.T, digest hashutil.Digest, extra ...*sig.KeyPair) *sig.MultiSig {
	t.Helper()
	ms := sig.NewMultiSig(digest)
	for _, kp := range append([]*sig.KeyPair{sig.GenerateDeterministic("parity/dba")}, extra...) {
		if err := ms.SignWith(kp); err != nil {
			t.Fatal(err)
		}
	}
	return ms
}

// paritySession is the scripted session: every step runs against one
// topology and reports what it saw. Steps share state through the
// topology (what was appended where), so order matters and both
// topologies get the same order.
var paritySession = []struct {
	name string
	want int // expected status; 0 = the step asserts for itself
	run  func(t *testing.T, tp *parityTopo) seen
}{
	{"24 routed appends, verified by the outer client", 0, func(t *testing.T, tp *parityTopo) seen {
		var routes []string
		next := map[int]uint64{0: 1, 1: 1} // jsn 0 is each shard's genesis
		for i := 0; i < 24; i++ {
			clue := fmt.Sprintf("k%03d", (i*7)%10)
			s, rc, err := tp.cli.AppendRouted([]byte(fmt.Sprintf("payload-%d", i)), clue)
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if s != tp.part.ShardOfClue(clue) {
				t.Fatalf("append %d: clue %q landed on shard %d, partitioner says %d", i, clue, s, tp.part.ShardOfClue(clue))
			}
			if rc.JSN != next[s] {
				t.Fatalf("append %d: shard %d gave jsn %d, want the dense next %d", i, s, rc.JSN, next[s])
			}
			next[s]++
			routes = append(routes, fmt.Sprintf("%d:%d", s, rc.JSN))
		}
		return seen{Status: 200, Detail: strings.Join(routes, " ")}
	}},
	{"raw append", 200, func(t *testing.T, tp *parityTopo) seen {
		req := tp.signed(t, "raw", tp.clueOn(0, 0))
		return exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), journal.RequestKey(req.Hash()))
	}},
	{"retried append replays the original receipt", 200, func(t *testing.T, tp *parityTopo) seen {
		req := tp.signed(t, "once", tp.clueOn(1, 0))
		key := journal.RequestKey(req.Hash())
		first := exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), key)
		size := tp.engines[1].Size()
		again := exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), key)
		if first.Status != 200 || first.Replay || !again.Replay || again.receipt != first.receipt {
			t.Fatalf("%s: first %v, retry %v (same receipt: %t)", tp.name(), first, again, again.receipt == first.receipt)
		}
		if tp.engines[1].Size() != size {
			t.Fatalf("%s: the retry committed a second journal", tp.name())
		}
		return again
	}},
	{"append with a key that is not the request's", 400, func(t *testing.T, tp *parityTopo) seen {
		req := tp.signed(t, "mismatch", tp.clueOn(0, 0))
		size := tp.engines[0].Size()
		got := exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), strings.Repeat("ab", 32))
		if tp.engines[0].Size() != size {
			t.Fatalf("%s: a mismatched key still committed", tp.name())
		}
		return got
	}},
	{"append body that is not JSON", 400, func(t *testing.T, tp *parityTopo) seen {
		return exchange(t, "POST", tp.front.URL+"/v1/append", []byte("not json"), "")
	}},
	{"append with a bad client signature", 403, func(t *testing.T, tp *parityTopo) seen {
		req := tp.signed(t, "forged", tp.clueOn(1, 0))
		req.ClientSig[5] ^= 0x40
		return exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), "")
	}},
	{"sharded batch, verified by the outer client", 0, func(t *testing.T, tp *parityTopo) seen {
		payloads, clues := make([][]byte, 16), make([][]string, 16)
		for i := range payloads {
			payloads[i] = []byte(fmt.Sprintf("batch-%d", i))
			clues[i] = []string{fmt.Sprintf("k%03d", i%10)}
		}
		receipts, _, err := tp.cli.AppendBatchSharded(payloads, clues)
		if err != nil {
			t.Fatal(err)
		}
		var parts []string
		for s := 0; s < 2; s++ {
			parts = append(parts, fmt.Sprintf("%d:%d+%d", s, receipts[s].FirstJSN, receipts[s].Count))
		}
		return seen{Status: 200, Detail: strings.Join(parts, " ")}
	}},
	{"retried raw batch replays", 200, func(t *testing.T, tp *parityTopo) seen {
		reqs := []*journal.Request{tp.signed(t, "b0", tp.clueOn(0, 1)), tp.signed(t, "b1", tp.clueOn(1, 1)), tp.signed(t, "b2", tp.clueOn(0, 2))}
		key := journal.BatchRequestKey([]hashutil.Digest{reqs[0].Hash(), reqs[1].Hash(), reqs[2].Hash()})
		first := exchange(t, "POST", tp.front.URL+"/v1/append-batch", appendBody(reqs...), key)
		again := exchange(t, "POST", tp.front.URL+"/v1/append-batch", appendBody(reqs...), key)
		if first.Status != 200 || first.Replay || !again.Replay {
			t.Fatalf("%s: first %v, retry %v", tp.name(), first, again)
		}
		return again
	}},
	{"batch with a key that is not the batch's", 400, func(t *testing.T, tp *parityTopo) seen {
		reqs := []*journal.Request{tp.signed(t, "m0", tp.clueOn(0, 0)), tp.signed(t, "m1", tp.clueOn(1, 0))}
		return exchange(t, "POST", tp.front.URL+"/v1/append-batch", appendBody(reqs...), journal.RequestKey(reqs[0].Hash()))
	}},
	{"fanned-out query, verified by the outer client", 200, func(t *testing.T, tp *parityTopo) seen {
		recs, err := tp.cli.QueryRecords(ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "k00", Limit: 8})
		if err != nil {
			t.Fatal(err)
		}
		var jsns []string
		for _, r := range recs {
			jsns = append(jsns, fmt.Sprint(r.JSN))
		}
		got := exchange(t, "GET", tp.front.URL+"/v1/query?kind=prefix&prefix=k00&limit=8", nil, "")
		got.Detail = strings.Join(jsns, ",")
		return got
	}},
	{"query with an unknown kind", 400, func(t *testing.T, tp *parityTopo) seen {
		return exchange(t, "GET", tp.front.URL+"/v1/query?kind=nonsense", nil, "")
	}},
	{"exact absence, verified by the outer client", 200, func(t *testing.T, tp *parityTopo) seen {
		if _, err := tp.cli.VerifyAbsence("no-such-clue", false); err != nil {
			t.Fatal(err)
		}
		return exchange(t, "GET", tp.front.URL+"/v1/absence?clue=no-such-clue", nil, "")
	}},
	{"prefix absence, verified by the outer client", 200, func(t *testing.T, tp *parityTopo) seen {
		proofs, err := tp.cli.VerifyAbsence("zz", true)
		if err != nil || len(proofs) != 2 {
			t.Fatalf("%d proofs, %v", len(proofs), err)
		}
		return exchange(t, "GET", tp.front.URL+"/v1/absence?clue=zz&prefix=1", nil, "")
	}},
	{"absence of a live clue", 409, func(t *testing.T, tp *parityTopo) seen {
		return exchange(t, "GET", tp.front.URL+"/v1/absence?clue="+tp.clueOn(0, 0), nil, "")
	}},
	{"every routed record proves globally", 0, func(t *testing.T, tp *parityTopo) seen {
		if _, err := tp.coord.Fold(); err != nil {
			t.Fatal(err)
		}
		for s, l := range tp.engines {
			for jsn := uint64(1); jsn < l.Size(); jsn++ {
				if _, _, err := tp.cli.VerifyExistenceGlobal(s, jsn, true); err != nil {
					t.Fatalf("shard %d jsn %d: %v", s, jsn, err)
				}
			}
		}
		return seen{Status: 200, Detail: fmt.Sprintf("sizes %d %d", tp.engines[0].Size(), tp.engines[1].Size())}
	}},
	{"payload of an occulted journal, from the shard's own listener", 451, func(t *testing.T, tp *parityTopo) seen {
		desc := &ledger.OccultDescriptor{URI: parityURI, JSN: 3}
		if _, err := tp.engines[1].Occult(desc, dbaSigned(t, desc.Digest())); err != nil {
			t.Fatal(err)
		}
		return exchange(t, "GET", tp.shardTS[1].URL+"/v1/payload/3", nil, "")
	}},
	{"global proof of a purged journal", 410, func(t *testing.T, tp *parityTopo) seen {
		desc := &ledger.PurgeDescriptor{URI: parityURI, Point: 3, ErasePayloads: true}
		if _, err := tp.engines[0].Purge(desc, dbaSigned(t, desc.Digest(), tp.member)); err != nil {
			t.Fatal(err)
		}
		return exchange(t, "GET", tp.front.URL+"/v1/proof-global/0/1", nil, "")
	}},
	{"append to a shard whose gate is full", 429, func(t *testing.T, tp *parityTopo) seen {
		release := tp.holdSlot(t, 0)
		defer release()
		req := tp.signed(t, "shed", tp.clueOn(0, 0))
		return exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), "")
	}},
	{"query while one shard's gate is full", 429, func(t *testing.T, tp *parityTopo) seen {
		release := tp.holdSlot(t, 1)
		defer release()
		return exchange(t, "GET", tp.front.URL+"/v1/query?kind=prefix&prefix=k", nil, "")
	}},
	{"append once the gate has a free slot again", 200, func(t *testing.T, tp *parityTopo) seen {
		req := tp.signed(t, "after-shed", tp.clueOn(0, 0))
		return exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), "")
	}},
	{"append to a draining shard", 503, func(t *testing.T, tp *parityTopo) seen {
		if err := tp.shards[0].Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		req := tp.signed(t, "drained", tp.clueOn(0, 0))
		return exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), "")
	}},
	{"absence from a draining shard", 503, func(t *testing.T, tp *parityTopo) seen {
		// A name shard 0 would own and never saw.
		return exchange(t, "GET", tp.front.URL+"/v1/absence?clue="+tp.clueOn(0, 40), nil, "")
	}},
	{"append to a shard whose engine is closed", 503, func(t *testing.T, tp *parityTopo) seen {
		if err := tp.engines[1].Close(); err != nil {
			t.Fatal(err)
		}
		req := tp.signed(t, "closed", tp.clueOn(1, 0))
		return exchange(t, "POST", tp.front.URL+"/v1/append", appendBody(req), "")
	}},
	{"batch when every shard refuses", 502, func(t *testing.T, tp *parityTopo) seen {
		reqs := []*journal.Request{tp.signed(t, "r0", tp.clueOn(0, 0)), tp.signed(t, "r1", tp.clueOn(1, 0))}
		return exchange(t, "POST", tp.front.URL+"/v1/append-batch", appendBody(reqs...), "")
	}},
}

// TestBackendParity runs the session against a router over *Server
// backends and a router over *client.Client backends and requires, step
// by step, the same status, envelope shape, replay and Retry-After
// markers, routing and jsns; every 200 the outer client sees has been
// verified under the pinned LSP and coordinator keys.
func TestBackendParity(t *testing.T) {
	// One admission slot per shard, so that one held request fills a gate.
	opts := server.Options{MaxInFlight: 1}
	topos := []*parityTopo{newParityTopo(t, true, opts), newParityTopo(t, false, opts)}
	for _, step := range paritySession {
		var got [2]seen
		for i, tp := range topos {
			got[i] = step.run(t, tp)
			if step.want != 0 && got[i].Status != step.want {
				t.Fatalf("%s [%s]: %v, want status %d", step.name, tp.name(), got[i], step.want)
			}
			if got[i].Status == 429 || got[i].Status == 503 {
				if !got[i].RetryAfter {
					t.Fatalf("%s [%s]: %v carries no Retry-After", step.name, tp.name(), got[i])
				}
			}
		}
		got[0].receipt, got[1].receipt = "", ""
		if got[0] != got[1] {
			t.Fatalf("%s:\n  local  %v\n  remote %v", step.name, got[0], got[1])
		}
		t.Logf("%-62s %v", step.name, got[0])
	}
}

// TestLocalRoutedAppendCosts is the count behind the claim: with local
// backends one routed append makes the server process verify exactly
// one signature (π_c) and make exactly one (π_s), and opens no loopback
// connection; with client backends the router verifies π_s a second
// time and dials the shard.
func TestLocalRoutedAppendCosts(t *testing.T) {
	for _, local := range []bool{true, false} {
		tp := newParityTopo(t, local, server.Options{})
		reqs := make([]*journal.Request, 8)
		for i := range reqs {
			reqs[i] = tp.signed(t, fmt.Sprintf("count-%d", i), tp.clueOn(i%2, 0))
		}
		signs0, verifies0 := sig.OpCounts()
		for _, req := range reqs {
			// Straight into the router's handler: no outer client, so
			// every ECDSA operation counted is the server side's.
			rec := httptest.NewRecorder()
			tp.router.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/append", bytes.NewReader(appendBody(req))))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: append status %d: %s", tp.name(), rec.Code, rec.Body)
			}
		}
		signs1, verifies1 := sig.OpCounts()
		signs, verifies := signs1-signs0, verifies1-verifies0
		dials := tp.conns[0].accepted.Load() + tp.conns[1].accepted.Load()
		t.Logf("%s backends, %d routed appends: %d ECDSA signs, %d ECDSA verifies, %d loopback connections", tp.name(), len(reqs), signs, verifies, dials)
		n := uint64(len(reqs))
		wantVerifies, wantDials := n, false
		if !local {
			wantVerifies, wantDials = 2*n, true
		}
		if signs != n || verifies != wantVerifies || (dials > 0) != wantDials {
			t.Fatalf("%s backends: %d signs (want %d), %d verifies (want %d), %d loopback connections (want any: %t)",
				tp.name(), signs, n, verifies, wantVerifies, dials, wantDials)
		}
	}
}

// TestBackendParityUnderDrain appends from several goroutines while
// the shards drain and their engines close, for both backend kinds
// (run it under -race). Every append either comes back verified or
// fails with a refusal the client may retry elsewhere; and every
// receipt that was handed out names a journal its shard still holds
// after the engine closed — drain loses no admitted commit.
func TestBackendParityUnderDrain(t *testing.T) {
	for _, local := range []bool{true, false} {
		tp := newParityTopo(t, local, server.Options{MaxInFlight: 64, RequestTimeout: 10 * time.Second})
		type ack struct {
			shard int
			rc    *journal.Receipt
		}
		var mu sync.Mutex
		var acked []ack
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl := tp.cli.Clone()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s, rc, err := cl.AppendRouted([]byte(fmt.Sprintf("w%d-%d", w, i)), fmt.Sprintf("k%03d", (w*31+i)%50))
					if err != nil {
						var api *client.APIError
						if !errors.As(err, &api) || (api.Status != 503 && api.Status != 429) {
							t.Errorf("%s: append failed with something other than a refusal: %v", tp.name(), err)
							return
						}
						continue
					}
					mu.Lock()
					acked = append(acked, ack{s, rc})
					mu.Unlock()
				}
			}(w)
		}
		// Let traffic build, then do what cmd/ledgerdb-server does on
		// SIGTERM: drain every shard, then close every engine.
		for {
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= 40 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		for i, srv := range tp.shards {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("%s: drain shard %d: %v", tp.name(), i, err)
			}
		}
		for i, l := range tp.engines {
			if err := l.Close(); err != nil {
				t.Fatalf("%s: close engine %d: %v", tp.name(), i, err)
			}
		}
		close(stop)
		wg.Wait()
		for _, a := range acked {
			rec, err := tp.engines[a.shard].GetJournal(a.rc.JSN)
			if err != nil || rec.TxHash() != a.rc.TxHash {
				t.Fatalf("%s: acknowledged shard %d jsn %d is not in the closed engine: %v", tp.name(), a.shard, a.rc.JSN, err)
			}
		}
		t.Logf("%s backends: %d appends acknowledged before the drain, all durable", tp.name(), len(acked))
	}
}
