// In-package tests for the hardened HTTP surface: bounded admission
// (429 + Retry-After), per-request timeouts, health endpoints flipping
// during drain, and append idempotency replay. These live in package
// server (not server_test) to reach the testStall seam that holds
// admission slots occupied deterministically.
package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"context"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

func newHardenedServer(t *testing.T, opts Options) (*Server, *ledger.Ledger, *sig.KeyPair) {
	t.Helper()
	clock := logicalclock.New(100_000)
	lsp := sig.GenerateDeterministic("shed-lsp")
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://shed",
		FractalHeight: 4,
		BlockSize:     8,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("shed-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         clock.Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return NewWithOptions(l, nil, opts), l, sig.GenerateDeterministic("shed-client")
}

func TestLoadShed429UnderSaturation(t *testing.T) {
	srv, _, _ := newHardenedServer(t, Options{MaxInFlight: 2, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv.testStall = func(r *http.Request) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/info")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// Wait until both slots are held, then the third request must be
	// shed immediately with 429 + Retry-After instead of queueing.
	<-entered
	<-entered
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want 2", got)
	}
	// Health endpoints bypass admission and answer even at saturation.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz at saturation: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	close(release)
	wg.Wait()
	// Slots freed: admitted again.
	srv.testStall = nil
	resp, err = http.Get(ts.URL + "/v1/info")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestReadyzFlipsDuringDrainAndRequestsRefused(t *testing.T) {
	srv, _, _ := newHardenedServer(t, Options{})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.testStall = func(r *http.Request) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	go func() {
		resp, err := http.Get(ts.URL + "/v1/info")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(context.Background()) }()

	// The drain latch is set synchronously before Shutdown blocks on the
	// in-flight request, but poll briefly to avoid racing the goroutine.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	// New work is refused 503 while the in-flight request finishes.
	resp, err = http.Get(ts.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain admission status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) while a request was still in flight", err)
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Liveness stays green through and after drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestPerRequestTimeout(t *testing.T) {
	srv, _, _ := newHardenedServer(t, Options{MaxInFlight: 4, RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	// Stall only the first request: the handler goroutine outlives its
	// timed-out response, so the stall hook must not be mutated later.
	var stalled atomic.Bool
	srv.testStall = func(r *http.Request) {
		if !stalled.Swap(true) {
			<-release
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("timeout response is not a JSON envelope: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout 503 carries no Retry-After")
	}
	if env.Error == "" {
		t.Fatal("timeout envelope has no error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	close(release)
	// The stuck handler finishes in the background and releases its
	// slot; a fresh request succeeds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released after timeout (last status %d)", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
}

// postAppend submits one encoded signed request with an explicit
// idempotency key, returning status, headers, and the decoded envelope.
func postAppend(t *testing.T, url string, req *journal.Request, key string) (int, http.Header, *Envelope) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{
		"request": base64.StdEncoding.EncodeToString(req.EncodeBytes()),
	})
	hreq, err := http.NewRequest("POST", url+"/v1/append", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if key != "" {
		hreq.Header.Set(idempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	raw, _ := io.ReadAll(resp.Body)
	json.Unmarshal(raw, &env)
	return resp.StatusCode, resp.Header, &env
}

func TestIdempotentAppendReplay(t *testing.T) {
	srv, l, key := newHardenedServer(t, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := &journal.Request{LedgerURI: "ledger://shed", Type: journal.TypeNormal, Payload: []byte("once"), Nonce: 1}
	if err := req.Sign(key); err != nil {
		t.Fatal(err)
	}
	ikey := journal.RequestKey(req.Hash())

	status, hdr, env := postAppend(t, ts.URL, req, ikey)
	if status != http.StatusOK {
		t.Fatalf("first append: status %d (%s)", status, env.Error)
	}
	if hdr.Get(idempotentReplayHeader) != "" {
		t.Fatal("first append marked as replay")
	}
	first := env.Receipt

	// The retried submission (same signed request, same key) replays the
	// original receipt byte for byte and commits nothing new.
	sizeBefore := l.Size()
	status, hdr, env = postAppend(t, ts.URL, req, ikey)
	if status != http.StatusOK {
		t.Fatalf("replay append: status %d (%s)", status, env.Error)
	}
	if hdr.Get(idempotentReplayHeader) != "true" {
		t.Fatal("replay not marked")
	}
	if env.Receipt != first {
		t.Fatal("replayed receipt differs from the original")
	}
	if l.Size() != sizeBefore {
		t.Fatalf("replay committed a journal: size %d -> %d", sizeBefore, l.Size())
	}

	// A key that does not match the signed request is rejected before
	// touching the ledger.
	req2 := &journal.Request{LedgerURI: "ledger://shed", Type: journal.TypeNormal, Payload: []byte("two"), Nonce: 2}
	if err := req2.Sign(key); err != nil {
		t.Fatal(err)
	}
	status, _, env = postAppend(t, ts.URL, req2, ikey)
	if status != http.StatusBadRequest {
		t.Fatalf("mismatched key: status %d (%s)", status, env.Error)
	}
	if l.Size() != sizeBefore {
		t.Fatal("mismatched key still committed")
	}

	// With its own matching key the fresh request commits normally.
	status, _, _ = postAppend(t, ts.URL, req2, journal.RequestKey(req2.Hash()))
	if status != http.StatusOK {
		t.Fatalf("append 2: status %d", status)
	}
	if l.Size() != sizeBefore+1 {
		t.Fatalf("size = %d, want %d", l.Size(), sizeBefore+1)
	}
}

func TestIdemTableEvictionPinsGenerations(t *testing.T) {
	tb := newIdemTable(2)
	exec := func(jsn uint64) func() (appendOutcome, error) {
		return func() (appendOutcome, error) {
			return appendOutcome{receipt: &journal.Receipt{JSN: jsn}}, nil
		}
	}
	noCheck := func(uint64) error { return nil }
	ctx := context.Background()
	for i := uint64(1); i <= 4; i++ {
		if _, replay, err := tb.dedup(ctx, fmt.Sprintf("k%d", i), exec(i), noCheck); err != nil || replay {
			t.Fatalf("k%d: replay=%v err=%v", i, replay, err)
		}
	}
	// k1, k2 evicted (cap 2); k3, k4 replay.
	if _, replay, _ := tb.dedup(ctx, "k4", exec(99), noCheck); !replay {
		t.Fatal("k4 not replayed")
	}
	if out, replay, _ := tb.dedup(ctx, "k1", exec(50), noCheck); replay || out.receipt.JSN != 50 {
		t.Fatalf("evicted k1 should re-execute: replay=%v jsn=%d", replay, out.receipt.JSN)
	}
	// A failing leader aborts; the next attempt executes afresh.
	if _, _, err := tb.dedup(ctx, "kf", func() (appendOutcome, error) {
		return appendOutcome{}, fmt.Errorf("boom")
	}, noCheck); err == nil {
		t.Fatal("leader failure not surfaced")
	}
	if _, replay, err := tb.dedup(ctx, "kf", exec(7), noCheck); err != nil || replay {
		t.Fatalf("post-abort: replay=%v err=%v", replay, err)
	}
}

// TestRouterReadyzFlipsWhenAShardDrains: a sharded process is one unit
// to a load balancer. The router's /readyz answers 200 while every
// shard it serves in-process takes work, and 503 + Retry-After as soon
// as one of them drains or has its engine closed — while /healthz stays
// green and the other shard keeps answering.
func TestRouterReadyzFlipsWhenAShardDrains(t *testing.T) {
	probe := func(rt *Router, path string) (int, string) {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Header().Get("Retry-After")
	}
	newRouter := func() (*Router, []*Server, []*ledger.Ledger) {
		srvs := make([]*Server, 2)
		engines := make([]*ledger.Ledger, 2)
		backends := make([]ShardBackend, 2)
		for i := range srvs {
			clock := logicalclock.New(100_000)
			l, err := ledger.Open(ledger.Config{
				URI:           "ledger://shed",
				FractalHeight: 4,
				BlockSize:     8,
				LSP:           sig.GenerateDeterministic("shed-lsp"),
				DBA:           sig.GenerateDeterministic("shed-dba").Public(),
				Store:         streamfs.NewMemory(),
				Blobs:         streamfs.NewMemoryBlobs(),
				Clock:         clock.Tick,
				PipelineDepth: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			engines[i], srvs[i] = l, NewWithOptions(l, nil, Options{RetryAfter: 3 * time.Second})
			backends[i] = srvs[i]
		}
		part, err := shard.NewPartitioner(2)
		if err != nil {
			t.Fatal(err)
		}
		coord := shard.NewCoordinator("ledger://shed", engines, sig.GenerateDeterministic("shed-coord"), func() int64 { return 1 })
		rt, err := NewRouter(coord, part, backends)
		if err != nil {
			t.Fatal(err)
		}
		return rt, srvs, engines
	}

	rt, srvs, _ := newRouter()
	if code, _ := probe(rt, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", code)
	}
	if err := srvs[1].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, ra := probe(rt, "/readyz"); code != http.StatusServiceUnavailable || ra != "3" {
		t.Fatalf("readyz with shard 1 draining = %d, Retry-After %q; want 503, 3", code, ra)
	}
	if code, _ := probe(rt, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d", code)
	}
	// The shard that is not draining still serves through the router.
	if _, err := srvs[0].ProveAbsence("nobody", false); err != nil {
		t.Fatalf("undrained shard refused work: %v", err)
	}
	if _, err := srvs[1].ProveAbsence("nobody", false); err == nil {
		t.Fatal("draining shard admitted work")
	}

	rt, _, engines := newRouter()
	if err := engines[0].Close(); err != nil {
		t.Fatal(err)
	}
	if code, ra := probe(rt, "/readyz"); code != http.StatusServiceUnavailable || ra == "" {
		t.Fatalf("readyz with shard 0's engine closed = %d, Retry-After %q; want 503 with a hint", code, ra)
	}
}
