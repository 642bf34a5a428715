package benchkit

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/index"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/server"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// RoutedTopology is the -shards 2 serving topology of
// cmd/ledgerdb-server on memory stores: two engines with their indexes,
// each behind its own server.Server (the binary's -max-inflight and
// -req-timeout) on a loopback listener, a coordinator, and the router
// on a third listener. The only thing that varies is what the router
// holds as its backends: the two *server.Server values themselves
// (local — what the binary does) or hardened client.Clients pointed at
// the shards' listeners (remote — what a router in another process
// does). Member is a pinned client of the router's front door.
type RoutedTopology struct {
	Member  *client.Client
	engines []*ledger.Ledger
	coord   *shard.Coordinator
	servers []*http.Server
	serving sync.WaitGroup
}

const (
	routedURI    = "ledger://routed"
	routedShards = 2
	// routedPreload journals go in before a row is timed: every clue has
	// 32 versions, so a Limit-16 query for one clue's name gets 16 matches
	// from the clue's shard and an absence proof from the other.
	routedPreload = 2048
	routedClues   = 64
)

func routedClue(i int) string { return fmt.Sprintf("c%04d", i%routedClues) }

func (t *RoutedTopology) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	t.servers = append(t.servers, srv)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = srv.Serve(ln) // ErrServerClosed at Close; nothing else to report to
	}()
	return "http://" + ln.Addr().String(), nil
}

// NewRoutedTopology builds the topology and preloads it through the
// router. Close releases it.
func NewRoutedTopology(local bool) (_ *RoutedTopology, err error) {
	t := &RoutedTopology{}
	defer func() {
		if err != nil {
			t.Close()
		}
	}()
	lsp := sig.GenerateDeterministic("routed/lsp")
	clock := func() int64 { return time.Now().UnixNano() }
	opts := server.Options{MaxInFlight: 1024, RequestTimeout: 30 * time.Second}
	backends := make([]server.ShardBackend, routedShards)
	for i := range backends {
		l, err := ledger.Open(ledger.Config{
			URI:           routedURI,
			FractalHeight: 15,
			BlockSize:     128,
			LSP:           lsp,
			DBA:           sig.GenerateDeterministic("routed/dba").Public(),
			Store:         streamfs.NewMemory(),
			Blobs:         streamfs.NewMemoryBlobs(),
			Clock:         clock,
			PipelineDepth: 256,
		})
		if err != nil {
			return nil, err
		}
		t.engines = append(t.engines, l)
		srv := server.NewWithOptions(l, nil, opts)
		if srv.Index, err = index.Open(l, streamfs.NewMemory()); err != nil {
			return nil, err
		}
		url, err := t.listen(srv)
		if err != nil {
			return nil, err
		}
		backends[i] = srv
		if !local {
			backends[i] = &client.Client{BaseURL: url, LSP: lsp.Public(), URI: routedURI, Retries: 3, Breaker: &client.Breaker{}}
		}
	}
	part, err := shard.NewPartitioner(routedShards)
	if err != nil {
		return nil, err
	}
	t.coord = shard.NewCoordinator(routedURI, t.engines, sig.GenerateDeterministic("routed/coord"), clock)
	rt, err := server.NewRouter(t.coord, part, backends)
	if err != nil {
		return nil, err
	}
	url, err := t.listen(server.TimeoutHandler(rt, opts.RequestTimeout))
	if err != nil {
		return nil, err
	}
	t.Member = &client.Client{
		BaseURL:     url,
		HTTP:        &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		Key:         sig.GenerateDeterministic("routed/member"),
		LSP:         lsp.Public(),
		Coordinator: t.coord.PublicKey(),
		URI:         routedURI,
	}
	for done := 0; done < routedPreload; done += 256 {
		payloads, clues := make([][]byte, 256), make([][]string, 256)
		for j := range payloads {
			payloads[j] = Payload("routed-preload", done+j, 256)
			clues[j] = []string{routedClue(done + j)}
		}
		if _, _, err := t.Member.AppendBatchSharded(payloads, clues); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Close stops the listeners and the engines.
func (t *RoutedTopology) Close() {
	for _, srv := range t.servers {
		_ = srv.Close() // a finished bench; nothing to recover
	}
	t.serving.Wait()
	if t.coord != nil {
		t.coord.Stop()
	}
	for _, l := range t.engines {
		_ = l.Close() // memory stores: nothing to lose
	}
}

// benchRouted times one member call through the router, verified at
// the member like every call of the end-to-end benchmark: a routed
// append (sign π_c, route, commit, verify π_s) or a Limit-16 prefix
// query fanned to both shards (two batch proofs verified). Local and
// remote rows differ by what the router does to reach a shard — for an
// append one loopback round trip plus one cold π_s verify.
func benchRouted(local, query bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		t, err := NewRoutedTopology(local)
		if err != nil {
			b.Fatal(err)
		}
		defer t.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if query {
				_, err = t.Member.QueryRecords(ledger.Query{Kind: ledger.QueryByPrefix, Prefix: routedClue(i), Limit: 16})
			} else {
				_, _, err = t.Member.AppendRouted(Payload("routed", i, 256), routedClue(i))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
