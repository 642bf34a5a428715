// Command ledgerdb-server runs a LedgerDB service: the ledger engine
// behind the HTTP API of internal/server, with an embedded TSA pool and
// T-Ledger for time anchoring (Protocols 3 and 4), and a periodic
// finalization loop every Δτ.
//
// Usage:
//
//	ledgerdb-server [-addr :8420] [-uri ledger://demo] [-dir ./data]
//	                [-height 15] [-block 128] [-dtau 1s] [-pipeline 256]
//	                [-max-inflight 1024] [-req-timeout 30s] [-drain-timeout 30s]
//	                [-shards 1] [-fold 1s]
//
// With -shards N > 1 the process runs the clue-sharded topology: N
// engine instances each behind their own HTTP service, a coordinator
// folding their fam roots into one signed global state every -fold
// period, and the sharded router serving -addr. The router calls its
// shards' services in-process; each also listens on an ephemeral
// loopback port for shard-local reads and follower pulls. Clients pin
// both the LSP key and the coordinator key.
//
// On startup it prints the LSP public key fingerprint clients must pin.
// On SIGINT/SIGTERM it drains gracefully: /readyz flips to 503, new
// requests are refused, in-flight requests finish, then the ledger
// closes (committing every admitted group) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ledgerdb/internal/index"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/server"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

func main() {
	addr := flag.String("addr", ":8420", "listen address")
	uri := flag.String("uri", "ledger://demo", "ledger identifier")
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	height := flag.Uint("height", 15, "fam fractal height δ")
	block := flag.Int("block", 128, "journals per block")
	dtau := flag.Duration("dtau", time.Second, "T-Ledger finalization period Δτ")
	pipeline := flag.Int("pipeline", 256, "committer queue bound of the staged write path (0 = 256)")
	maxInflight := flag.Int("max-inflight", 1024, "concurrent requests admitted before shedding 429 (0 = unlimited)")
	reqTimeout := flag.Duration("req-timeout", 30*time.Second, "per-request handling timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight requests")
	shards := flag.Int("shards", 1, "clue-sharded engine instances (1 = single node)")
	fold := flag.Duration("fold", time.Second, "coordinator fold period (sharded mode)")
	flag.Parse()

	clock := func() int64 { return time.Now().UnixNano() }
	lsp, err := sig.Generate()
	if err != nil {
		log.Fatalf("generate LSP key: %v", err)
	}
	dba, err := sig.Generate()
	if err != nil {
		log.Fatalf("generate DBA key: %v", err)
	}

	pool := tsa.NewPool(
		tsa.New("tsa-1", tsa.Options{Clock: clock}),
		tsa.New("tsa-2", tsa.Options{Clock: clock}),
	)
	tl, err := tledger.New(tledger.Config{
		Clock:     clock,
		Tolerance: int64(*dtau),
		TSA:       pool,
	})
	if err != nil {
		log.Fatalf("t-ledger: %v", err)
	}

	nShards := *shards
	if nShards < 1 {
		nShards = 1
	}
	// shardDir is shard i's slice of the data directory; a single node
	// uses -dir itself.
	shardDir := func(i int, sub string) string {
		if nShards > 1 {
			return filepath.Join(*dir, fmt.Sprintf("shard-%d", i), sub)
		}
		return filepath.Join(*dir, sub)
	}
	diskOpts := streamfs.DiskOptions{SyncEvery: 256}
	engines := make([]*ledger.Ledger, nShards)
	shardSrvs := make([]*server.Server, nShards)
	for i := range engines {
		store, blobs := streamfs.NewMemory(), streamfs.NewMemoryBlobs()
		if *dir != "" {
			if store, err = streamfs.OpenDisk(shardDir(i, "streams"), diskOpts); err != nil {
				log.Fatalf("open store %d: %v", i, err)
			}
			if blobs, err = streamfs.OpenDiskBlobs(shardDir(i, "blobs")); err != nil {
				log.Fatalf("open blobs %d: %v", i, err)
			}
		}
		engines[i], err = ledger.Open(ledger.Config{
			URI:           *uri,
			FractalHeight: uint8(*height),
			BlockSize:     *block,
			LSP:           lsp,
			DBA:           dba.Public(),
			Store:         store,
			Blobs:         blobs,
			Clock:         clock,
			PipelineDepth: *pipeline,
		})
		if err != nil {
			log.Fatalf("open ledger %d: %v", i, err)
		}
		shardSrvs[i] = server.NewWithOptions(engines[i], tl, server.Options{
			MaxInFlight:    *maxInflight,
			RequestTimeout: *reqTimeout,
		})
		// The query index is memory-only (index = cache): every start
		// rebuilds it with one scan of the journal stream.
		if shardSrvs[i].Index, err = index.Open(engines[i], nil); err != nil {
			log.Fatalf("open index %d: %v", i, err)
		}
	}

	// Periodic time-notary finalization (Protocol 3 every Δτ).
	go func() {
		ticker := time.NewTicker(*dtau)
		defer ticker.Stop()
		for range ticker.C {
			if _, err := tl.Finalize(); err != nil {
				log.Printf("t-ledger finalize: %v", err)
			}
		}
	}()

	var front http.Handler = shardSrvs[0]
	var coord *shard.Coordinator
	if nShards > 1 {
		// Sharded topology: the router calls each shard's service directly
		// (same gate, dedup window and errors as over HTTP) and adds the
		// coordinator's cross-shard artifacts; each service also listens on
		// loopback for shard-local reads. -req-timeout guards the front door.
		part, err := shard.NewPartitioner(nShards)
		if err != nil {
			log.Fatalf("partitioner: %v", err)
		}
		coordKey, err := sig.Generate()
		if err != nil {
			log.Fatalf("generate coordinator key: %v", err)
		}
		coord = shard.NewCoordinator(*uri, engines, coordKey, clock)
		coord.Start(*fold)
		backends := make([]server.ShardBackend, nShards)
		for i, srv := range shardSrvs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatalf("shard %d listener: %v", i, err)
			}
			go func() {
				if err := http.Serve(ln, srv); err != nil && !errors.Is(err, net.ErrClosed) {
					log.Printf("shard %d serve: %v", i, err)
				}
			}()
			backends[i] = srv
			log.Printf("shard %d on %s", i, ln.Addr())
		}
		rt, err := server.NewRouter(coord, part, backends)
		if err != nil {
			log.Fatalf("router: %v", err)
		}
		front = server.TimeoutHandler(rt, *reqTimeout)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: front,
		// Listener-level timeouts: a slow-loris peer cannot hold a
		// connection open indefinitely while it dribbles headers or
		// ignores the response.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * *reqTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	if *reqTimeout <= 0 {
		httpSrv.WriteTimeout = 2 * time.Minute
	}

	fmt.Printf("ledgerdb-server: serving %s on %s (%d shard(s))\n", *uri, *addr, nShards)
	fmt.Printf("  LSP public key (pin this in clients): %s\n", lsp.Public().Fingerprint())
	if coord != nil {
		fmt.Printf("  coordinator key (pin for global proofs): %s\n", coord.PublicKey().Fingerprint())
	}
	fmt.Printf("  journals: %d, Δτ: %v\n", engines[0].Size(), *dtau)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case s := <-sigCh:
		log.Printf("received %v: draining", s)
	}

	// Graceful drain: stop admitting (readyz flips to 503), let
	// in-flight requests finish, stop the listeners, halt the fold loop,
	// then close every engine so every admitted commit group is durable
	// before exit.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	for i, srv := range shardSrvs {
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain shard %d: %v", i, err)
		}
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if coord != nil {
		coord.Stop()
	}
	for i, l := range engines {
		if err := l.Close(); err != nil {
			log.Printf("close ledger %d: %v", i, err)
		}
	}
}
