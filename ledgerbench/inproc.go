package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/index"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/server"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// serverDefaults are the flag defaults and hard-wired settings of
// cmd/ledgerdb-server/main.go. The traced stack is assembled from them
// so that it is the same system as the child process of an untraced
// run; TestServerDefaultsMatchMain fails if main.go moves and this
// table does not.
var serverDefaults = struct {
	Height      uint8
	Block       int
	Pipeline    int
	MaxInflight int
	ReqTimeout  time.Duration
	Fold        time.Duration
	SyncEvery   int // DiskOptions.SyncEvery, a literal in main.go
}{
	Height:      15,
	Block:       128,
	Pipeline:    256,
	MaxInflight: 1024,
	ReqTimeout:  30 * time.Second,
	Fold:        time.Second,
	SyncEvery:   256,
}

// stack is the serving topology of cmd/ledgerdb-server assembled
// in-process, optionally with spans at the seams the packages expose:
// handler wrappers around server.Server / server.Router, a RoundTripper
// on the router's ShardBackend clients, and a counting FileSystem under
// the ledger streams. The T-Ledger is left out: no workload anchors
// time, and without it /v1/anchor-time is simply absent.
type stack struct {
	engines []*ledger.Ledger
	indexes []*index.Index
	stores  []streamfs.Store
	coord   *shard.Coordinator
	servers []*http.Server
	baseURL string
	fs      *fsCounters // nil when untraced
}

// listen serves h on a fresh loopback port.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go func() {
		// Serve returns ErrServerClosed on close(); anything else has
		// already failed the client calls that will report it.
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

func newStack(w Workload, dir string, tr *Tracer) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	lsp, err := sig.Generate()
	if err != nil {
		return nil, err
	}
	dba, err := sig.Generate()
	if err != nil {
		return nil, err
	}
	clock := func() int64 { return time.Now().UnixNano() }
	streamOpts := streamfs.DiskOptions{SyncEvery: serverDefaults.SyncEvery}
	if tr != nil {
		s.fs = &fsCounters{}
		streamOpts.FS = countingFS{inner: streamfs.OSFileSystem(), c: s.fs}
	}
	srvOpts := server.Options{MaxInFlight: serverDefaults.MaxInflight, RequestTimeout: serverDefaults.ReqTimeout}
	shardSrvs := make([]*server.Server, w.Shards)
	for i := 0; i < w.Shards; i++ {
		d := dir
		if w.Shards > 1 {
			d = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		}
		store, err := streamfs.OpenDisk(filepath.Join(d, "streams"), streamOpts)
		if err != nil {
			return nil, err
		}
		s.stores = append(s.stores, store)
		blobs, err := streamfs.OpenDiskBlobs(filepath.Join(d, "blobs"))
		if err != nil {
			return nil, err
		}
		l, err := ledger.Open(ledger.Config{
			URI:           benchURI,
			FractalHeight: serverDefaults.Height,
			BlockSize:     serverDefaults.Block,
			LSP:           lsp,
			DBA:           dba.Public(),
			Store:         store,
			Blobs:         blobs,
			Clock:         clock,
			PipelineDepth: serverDefaults.Pipeline,
		})
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, l)
		// The index store is not counted: it is written by a
		// read-triggered tailer whose batching depends on timing, and
		// the streamfs counts must repeat exactly.
		ixStore, err := streamfs.OpenDisk(filepath.Join(d, "index"), streamfs.DiskOptions{SyncEvery: serverDefaults.SyncEvery})
		if err != nil {
			return nil, err
		}
		s.stores = append(s.stores, ixStore)
		ix, err := index.Open(l, ixStore)
		if err != nil {
			return nil, err
		}
		s.indexes = append(s.indexes, ix)
		shardSrvs[i] = server.NewWithOptions(l, nil, srvOpts)
		shardSrvs[i].Index = ix
	}

	wrap := func(name string, front bool, h http.Handler) http.Handler {
		if tr == nil {
			return h
		}
		return traceHandler(tr, name, front, h)
	}
	if w.Shards == 1 {
		s.baseURL, err = s.listen(wrap(layerServer, true, shardSrvs[0]))
		return s, err
	}

	part, err := shard.NewPartitioner(w.Shards)
	if err != nil {
		return nil, err
	}
	coordKey, err := sig.Generate()
	if err != nil {
		return nil, err
	}
	s.coord = shard.NewCoordinator(benchURI, s.engines, coordKey, clock)
	s.coord.Start(serverDefaults.Fold)
	backends := make([]server.ShardBackend, w.Shards)
	for i, srv := range shardSrvs {
		url, err := s.listen(wrap(layerServer, false, srv))
		if err != nil {
			return nil, err
		}
		b := &client.Client{BaseURL: url, LSP: lsp.Public(), URI: benchURI, Retries: 3, Breaker: &client.Breaker{}}
		if tr != nil {
			b.HTTP = &http.Client{Transport: &tracingRT{tr: tr, inner: http.DefaultTransport, name: layerFanout, parent: &tr.curFront}}
		}
		backends[i] = b
	}
	rt, err := server.NewRouter(s.coord, part, backends)
	if err != nil {
		return nil, err
	}
	s.baseURL, err = s.listen(wrap(layerRouter, true, rt))
	return s, err
}

// close stops serving and closes the engines, draining their pipelines.
func (s *stack) close() {
	for _, srv := range s.servers {
		_ = srv.Close() // listeners of a finished run; nothing to recover
	}
	if s.coord != nil {
		s.coord.Stop()
	}
	for _, l := range s.engines {
		_ = l.Close() // data dir is removed next
	}
	for _, st := range s.stores {
		_ = st.Close() // likewise
	}
}

// tracedClient is the single member client of an in-process run, with
// the transport span recorder when tracing.
func tracedClient(baseURL string, seed int64, w Workload, tr *Tracer) (*client.Client, error) {
	var rt http.RoundTripper = newKeepAliveTransport()
	if tr != nil {
		rt = &tracingRT{tr: tr, inner: rt, name: layerTransport, parent: &tr.curClient, front: true}
	}
	return newClient(baseURL, seed, rt, w.Shards > 1)
}
