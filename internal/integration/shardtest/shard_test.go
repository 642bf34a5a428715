package shardtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ledgerdb/internal/audit"
	"ledgerdb/internal/client"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/netchaos"
	"ledgerdb/internal/server"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

const topoURI = "ledger://shardtest-e2e"

// swapBackend is a mutable router backend slot: the kill-and-restart
// test points it at the restarted shard's service without rebuilding
// the router (a production router would re-resolve the shard address
// the same way).
type swapBackend struct {
	mu    sync.RWMutex
	inner server.ShardBackend
}

func (b *swapBackend) get() server.ShardBackend {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.inner
}

func (b *swapBackend) set(inner server.ShardBackend) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inner = inner
}

func (b *swapBackend) SubmitRequestReplay(ctx context.Context, req *journal.Request) (*journal.Receipt, bool, error) {
	return b.get().SubmitRequestReplay(ctx, req)
}

func (b *swapBackend) SubmitBatchReplay(ctx context.Context, reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error) {
	return b.get().SubmitBatchReplay(ctx, reqs)
}

func (b *swapBackend) Query(q ledger.Query) (*ledger.QueryResult, error) {
	return b.get().Query(q)
}

func (b *swapBackend) ProveAbsence(name string, prefix bool) (*ledger.AbsenceProof, error) {
	return b.get().ProveAbsence(name, prefix)
}

// topology is one full sharded deployment under test.
type topology struct {
	t      *testing.T
	clock  *logicalclock.Clock
	lsp    *sig.KeyPair
	dba    sig.PublicKey
	tl     *tledger.TLedger
	part   *shard.Partitioner
	coord  *shard.Coordinator
	stores []streamfs.Store
	blobs  []streamfs.BlobStore

	mu      sync.Mutex
	engines []*ledger.Ledger
	srvs    []*httptest.Server

	backends []*swapBackend
	routerTS *httptest.Server
	proxy    *netchaos.Proxy
	cli      *client.Client
}

func (tp *topology) engineConfig(i int) ledger.Config {
	return ledger.Config{
		URI:           topoURI,
		FractalHeight: 3, // tiny epochs: folds land mid-epoch and across seals
		BlockSize:     4,
		LSP:           tp.lsp,
		DBA:           tp.dba,
		Store:         tp.stores[i],
		Blobs:         tp.blobs[i],
		Clock:         tp.clock.Tick,
		PipelineDepth: 8,
	}
}

// shardService stands up shard i's HTTP surface and the hardened client
// the router forwards through. Each service carries a fresh sidecar
// index (memory-backed, rebuilt cold from the engine at open), so every
// restart also exercises the index-is-cache rebuild path.
func (tp *topology) shardService(i int) (*httptest.Server, *client.Client) {
	srv := server.NewWithOptions(tp.engine(i), tp.tl, server.Options{MaxInFlight: 64})
	ix, err := index.Open(tp.engine(i), streamfs.NewMemory())
	if err != nil {
		tp.t.Fatalf("open index for shard %d: %v", i, err)
	}
	srv.Index = ix
	ts := httptest.NewServer(srv)
	cli := &client.Client{
		BaseURL:      ts.URL,
		LSP:          tp.lsp.Public(),
		URI:          topoURI,
		Retries:      4,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		Timeout:      10 * time.Second,
	}
	return ts, cli
}

func (tp *topology) engine(i int) *ledger.Ledger {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.engines[i]
}

func newTopology(t *testing.T, n int) *topology {
	t.Helper()
	tp := &topology{
		t:     t,
		clock: logicalclock.New(500_000),
		lsp:   sig.GenerateDeterministic("shardtest-lsp"),
		dba:   sig.GenerateDeterministic("shardtest-dba").Public(),
	}
	tl, err := tledger.New(tledger.Config{
		Clock:     tp.clock.Now,
		Tolerance: 1_000,
		TSA:       tsa.NewPool(tsa.New("shardtest-tsa", tsa.Options{Clock: tp.clock.Now})),
	})
	if err != nil {
		t.Fatal(err)
	}
	tp.tl = tl
	tp.part, err = shard.NewPartitioner(n)
	if err != nil {
		t.Fatal(err)
	}
	tp.stores = make([]streamfs.Store, n)
	tp.blobs = make([]streamfs.BlobStore, n)
	tp.engines = make([]*ledger.Ledger, n)
	tp.srvs = make([]*httptest.Server, n)
	tp.backends = make([]*swapBackend, n)
	for i := 0; i < n; i++ {
		tp.stores[i] = streamfs.NewMemory()
		tp.blobs[i] = streamfs.NewMemoryBlobs()
		l, err := ledger.Open(tp.engineConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		tp.engines[i] = l
	}
	tp.coord = shard.NewCoordinator(topoURI, tp.engines, sig.GenerateDeterministic("shardtest-coord"), tp.clock.Now)
	t.Cleanup(tp.coord.Stop)

	routerBackends := make([]server.ShardBackend, n)
	for i := 0; i < n; i++ {
		ts, cli := tp.shardService(i)
		tp.srvs[i] = ts
		t.Cleanup(ts.Close)
		tp.backends[i] = &swapBackend{inner: cli}
		routerBackends[i] = tp.backends[i]
	}
	rt, err := server.NewRouter(tp.coord, tp.part, routerBackends)
	if err != nil {
		t.Fatal(err)
	}
	tp.routerTS = httptest.NewServer(rt)
	t.Cleanup(tp.routerTS.Close)

	tp.proxy = netchaos.NewProxy(http.DefaultTransport)
	tp.cli = &client.Client{
		BaseURL:      tp.routerTS.URL,
		HTTP:         &http.Client{Transport: tp.proxy},
		Key:          sig.GenerateDeterministic("shardtest-member"),
		LSP:          tp.lsp.Public(),
		Coordinator:  tp.coord.PublicKey(),
		URI:          topoURI,
		Retries:      6,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		Timeout:      10 * time.Second,
	}
	t.Cleanup(func() {
		for i := range tp.engines {
			tp.engine(i).Close()
		}
	})
	return tp
}

// killShard closes shard i's service and engine, simulating a crash of
// that node (durable streams survive in the memory store).
func (tp *topology) killShard(i int) {
	tp.t.Helper()
	tp.srvs[i].Close()
	if err := tp.engine(i).Close(); err != nil {
		tp.t.Fatalf("close shard %d: %v", i, err)
	}
}

// restartShard reopens shard i from its surviving stores, rewires the
// coordinator slot, and swaps the router backend to the new service.
func (tp *topology) restartShard(i int) {
	tp.t.Helper()
	re, err := ledger.Open(tp.engineConfig(i))
	if err != nil {
		tp.t.Fatalf("reopen shard %d: %v", i, err)
	}
	tp.mu.Lock()
	tp.engines[i] = re
	tp.mu.Unlock()
	tp.coord.SetShard(i, re)
	ts, cli := tp.shardService(i)
	tp.srvs[i] = ts
	tp.t.Cleanup(ts.Close)
	tp.backends[i].set(cli)
}

// crossShardAudit is the auditor's fold check: replay every shard's
// digest stream to the folded size, compare each recomputed fam root
// with the fold's head, rebuild the anchor tree independently, and
// match it against the coordinator-signed global root.
func (tp *topology) crossShardAudit() {
	tp.t.Helper()
	cfg := audit.Config{LSP: tp.lsp.Public(), DBA: tp.dba, TrustedTSA: []sig.PublicKey{tp.tl.Public()}}
	for i := range tp.engines {
		if _, err := audit.Audit(tp.engine(i), nil, cfg); err != nil {
			tp.t.Fatalf("shard %d audit: %v", i, err)
		}
	}
	f, err := tp.coord.Fold()
	if err != nil {
		tp.t.Fatal(err)
	}
	if err := f.State.Verify(tp.coord.PublicKey()); err != nil {
		tp.t.Fatal(err)
	}
	recomputed := make([]ledger.FamHead, len(f.Heads))
	for i, h := range f.Heads {
		if h.Size == 0 {
			continue
		}
		root, err := tp.engine(i).FamRootAt(h.Size)
		if err != nil {
			tp.t.Fatalf("shard %d fam replay: %v", i, err)
		}
		if root != h.Root {
			tp.t.Fatalf("shard %d: replayed root differs from folded head at size %d", i, h.Size)
		}
		recomputed[i] = ledger.FamHead{Size: h.Size, Root: root}
	}
	if got := shard.FoldRoot(recomputed); got != f.State.Root {
		tp.t.Fatalf("anchor tree rebuild %s differs from signed root %s", got, f.State.Root)
	}
}

// accepted is one journal the member holds a verified receipt for.
type accepted struct {
	shard   int
	jsn     uint64
	txHash  hashutil.Digest
	payload []byte
}

// TestShardedE2E drives the full topology over real HTTP: routed
// appends, the fan-out batch path, global proofs for every acknowledged
// record, owning-shard lineage reads, and the cross-shard audit.
func TestShardedE2E(t *testing.T) {
	tp := newTopology(t, 3)

	var committed []accepted
	seen := make(map[int]int)
	for i := 0; i < 40; i++ {
		payload := []byte(fmt.Sprintf("doc-%d", i))
		s, rc, err := tp.cli.AppendRouted(payload, fmt.Sprintf("clue-%d", i%9))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		committed = append(committed, accepted{shard: s, jsn: rc.JSN, txHash: rc.TxHash, payload: payload})
		seen[s]++
	}
	if len(seen) < 2 {
		t.Fatalf("40 clues landed on %d shard(s); want spread", len(seen))
	}

	// The fan-out batch path: every payload committed exactly once.
	payloads := make([][]byte, 12)
	clues := make([][]string, 12)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("batch-%d", i))
		clues[i] = []string{fmt.Sprintf("batch-clue-%d", i)}
	}
	receipts, _, err := tp.cli.AppendBatchSharded(payloads, clues)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var covered uint64
	for s, br := range receipts {
		covered += br.Count
		for j := uint64(0); j < br.Count; j++ {
			committed = append(committed, accepted{shard: s, jsn: br.FirstJSN + j})
		}
	}
	if covered != uint64(len(payloads)) {
		t.Fatalf("batch receipts cover %d, want %d", covered, len(payloads))
	}

	// The tentpole: one proof path per record, from any shard to the
	// coordinator-signed global root.
	if _, err := tp.cli.GlobalState(); err != nil {
		t.Fatalf("global state: %v", err)
	}
	for _, ar := range committed {
		rec, payload, err := tp.cli.VerifyExistenceGlobal(ar.shard, ar.jsn, true)
		if err != nil {
			t.Fatalf("global proof (%d, %d): %v", ar.shard, ar.jsn, err)
		}
		if ar.payload != nil && !bytes.Equal(payload, ar.payload) {
			t.Fatalf("global proof (%d, %d): payload mismatch", ar.shard, ar.jsn)
		}
		if ar.txHash != (hashutil.Digest{}) && rec.TxHash() != ar.txHash {
			t.Fatalf("global proof (%d, %d): tx-hash differs from receipt", ar.shard, ar.jsn)
		}
	}

	// Clue lineage lives wholly on the owning shard.
	sIdx, nShards, err := tp.cli.ShardOf("clue-4")
	if err != nil {
		t.Fatal(err)
	}
	if nShards != 3 {
		t.Fatalf("topology reports %d shards", nShards)
	}
	shardCli := tp.cli.Clone()
	shardCli.BaseURL = tp.srvs[sIdx].URL
	recs, err := shardCli.VerifyClue("clue-4", 0, 0)
	if err != nil {
		t.Fatalf("lineage on shard %d: %v", sIdx, err)
	}
	if len(recs) == 0 {
		t.Fatal("empty lineage for a clue that committed")
	}

	tp.crossShardAudit()
}

// TestKillOneShardChaos is the failure-semantics scenario: one shard
// dies mid-workload (with network faults injected on the client side),
// the others keep serving, no acknowledged receipt is lost, and after a
// restart from the same stores the rewired topology proves and audits
// cleanly — including records committed before the crash.
func TestKillOneShardChaos(t *testing.T) {
	tp := newTopology(t, 3)
	rng := rand.New(rand.NewSource(7))

	var committed []accepted
	appendOne := func(i int) error {
		payload := []byte(fmt.Sprintf("doc-%d", i))
		s, rc, err := tp.cli.AppendRouted(payload, fmt.Sprintf("clue-%d", i))
		if err != nil {
			return err
		}
		committed = append(committed, accepted{shard: s, jsn: rc.JSN, txHash: rc.TxHash, payload: payload})
		return nil
	}
	for i := 0; i < 30; i++ {
		if err := appendOne(i); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := tp.coord.Fold(); err != nil {
		t.Fatal(err)
	}

	// Kill the shard owning the most records; chaos-arm the client.
	counts := make(map[int]int)
	for _, ar := range committed {
		counts[ar.shard]++
	}
	victim := 0
	for s, c := range counts {
		if c > counts[victim] {
			victim = s
		}
	}
	tp.killShard(victim)
	tp.proxy.ArmSchedule(netchaos.RandomSchedule(rng, 32))

	// During the outage: appends routed to the dead shard must fail
	// loudly (no forged receipts); the survivors keep committing.
	okOther, failVictim := 0, 0
	for i := 100; i < 140; i++ {
		clue := fmt.Sprintf("clue-%d", i)
		target := tp.part.ShardOfClue(clue)
		err := appendOne(i)
		switch {
		case err == nil:
			if target == victim {
				t.Fatalf("append to killed shard %d succeeded", victim)
			}
			okOther++
		case target == victim:
			failVictim++
		default:
			// Survivor appends may still fail under injected chaos; they
			// must at least be classified client errors.
			var te *client.TamperError
			if !errors.Is(err, client.ErrHTTP) && !errors.As(err, &te) {
				t.Fatalf("unclassified survivor failure: %v", err)
			}
		}
	}
	if okOther == 0 {
		t.Fatal("no survivor append succeeded during the outage")
	}
	if failVictim == 0 {
		t.Fatal("workload never hit the killed shard; widen the clue range")
	}
	tp.proxy.Clear()

	// Global proofs for records on the dead shard keep verifying: folds
	// read the closed engine's surviving state.
	for _, ar := range committed {
		if _, _, err := tp.cli.VerifyExistenceGlobal(ar.shard, ar.jsn, true); err != nil {
			t.Fatalf("proof (%d, %d) during outage: %v", ar.shard, ar.jsn, err)
		}
	}

	// Restart from the same stores, rewire, and go again: the recovered
	// shard accepts appends and every old receipt still proves globally.
	tp.restartShard(victim)
	for i := 200; i < 215; i++ {
		if err := appendOne(i); err != nil {
			t.Fatalf("post-restart append %d: %v", i, err)
		}
	}
	for _, ar := range committed {
		rec, payload, err := tp.cli.VerifyExistenceGlobal(ar.shard, ar.jsn, true)
		if err != nil {
			t.Fatalf("proof (%d, %d) after restart: %v", ar.shard, ar.jsn, err)
		}
		if rec.TxHash() != ar.txHash {
			t.Fatalf("(%d, %d): tx-hash changed across restart", ar.shard, ar.jsn)
		}
		if !bytes.Equal(payload, ar.payload) {
			t.Fatalf("(%d, %d): payload changed across restart", ar.shard, ar.jsn)
		}
	}

	tp.crossShardAudit()
}

// TestSingleShardDegenerateTopology pins the 1-shard case: the router
// passes through, shard indexes are always 0, and global proofs verify
// — byte-for-byte the single-node deployment plus a signature.
func TestSingleShardDegenerateTopology(t *testing.T) {
	tp := newTopology(t, 1)
	for i := 0; i < 10; i++ {
		s, rc, err := tp.cli.AppendRouted([]byte(fmt.Sprintf("solo-%d", i)), "solo")
		if err != nil {
			t.Fatal(err)
		}
		if s != 0 {
			t.Fatalf("1-shard topology routed to %d", s)
		}
		if _, _, err := tp.cli.VerifyExistenceGlobal(0, rc.JSN, true); err != nil {
			t.Fatal(err)
		}
	}
	tp.crossShardAudit()
}
