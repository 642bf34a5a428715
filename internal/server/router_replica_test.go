package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

var errBackendDown = errors.New("backend down")

// stubBackend serves a real ledger and index in-process, with a switch
// that makes every call fail — a primary on the wrong side of a
// partition, as the router sees it.
type stubBackend struct {
	led  *ledger.Ledger
	ix   *index.Index
	down bool
}

func (b *stubBackend) SubmitRequestReplay(_ context.Context, req *journal.Request) (*journal.Receipt, bool, error) {
	if b.down {
		return nil, false, errBackendDown
	}
	receipt, err := b.led.Append(req)
	return receipt, false, err
}

func (b *stubBackend) SubmitBatchReplay(context.Context, []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error) {
	return nil, nil, false, errBackendDown
}

func (b *stubBackend) Query(q ledger.Query) (*ledger.QueryResult, error) {
	if b.down {
		return nil, errBackendDown
	}
	if err := b.ix.Sync(); err != nil {
		return nil, err
	}
	return b.ix.Query(q)
}

func (b *stubBackend) ProveAbsence(name string, prefix bool) (*ledger.AbsenceProof, error) {
	if b.down {
		return nil, errBackendDown
	}
	return b.led.ProveAbsence(name, prefix)
}

// newRouterPair builds a 1-shard router whose primary backend can be
// partitioned away, plus a replica backend over the same engine (the
// fallback under test is the routing, not the replication — the replica
// protocol itself is covered by internal/replica).
func newRouterPair(t *testing.T) (*Router, *stubBackend, *stubBackend, *sig.KeyPair) {
	t.Helper()
	const uri = "ledger://router-replica"
	clock := logicalclock.New(1000)
	lsp := sig.GenerateDeterministic("router/lsp")
	dba := sig.GenerateDeterministic("router/dba")
	cli := sig.GenerateDeterministic("router/client")
	coordKey := sig.GenerateDeterministic("router/coord")
	led, err := ledger.Open(ledger.Config{
		URI:           uri,
		FractalHeight: 4,
		BlockSize:     4,
		Clock:         clock.Tick,
		LSP:           lsp,
		DBA:           dba.Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	ix, err := index.Open(led, streamfs.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{"one", "two", "three"} {
		req := &journal.Request{
			LedgerURI: uri,
			Type:      journal.TypeNormal,
			Clues:     []string{"k"},
			Payload:   []byte(body),
			Nonce:     uint64(i + 1),
		}
		if err := req.Sign(cli); err != nil {
			t.Fatal(err)
		}
		if _, err := led.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	part, err := shard.NewPartitioner(1)
	if err != nil {
		t.Fatal(err)
	}
	coord := shard.NewCoordinator(uri, []*ledger.Ledger{led}, coordKey, clock.Tick)
	primary := &stubBackend{led: led, ix: ix}
	rt, err := NewRouter(coord, part, []ShardBackend{primary})
	if err != nil {
		t.Fatal(err)
	}
	replica := &stubBackend{led: led, ix: ix}
	if err := rt.WithReplicas([][]ShardBackend{{replica}}); err != nil {
		t.Fatal(err)
	}
	return rt, primary, replica, lsp
}

func routerGet(t *testing.T, rt *Router, path string) (int, *Envelope) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, rec.Body.Bytes(), err)
	}
	return rec.Code, &env
}

func TestRouterReadFallbackToReplica(t *testing.T) {
	rt, primary, _, lsp := newRouterPair(t)

	// Healthy: the primary answers.
	code, env := routerGet(t, rt, "/v1/query?kind=prefix&prefix=k")
	if code != http.StatusOK || env.Results["0"] == "" {
		t.Fatalf("healthy query: %d %+v", code, env)
	}

	// Partitioned primary: the same read is served by the replica, and
	// the proof-carrying reply still verifies against the LSP key.
	primary.down = true
	code, env = routerGet(t, rt, "/v1/query?kind=prefix&prefix=k")
	if code != http.StatusOK {
		t.Fatalf("fallback query: %d %+v", code, env)
	}
	raw, err := base64.StdEncoding.DecodeString(env.Results["0"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := ledger.DecodeQueryResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "k"}
	recs, err := ledger.VerifyQueryResult(lsp.Public(), q, res)
	if err != nil {
		t.Fatalf("fallback result verification: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("fallback records = %d", len(recs))
	}

	// Absence falls back the same way.
	code, env = routerGet(t, rt, "/v1/absence?clue=missing")
	if code != http.StatusOK || env.Result == "" {
		t.Fatalf("fallback absence: %d %+v", code, env)
	}
}

func TestRouterAppendsNeverFallBack(t *testing.T) {
	rt, primary, _, _ := newRouterPair(t)
	primary.down = true

	cli := sig.GenerateDeterministic("router/client")
	req := &journal.Request{
		LedgerURI: "ledger://router-replica",
		Type:      journal.TypeNormal,
		Clues:     []string{"k"},
		Payload:   []byte("write"),
		Nonce:     99,
	}
	if err := req.Sign(cli); err != nil {
		t.Fatal(err)
	}
	body := `{"request":"` + base64.StdEncoding.EncodeToString(req.EncodeBytes()) + `"}`
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/append", strings.NewReader(body)))
	if rec.Code == http.StatusOK {
		t.Fatalf("append succeeded through a replica: %d %s", rec.Code, rec.Body.Bytes())
	}
}

func TestRouterWithReplicasValidates(t *testing.T) {
	rt, _, _, _ := newRouterPair(t)
	if err := rt.WithReplicas(nil); err == nil {
		t.Fatal("WithReplicas(nil) accepted for a 1-shard router")
	}
	if err := rt.WithReplicas(make([][]ShardBackend, 2)); err == nil {
		t.Fatal("WithReplicas with 2 sets accepted for 1 shard")
	}
}

// TestRouterNoReplicasReportsPrimaryError pins the no-fallback path: the
// primary's own error surfaces, not a nil-slice panic.
func TestRouterNoReplicasReportsPrimaryError(t *testing.T) {
	rt, primary, _, _ := newRouterPair(t)
	rt.replicas = nil
	primary.down = true
	code, env := routerGet(t, rt, "/v1/query?kind=prefix&prefix=k")
	if code == http.StatusOK || env.Error == "" {
		t.Fatalf("no-replica query: %d %+v", code, env)
	}
}
