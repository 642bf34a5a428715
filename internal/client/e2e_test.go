package client

import (
	"net/http/httptest"
	"testing"

	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

// In-package happy-path coverage: the SDK against a real service. (The
// server package hosts the cross-package end-to-end suite; these tests
// exercise the same flows from the client's side of the wire.)

func liveClient(t *testing.T) (*Client, *ledger.Ledger) {
	t.Helper()
	clock := logicalclock.New(500_000)
	lsp := sig.GenerateDeterministic("cli-e2e-lsp")
	authority := tsa.New("cli-e2e", tsa.Options{Clock: clock.Now})
	tl, err := tledger.New(tledger.Config{Clock: clock.Now, Tolerance: 1_000, TSA: tsa.NewPool(authority)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://cli-e2e",
		FractalHeight: 4,
		BlockSize:     8,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("cli-e2e-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         clock.Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(l, tl))
	t.Cleanup(srv.Close)
	return &Client{
		BaseURL: srv.URL,
		Key:     sig.GenerateDeterministic("cli-e2e-client"),
		LSP:     lsp.Public(),
		URI:     "ledger://cli-e2e",
	}, l
}

func TestClientHappyPaths(t *testing.T) {
	c, _ := liveClient(t)

	// Discovery matches the pinned key.
	pk, err := c.DiscoverLSP()
	if err != nil || pk != c.LSP {
		t.Fatalf("DiscoverLSP: %v", err)
	}

	// Append + journal/payload reads.
	r, err := c.Append([]byte("doc-0"), "k")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.GetJournal(r.JSN)
	if err != nil || rec.JSN != r.JSN {
		t.Fatalf("GetJournal: %v", err)
	}
	payload, err := c.GetPayload(r.JSN)
	if err != nil || string(payload) != "doc-0" {
		t.Fatalf("GetPayload: %q, %v", payload, err)
	}

	// Existence + state + info.
	if _, _, err := c.VerifyExistence(r.JSN, true); err != nil {
		t.Fatal(err)
	}
	st, err := c.State()
	if err != nil || st.JSN != 2 {
		t.Fatalf("State: %+v, %v", st, err)
	}
	uri, size, base, height, err := c.Info()
	if err != nil || uri != "ledger://cli-e2e" || size != 2 || base != 0 {
		t.Fatalf("Info: %s %d %d %d %v", uri, size, base, height, err)
	}

	// Clue flows.
	jsns, err := c.ClueJSNs("k")
	if err != nil || len(jsns) != 1 {
		t.Fatalf("ClueJSNs: %v %v", jsns, err)
	}
	recs, err := c.VerifyClue("k", 0, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("VerifyClue: %d %v", len(recs), err)
	}

	// Time anchoring.
	if _, err := c.AnchorTime(); err != nil {
		t.Fatal(err)
	}
}

func TestClientBatchAndAnchored(t *testing.T) {
	c, _ := liveClient(t)
	payloads := make([][]byte, 40)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	br, txHashes, err := c.AppendBatch(payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Count != 40 || len(txHashes) != 40 {
		t.Fatalf("batch: %+v", br)
	}
	// At δ=4 the 41 journals seal epochs 0 and 1: the first read of
	// journal 2 teaches epoch 0's root, the repeat is the short proof.
	for i := 0; i < 2; i++ {
		if rec, payload, err := c.VerifyExistence(2, true); err != nil || rec.JSN != 2 || payload == nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if sent, held, none := c.StateSlotStats(); sent != 1 || held != 0 || none != 1 {
		t.Fatalf("state slots: sent %d, held %d, none %d; want 1, 0, 1", sent, held, none)
	}
	recs, _, err := c.VerifyExistenceBatch([]uint64{2, 30, 40}, false)
	if err != nil || len(recs) != 3 {
		t.Fatalf("batch after the state was learned: %v", err)
	}
	if _, held, _ := c.StateSlotStats(); held != 1 {
		t.Fatalf("batch at the held state: %d held slots, want 1", held)
	}
}

func TestClientStateProofAndMutations(t *testing.T) {
	c, l := liveClient(t)
	_ = l
	// World-state write via a raw request (Append helper has no StateKey).
	r, err := c.Append([]byte("v1"), "k")
	if err != nil {
		t.Fatal(err)
	}
	// Occult through the admin API.
	dba := sig.GenerateDeterministic("cli-e2e-dba")
	desc := &ledger.OccultDescriptor{URI: "ledger://cli-e2e", JSN: r.JSN}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(dba); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Occult(desc, ms); err != nil {
		t.Fatal(err)
	}
	// Purge through the admin API (DBA + the client who owns journals).
	for i := 0; i < 3; i++ {
		if _, err := c.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pdesc := &ledger.PurgeDescriptor{URI: "ledger://cli-e2e", Point: 2, ErasePayloads: true}
	pms := sig.NewMultiSig(pdesc.Digest())
	for _, kp := range []*sig.KeyPair{dba, sig.GenerateDeterministic("cli-e2e-client")} {
		if err := pms.SignWith(kp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Purge(pdesc, pms); err != nil {
		t.Fatal(err)
	}
	_, _, base, _, err := c.Info()
	if err != nil || base != 2 {
		t.Fatalf("base = %d, %v", base, err)
	}
}
