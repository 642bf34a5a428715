package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

// stack is a full end-to-end deployment: ledger + T-Ledger + TSA behind
// an httptest server, plus a verified client.
type stack struct {
	srv    *httptest.Server
	cli    *client.Client
	ledger *ledger.Ledger
	tl     *tledger.TLedger
	clock  *logicalclock.Clock
}

func newStack(t *testing.T) *stack {
	t.Helper()
	clock := logicalclock.New(100_000)
	lsp := sig.GenerateDeterministic("e2e-lsp")
	authority := tsa.New("e2e", tsa.Options{Clock: clock.Now})
	tl, err := tledger.New(tledger.Config{
		Clock:     clock.Now,
		Tolerance: 1000,
		TSA:       tsa.NewPool(authority),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://e2e",
		FractalHeight: 4,
		BlockSize:     8,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("e2e-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         clock.Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(l, tl))
	t.Cleanup(srv.Close)
	return &stack{
		srv: srv,
		cli: &client.Client{
			BaseURL: srv.URL,
			Key:     sig.GenerateDeterministic("e2e-client"),
			LSP:     lsp.Public(),
			URI:     "ledger://e2e",
		},
		ledger: l,
		tl:     tl,
		clock:  clock,
	}
}

func TestEndToEndAppendAndVerify(t *testing.T) {
	s := newStack(t)
	var receipts []*journal.Receipt
	for i := 0; i < 20; i++ {
		r, err := s.cli.Append([]byte(fmt.Sprintf("doc-%d", i)), "trail")
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		receipts = append(receipts, r)
	}
	for _, r := range receipts {
		rec, payload, err := s.cli.VerifyExistence(r.JSN, true)
		if err != nil {
			t.Fatalf("VerifyExistence(%d): %v", r.JSN, err)
		}
		if rec.TxHash() != r.TxHash {
			t.Fatal("verified record differs from receipt")
		}
		if len(payload) == 0 {
			t.Fatal("payload missing")
		}
	}
}

func TestEndToEndBatchedProofs(t *testing.T) {
	s := newStack(t)
	var jsns []uint64
	var want []hashutil.Digest
	for i := 0; i < 20; i++ {
		r, err := s.cli.Append([]byte(fmt.Sprintf("doc-%d", i)), "batch")
		if err != nil {
			t.Fatal(err)
		}
		jsns = append(jsns, r.JSN)
		want = append(want, r.TxHash)
	}
	recs, payloads, err := s.cli.VerifyExistenceBatch(jsns, true)
	if err != nil {
		t.Fatalf("VerifyExistenceBatch: %v", err)
	}
	if len(recs) != len(jsns) {
		t.Fatalf("verified %d of %d records", len(recs), len(jsns))
	}
	for i, rec := range recs {
		if rec.TxHash() != want[i] {
			t.Fatalf("record %d differs from its receipt", i)
		}
		if string(payloads[i]) != fmt.Sprintf("doc-%d", i) {
			t.Fatalf("payload %d = %q", i, payloads[i])
		}
	}
	// Digest-only form ships no payloads.
	_, payloads, err = s.cli.VerifyExistenceBatch(jsns[:3], false)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if p != nil {
			t.Fatalf("digest-only batch shipped payload %d", i)
		}
	}

	// Request-shape violations surface as HTTP errors, not panics.
	over := make([]uint64, ledger.MaxProofBatch+1)
	if _, _, err := s.cli.VerifyExistenceBatch(over, false); !errors.Is(err, client.ErrHTTP) {
		t.Fatalf("oversized batch: %v", err)
	}
	if _, _, err := s.cli.VerifyExistenceBatch(nil, false); !errors.Is(err, client.ErrHTTP) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, _, err := s.cli.VerifyExistenceBatch([]uint64{1, 999}, false); !errors.Is(err, client.ErrHTTP) {
		t.Fatalf("out-of-range batch: %v", err)
	}
}

func TestEndToEndClueVerification(t *testing.T) {
	s := newStack(t)
	for i := 0; i < 9; i++ {
		if _, err := s.cli.Append([]byte(fmt.Sprintf("v%d", i)), "DCI001"); err != nil {
			t.Fatal(err)
		}
	}
	jsns, err := s.cli.ClueJSNs("DCI001")
	if err != nil {
		t.Fatal(err)
	}
	if len(jsns) != 9 {
		t.Fatalf("jsns = %v", jsns)
	}
	recs, err := s.cli.VerifyClue("DCI001", 0, 0)
	if err != nil {
		t.Fatalf("VerifyClue: %v", err)
	}
	if len(recs) != 9 {
		t.Fatalf("verified %d records", len(recs))
	}
	// Range form.
	recs, err = s.cli.VerifyClue("DCI001", 2, 5)
	if err != nil || len(recs) != 3 {
		t.Fatalf("range verify: %d, %v", len(recs), err)
	}
}

func TestEndToEndState(t *testing.T) {
	s := newStack(t)
	s.cli.Append([]byte("x"))
	st, err := s.cli.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.URI != "ledger://e2e" || st.JSN != 2 {
		t.Fatalf("state: %+v", st)
	}
}

func TestEndToEndTimeAnchoring(t *testing.T) {
	s := newStack(t)
	s.cli.Append([]byte("x"))
	r, err := s.cli.AnchorTime()
	if err != nil {
		t.Fatalf("AnchorTime: %v", err)
	}
	rec, err := s.cli.GetJournal(r.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != journal.TypeTime {
		t.Fatalf("type = %s", rec.Type)
	}
	if s.tl.Size() != 1 {
		t.Fatalf("t-ledger entries = %d", s.tl.Size())
	}
}

// TestEndToEndAnchoredVerification: the first read of a deep journal is
// cold and teaches the client its sealed epoch's root; a repeat read of
// that epoch is the in-epoch path alone, and a read of the open epoch
// comes back with the state the client holds left out.
func TestEndToEndAnchoredVerification(t *testing.T) {
	s := newStack(t)
	// δ=4: 16-journal epochs; 60 appends seal several.
	for i := 0; i < 60; i++ {
		if _, err := s.cli.Append([]byte(fmt.Sprintf("doc-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	read := func(jsn uint64, wantSent, wantHeld, wantNone uint64) {
		t.Helper()
		sent0, held0, none0 := s.cli.StateSlotStats()
		rec, payload, err := s.cli.VerifyExistence(jsn, true)
		if err != nil || rec.JSN != jsn || payload == nil {
			t.Fatalf("verify %d: %v", jsn, err)
		}
		sent, held, none := s.cli.StateSlotStats()
		if sent-sent0 != wantSent || held-held0 != wantHeld || none-none0 != wantNone {
			t.Fatalf("verify %d: state slots sent %d, held %d, none %d; want %d, %d, %d",
				jsn, sent-sent0, held-held0, none-none0, wantSent, wantHeld, wantNone)
		}
	}
	read(2, 1, 0, 0)  // cold: learns epoch 0's root and the state
	read(3, 0, 0, 1)  // epoch 0 again: no hops, no state
	read(59, 0, 1, 0) // open epoch: the unchanged state is held back
	read(20, 0, 1, 0) // epoch 1, not learned yet: cold path, state held back
	read(21, 0, 0, 1) // now it is
}

func TestEndToEndErrors(t *testing.T) {
	s := newStack(t)
	if _, _, err := s.cli.VerifyExistence(999, false); !errors.Is(err, client.ErrHTTP) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.cli.GetPayload(999); !errors.Is(err, client.ErrHTTP) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.cli.VerifyClue("ghost", 0, 0); !errors.Is(err, client.ErrHTTP) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndToEndInfo(t *testing.T) {
	s := newStack(t)
	s.cli.Append([]byte("x"))
	uri, size, base, _, err := s.cli.Info()
	if err != nil {
		t.Fatal(err)
	}
	if uri != "ledger://e2e" || size != 2 || base != 0 {
		t.Fatalf("info: %s %d %d", uri, size, base)
	}
}

func TestEndToEndTamperingServerDetected(t *testing.T) {
	// A client pinned to the wrong LSP key must reject everything — the
	// same failure mode as a server presenting forged states.
	s := newStack(t)
	s.cli.Append([]byte("x"))
	evil := &client.Client{
		BaseURL: s.srv.URL,
		Key:     sig.GenerateDeterministic("e2e-client"),
		LSP:     sig.GenerateDeterministic("not-the-lsp").Public(),
		URI:     "ledger://e2e",
	}
	if _, err := evil.State(); err == nil {
		t.Fatal("state verified under the wrong LSP key")
	}
	if _, _, err := evil.VerifyExistence(1, false); err == nil {
		t.Fatal("proof verified under the wrong LSP key")
	}
}

// unreadableBlobs fails every Get the way a damaged payload-log frame
// does.
type unreadableBlobs struct{ streamfs.BlobStore }

func (unreadableBlobs) Get(hashutil.Digest) ([]byte, error) {
	return nil, fmt.Errorf("%w: payload.seg.00000000 offset 16: checksum mismatch", streamfs.ErrCorrupt)
}

// TestProofWithUnreadablePayloadIs500: a payload the store holds but
// cannot read back is a server error, not a proof that silently lost its
// payload (only an erased payload, ErrBlobNotFound, may ship digest-only).
func TestProofWithUnreadablePayloadIs500(t *testing.T) {
	lsp := sig.GenerateDeterministic("e2e-lsp")
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://e2e",
		FractalHeight: 4,
		BlockSize:     8,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("e2e-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         unreadableBlobs{streamfs.NewMemoryBlobs()},
		Clock:         logicalclock.New(100_000).Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(l, nil))
	defer srv.Close()
	cli := &client.Client{BaseURL: srv.URL, Key: sig.GenerateDeterministic("e2e-client"), LSP: lsp.Public(), URI: "ledger://e2e"}
	r, err := cli.Append([]byte("doc"), "trail")
	if err != nil {
		t.Fatal(err)
	}
	for query, want := range map[string]int{"?payload=1": http.StatusInternalServerError, "": http.StatusOK} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/proof/%d%s", srv.URL, r.JSN, query))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /v1/proof/%d%s = %d, want %d", r.JSN, query, resp.StatusCode, want)
		}
	}
}

// TestClueProofRejectsUnparsableBounds: a begin/end that is present but
// not a number is a 400, never a silent proof of the whole clue; absent
// bounds keep meaning "everything".
func TestClueProofRejectsUnparsableBounds(t *testing.T) {
	s := newStack(t)
	for i := 0; i < 5; i++ {
		if _, err := s.cli.Append([]byte(fmt.Sprintf("v%d", i)), "lane"); err != nil {
			t.Fatal(err)
		}
	}
	for query, want := range map[string]int{
		"":                            http.StatusOK,
		"?begin=1&end=3":              http.StatusOK,
		"?begin=abc":                  http.StatusBadRequest,
		"?begin=1&end=x":              http.StatusBadRequest,
		"?begin=-1":                   http.StatusBadRequest,
		"?end=1e3":                    http.StatusBadRequest,
		"?begin=99999999999999999999": http.StatusBadRequest,
	} {
		resp, err := http.Get(s.srv.URL + "/v1/clue/lane/proof" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /v1/clue/lane/proof%s = %d, want %d", query, resp.StatusCode, want)
		}
	}
}

// TestFlagAndHeldParamsAreStrict: a flag parameter is absent, 0 or 1,
// and anything else — ?payload=true would once have served a
// digest-only proof — is a 400, as is a named state that is not 64 hex
// characters or a sealed-root count that is not a decimal number.
func TestFlagAndHeldParamsAreStrict(t *testing.T) {
	s := newStack(t)
	if _, err := s.cli.Append([]byte("v0"), "lane"); err != nil {
		t.Fatal(err)
	}
	st, err := s.cli.State()
	if err != nil {
		t.Fatal(err)
	}
	dig := st.Digest().String()
	for path, want := range map[string]int{
		"/v1/proof/1":                                         http.StatusOK,
		"/v1/proof/1?payload=0":                               http.StatusOK,
		"/v1/proof/1?payload=1":                               http.StatusOK,
		"/v1/proof/1?payload=true":                            http.StatusBadRequest,
		"/v1/proof/1?payload=":                                http.StatusBadRequest,
		"/v1/proof/1?payload=2":                               http.StatusBadRequest,
		"/v1/proof/1?state=" + dig + "&sealed=3":              http.StatusOK,
		"/v1/proof/1?state=" + strings.ToUpper(dig):           http.StatusOK,
		"/v1/proof/1?state=" + dig[:62]:                       http.StatusBadRequest,
		"/v1/proof/1?state=" + dig + "00":                     http.StatusBadRequest,
		"/v1/proof/1?state=" + dig[:63] + "g":                 http.StatusBadRequest,
		"/v1/proof/1?state=":                                  http.StatusBadRequest,
		"/v1/proof/1?sealed=-1":                               http.StatusBadRequest,
		"/v1/proof/1?sealed=0x2":                              http.StatusBadRequest,
		"/v1/proof/1?sealed=":                                 http.StatusBadRequest,
		"/v1/clue/lane/proof?state=" + dig:                    http.StatusOK,
		"/v1/clue/lane/proof?state=zz":                        http.StatusBadRequest,
		"/v1/bundle/1?payload=1":                              http.StatusOK,
		"/v1/bundle/1?payload=yes":                            http.StatusBadRequest,
		"/v1/absence?clue=ghost&prefix=1":                     http.StatusOK,
		"/v1/absence?clue=ghost&prefix=true":                  http.StatusBadRequest,
		"/v1/absence?clue=ghost&prefix=0":                     http.StatusOK,
		"/v1/query?kind=prefix&prefix=lane&payload=on":        http.StatusBadRequest,
		"/v1/query?kind=prefix&prefix=lane&state=" + dig[:10]: http.StatusBadRequest,
	} {
		resp, err := http.Get(s.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	for body, want := range map[string]int{
		`{"jsns":[1],"state":"` + dig + `"}`:     http.StatusOK,
		`{"jsns":[1],"state":"` + dig[:8] + `"}`: http.StatusBadRequest,
	} {
		resp, err := http.Post(s.srv.URL+"/v1/proofs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST /v1/proofs %s = %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestClueProofBadBoundsAreClientErrors: numeric bounds that describe no
// range are a 400, and a range past the clue's versions is a 404 — not a
// 500 the client would take for a server fault. The held list is capped
// and must parse.
func TestClueProofBadBoundsAreClientErrors(t *testing.T) {
	s := newStack(t)
	for i := 0; i < 5; i++ {
		if _, err := s.cli.Append([]byte(fmt.Sprintf("v%d", i)), "lane"); err != nil {
			t.Fatal(err)
		}
	}
	tooMany := strings.TrimSuffix(strings.Repeat("1,", ledger.MaxProofBatch+1), ",")
	for query, want := range map[string]int{
		"?begin=4":               http.StatusOK,
		"?begin=2&end=2":         http.StatusBadRequest,
		"?begin=3&end=1":         http.StatusBadRequest,
		"?begin=0&end=6":         http.StatusNotFound,
		"?begin=5":               http.StatusNotFound,
		"?begin=9&end=12":        http.StatusNotFound,
		"?held=1,2,3":            http.StatusOK,
		"?held=":                 http.StatusOK,
		"?held=1,x":              http.StatusBadRequest,
		"?held=1,,2":             http.StatusBadRequest,
		"?held=" + tooMany:       http.StatusBadRequest,
		"?begin=1&end=3&held=99": http.StatusOK,
	} {
		resp, err := http.Get(s.srv.URL + "/v1/clue/lane/proof" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /v1/clue/lane/proof%.40s = %d, want %d", query, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(s.srv.URL + "/v1/query?kind=prefix&prefix=lane&held=" + tooMany)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query naming %d held jsns = %d, want 400", ledger.MaxProofBatch+1, resp.StatusCode)
	}
}

// TestBufferedReplyCarriesContentLength: under a request timeout every
// reply is buffered whole before it is sent, so it must go out with its
// length, not chunked — including proof replies past net/http's 2 KiB
// sniff buffer.
func TestBufferedReplyCarriesContentLength(t *testing.T) {
	lsp := sig.GenerateDeterministic("e2e-lsp")
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://e2e",
		FractalHeight: 4,
		BlockSize:     8,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("e2e-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         logicalclock.New(100_000).Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewWithOptions(l, nil, server.Options{RequestTimeout: time.Minute}))
	defer srv.Close()
	cli := &client.Client{BaseURL: srv.URL, Key: sig.GenerateDeterministic("e2e-client"), LSP: lsp.Public(), URI: "ledger://e2e"}
	for i := 0; i < 40; i++ {
		if _, err := cli.Append(bytes.Repeat([]byte{byte(i)}, 1024), "lane"); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/v1/proof/3?payload=1", "/v1/clue/lane/proof", "/v1/info"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, read err %v", path, resp.StatusCode, err)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("GET %s: Transfer-Encoding %v on a fully buffered reply", path, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("GET %s: Content-Length %d for a %d-byte body", path, resp.ContentLength, len(body))
		}
		if path != "/v1/info" && len(body) <= 2048 {
			t.Errorf("GET %s: %d-byte body does not exercise the chunking threshold", path, len(body))
		}
	}
}
