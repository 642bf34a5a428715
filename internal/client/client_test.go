package client

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// Hostile-server tests: the SDK must fail cleanly (typed error, no
// panic, nothing "verified") when the service misbehaves at the
// transport layer. Honest-server behavior is covered by the end-to-end
// tests in package server.

func hostileClient(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return &Client{
		BaseURL: srv.URL,
		Key:     sig.GenerateDeterministic("hostile-test"),
		LSP:     sig.GenerateDeterministic("hostile-lsp").Public(),
		URI:     "ledger://hostile",
	}
}

func TestNonJSONResponse(t *testing.T) {
	c := hostileClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>not json</html>"))
	})
	if _, err := c.State(); !errors.Is(err, ErrHTTP) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Append([]byte("x")); !errors.Is(err, ErrHTTP) {
		t.Fatalf("err = %v", err)
	}
}

func TestGarbageBase64(t *testing.T) {
	c := hostileClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"!!!not-base64!!!","proof":"!!!","receipt":"!!!"}`))
	})
	if _, err := c.State(); !errors.Is(err, ErrHTTP) {
		t.Fatalf("State err = %v", err)
	}
	if _, _, err := c.VerifyExistence(1, false); !errors.Is(err, ErrHTTP) {
		t.Fatalf("VerifyExistence err = %v", err)
	}
	if _, err := c.AnchorTime(); !errors.Is(err, ErrHTTP) {
		t.Fatalf("AnchorTime err = %v", err)
	}
}

func TestValidBase64GarbageBytes(t *testing.T) {
	// Well-formed base64 of junk: decoders must reject, nothing panics.
	c := hostileClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"anVuayBqdW5rIGp1bms=","proof":"anVuaw==","receipt":"anVuaw=="}`))
	})
	if _, err := c.State(); err == nil {
		t.Fatal("junk state accepted")
	}
	if _, _, err := c.VerifyExistence(1, false); err == nil {
		t.Fatal("junk proof accepted")
	}
	if _, err := c.VerifyClue("k", 0, 0); err == nil {
		t.Fatal("junk clue proof accepted")
	}
	if _, err := c.FetchAnchor(); err == nil {
		t.Fatal("junk anchor accepted")
	}
	if _, _, err := c.VerifyState([]byte("k")); err == nil {
		t.Fatal("junk state proof accepted")
	}
}

// A batch receipt announcing more tx-hashes than it has bytes for is
// tamper evidence, not an allocation request (chaostest found this one:
// a flipped byte in Count asked for 2^46 digests).
func TestBatchReceiptHostileCount(t *testing.T) {
	w := wire.NewWriter(16)
	w.Uvarint(1)       // FirstJSN
	w.Uvarint(1 << 46) // Count
	c := hostileClient(t, func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"receipt":%q}`, base64.StdEncoding.EncodeToString(w.Bytes()))
	})
	_, _, err := c.AppendBatch([][]byte{[]byte("x")}, nil)
	var te *TamperError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TamperError", err)
	}
}

func TestServerErrorStatusSurfaces(t *testing.T) {
	c := hostileClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		w.Write([]byte(`{"error":"nope"}`))
	})
	_, err := c.Append([]byte("x"))
	if !errors.Is(err, ErrHTTP) {
		t.Fatalf("err = %v", err)
	}
	if got := err.Error(); !contains(got, "nope") {
		t.Fatalf("error lost server message: %q", got)
	}
}

func TestUnreachableServer(t *testing.T) {
	c := &Client{
		BaseURL: "http://127.0.0.1:1", // nothing listens here
		Key:     sig.GenerateDeterministic("x"),
		LSP:     sig.GenerateDeterministic("y").Public(),
		URI:     "ledger://x",
	}
	if _, _, _, _, err := c.Info(); !errors.Is(err, ErrHTTP) {
		t.Fatalf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
