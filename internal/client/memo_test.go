package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"

	"ledgerdb/internal/index"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/netchaos"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// These tests pin the client's verified-signature memo from the
// outside: what it saves (ECDSA checks counted by MemoStats), on which
// traffic, and that a tampered reply is refused exactly as without it.

// memoClient is liveClient plus the sidecar index, so prefix queries
// run too.
func memoClient(t testing.TB) *Client {
	t.Helper()
	clock := logicalclock.New(700_000)
	lsp := sig.GenerateDeterministic("cli-memo-lsp")
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://cli-memo",
		FractalHeight: 6,
		BlockSize:     64,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("cli-memo-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         clock.Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := server.New(l, nil)
	if srv.Index, err = index.Open(l, streamfs.NewMemory()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &Client{
		BaseURL: ts.URL,
		Key:     sig.GenerateDeterministic("cli-memo-client"),
		LSP:     lsp.Public(),
		URI:     "ledger://cli-memo",
	}
}

// appendVersions commits n journals under one clue in one batch.
func appendVersions(t testing.TB, c *Client, clue string, n int) {
	t.Helper()
	payloads, clues := make([][]byte, n), make([][]string, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("%s/v%d", clue, i))
		clues[i] = []string{clue}
	}
	if _, _, err := c.AppendBatch(payloads, clues); err != nil {
		t.Fatal(err)
	}
}

func misses(c *Client) uint64 {
	_, m := c.MemoStats()
	return m
}

// tamperTransport flips one byte inside a wire blob of every reply
// (netchaos.MutateEnvelope: valid JSON, valid base64, corrupt proof).
type tamperTransport struct{ pick uint64 }

func (tt *tamperTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body, _ = netchaos.MutateEnvelope(body, tt.pick, 0)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestMemoPerfGuard is the count-based guard scripts/check.sh perf runs:
// the second VerifyClue of an unchanged 64-version range performs zero
// ECDSA verifications, and a reply tampered at any of 64 offsets is
// refused by the warm client exactly as by a client that has verified
// nothing yet.
func TestMemoPerfGuard(t *testing.T) {
	const versions = 64
	c := memoClient(t)
	appendVersions(t, c, "hot", versions)
	if h, m := c.MemoStats(); h != 0 || m != 0 {
		t.Fatalf("appends touched the memo: hits %d misses %d", h, m)
	}
	if _, err := c.VerifyClue("hot", 0, versions); err != nil {
		t.Fatal(err)
	}
	first := misses(c)
	if first != versions+1 { // 64 π_c and the signed state
		t.Fatalf("first clue proof ran %d ECDSA checks, want %d", first, versions+1)
	}
	recs, err := c.VerifyClue("hot", 0, versions)
	if err != nil || len(recs) != versions {
		t.Fatalf("second clue proof: %d records, %v", len(recs), err)
	}
	if again := misses(c) - first; again != 0 {
		t.Fatalf("second VerifyClue of an unchanged range ran %d ECDSA checks, want 0", again)
	}

	refused := 0
	for k := uint64(0); k < 64; k++ {
		tt := &tamperTransport{pick: k * 409}
		verdict := func(cl *Client) bool {
			cl.HTTP = &http.Client{Transport: tt}
			_, err := cl.VerifyClue("hot", 0, versions)
			var te *TamperError
			if err != nil && !errors.As(err, &te) {
				t.Fatalf("pick %d: failed, but not as tamper evidence: %v", tt.pick, err)
			}
			return err != nil
		}
		fresh := &Client{BaseURL: c.BaseURL, LSP: c.LSP, URI: c.URI}
		warm, cold := verdict(c.Clone()), verdict(fresh)
		if warm != cold {
			t.Fatalf("pick %d: warm client refused=%t, fresh client refused=%t", tt.pick, warm, cold)
		}
		if warm {
			refused++
		}
	}
	if refused < 60 { // a handful of offsets are unauthenticated metadata (occult bits)
		t.Fatalf("only %d of 64 tampered clue proofs were refused", refused)
	}
}

// TestClueNamesNeedingEscape: ValidateShape accepts any non-empty clue,
// so every one of these can be appended; each must then be listable and
// provable over HTTP, byte for byte the name that was appended.
func TestClueNamesNeedingEscape(t *testing.T) {
	c := memoClient(t)
	names := []string{"a/b", "a?b", "50% off", "a#b", " padded ", "q=1&r=2", "a+b", "ü/€", "a%2Fb", "...", "./x", "a/.."}
	for _, name := range names {
		appendVersions(t, c, name, 2)
	}
	// A near-miss neighbour for the name whose spaces a handler used to trim.
	appendVersions(t, c, "padded", 1)
	for _, name := range names {
		jsns, err := c.ClueJSNs(name)
		if err != nil || len(jsns) != 2 {
			t.Errorf("ClueJSNs(%q) = %v, %v; want 2 jsns", name, jsns, err)
		}
		recs, err := c.VerifyClue(name, 0, 0)
		if err != nil || len(recs) != 2 {
			t.Errorf("VerifyClue(%q) = %d records, %v; want 2", name, len(recs), err)
			continue
		}
		for _, rec := range recs {
			if len(rec.Clues) != 1 || rec.Clues[0] != name {
				t.Errorf("VerifyClue(%q) proved a record of clue %q", name, rec.Clues)
			}
		}
	}
	// The two names no escaping can carry in a path segment (HTTP removes
	// dot segments) are refused at admission rather than stranded.
	for _, name := range []string{".", ".."} {
		var ae *APIError
		if _, err := c.Append([]byte("x"), name); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("Append with clue %q: %v, want 400", name, err)
		}
	}
}

func envInt(name string, def int) int {
	if v, err := strconv.Atoi(os.Getenv(name)); err == nil && v > 0 {
		return v
	}
	return def
}

// TestMemoHitShare replays the benchmark's two extremes against an
// in-process server and reports the share of read-path ECDSA checks the
// memo answered: ledgerbench's proof_read mix (Zipf(1.1) over 1000
// clues; 80% existence uniform over the ledger, 10% clue proof over the
// newest <= 64 versions, 10% prefix query, Limit 16) and an append-only
// mix. MEMOMIX_JOURNALS / MEMOMIX_OPS scale it to the benchmark's own
// size (40000 journals) for EXPERIMENTS.md.
func TestMemoHitShare(t *testing.T) {
	const (
		clueSpace    = 1000
		clueVersions = 64
		queryLimit   = 16
		batch        = 500
	)
	journals, ops := envInt("MEMOMIX_JOURNALS", 6000), envInt("MEMOMIX_OPS", 1000)
	c := memoClient(t)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, clueSpace-1)
	clueName := func(i int) string { return fmt.Sprintf("c%04d", i) }

	// Set-up, as ledgerbench preloads: one version per clue first, the
	// rest by popularity. The server assigns jsns 1..journals in order.
	var count [clueSpace]uint64
	for done := 0; done < journals; done += batch {
		n := min(batch, journals-done)
		payloads, clues := make([][]byte, n), make([][]string, n)
		for j := range payloads {
			k := done + j
			if k >= clueSpace {
				k = int(zipf.Uint64())
			}
			count[k]++
			payloads[j] = []byte(fmt.Sprintf("payload-%d", done+j))
			clues[j] = []string{clueName(k)}
		}
		if _, _, err := c.AppendBatch(payloads, clues); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Append([]byte("x"), clueName(int(zipf.Uint64()))); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := c.MemoStats(); h != 0 || m != 0 {
		t.Fatalf("append-only mix (%d journals): hits %d misses %d, want 0/0 — receipts must not touch the memo", journals+100, h, m)
	}
	t.Logf("append-only mix: %d journals, memo lookups 0, hit share 0", journals+100)

	reader := c.Clone() // shares the memo, as the harness's per-worker clients do
	pattern := []byte("PPPPCPPPPQ")
	for i := 0; i < ops; i++ {
		switch pattern[i%len(pattern)] {
		case 'P':
			if _, _, err := reader.VerifyExistence(1+rng.Uint64()%uint64(journals), false); err != nil {
				t.Fatal(err)
			}
		case 'C':
			k := int(zipf.Uint64())
			n := count[k]
			if _, err := reader.VerifyClue(clueName(k), n-min(n, clueVersions), n); err != nil {
				t.Fatal(err)
			}
		case 'Q':
			q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: clueName(int(zipf.Uint64())), Limit: queryLimit}
			if _, err := reader.QueryRecords(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	h, m := c.MemoStats()
	share := float64(h) / float64(h+m)
	t.Logf("read mix: %d ops on %d journals: %d signature checks, %d memo hits, %d ECDSA; hit share %.3f",
		ops, journals, h+m, h, m, share)
	if share <= 0.5 {
		t.Fatalf("read-mix hit share %.3f, want well above one half", share)
	}
}

// TestMemoSharedByClonesRace hammers one memo from many clones doing
// verified reads of overlapping records while another appends; run
// under -race. Every reply must verify, and the clones must have
// shared: the hot range is ECDSA-verified about once, not once per clone.
func TestMemoSharedByClonesRace(t *testing.T) {
	const clones, rounds, versions = 8, 6, 32
	c := memoClient(t)
	appendVersions(t, c, "hot", versions)
	var wg sync.WaitGroup
	for g := 0; g < clones; g++ {
		wg.Add(1)
		cl := c.Clone()
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := cl.VerifyClue("hot", 0, versions); err != nil {
					t.Errorf("clone %d: %v", g, err)
					return
				}
				if _, _, err := cl.VerifyExistence(uint64(1+(g+r)%versions), false); err != nil {
					t.Errorf("clone %d: %v", g, err)
					return
				}
				if g == 0 {
					if _, err := cl.Append([]byte("more"), "other"); err != nil {
						t.Errorf("clone %d: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	h, m := c.MemoStats()
	// Unshared, each clone would ECDSA-verify the 32 records itself.
	if m >= clones*versions {
		t.Fatalf("%d ECDSA checks for %d clones of a %d-record range: clones are not sharing the memo", m, clones, versions)
	}
	t.Logf("%d clones: %d memo hits, %d ECDSA checks", clones, h, m)
}
