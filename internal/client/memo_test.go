package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/netchaos"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// These tests pin the client's verified-signature memo from the
// outside: what it saves (ECDSA checks counted by MemoStats), on which
// traffic, and that a tampered reply is refused exactly as without it.

// memoClient is liveClient plus the sidecar index, so prefix queries
// run too.
func memoClient(t testing.TB) *Client {
	t.Helper()
	return memoClientVia(t, nil)
}

// memoClientVia is memoClient reaching the service through wrap (a
// lying middlebox), when wrap is not nil.
func memoClientVia(t testing.TB, wrap func(http.Handler) http.Handler) *Client {
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
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &Client{
		BaseURL: ts.URL,
		Key:     sig.GenerateDeterministic("cli-memo-client"),
		LSP:     lsp.Public(),
		URI:     "ledger://cli-memo",
	}
}

// writerFor returns another member of c's ledger: its own key pair and
// its own client, sharing no memo with c. A client files the π_c it
// signs, so records it wrote itself are never cold for it; tests that
// count cold reads have this writer append them.
func writerFor(c *Client) *Client {
	return &Client{
		BaseURL: c.BaseURL,
		Key:     sig.GenerateDeterministic("cli-memo-writer"),
		LSP:     c.LSP,
		URI:     c.URI,
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
// (netchaos.MutateEnvelope: valid JSON, valid base64, corrupt proof),
// keeping the last reply as the server sent it.
type tamperTransport struct {
	pick uint64
	sent []byte
}

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
	tt.sent = body
	body, _ = netchaos.MutateEnvelope(body, tt.pick, 0)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestMemoPerfGuard is the count-based guard scripts/check.sh perf runs:
// the first VerifyClue of a 64-version range another member wrote runs
// one ECDSA check per signature, the second of the unchanged range
// performs zero, and a reply tampered at any of 64 offsets is refused
// by the warm client exactly as by a client whose memo has verified
// nothing yet. The two share the held-record store, so both name the
// same records and are sent the same reply.
func TestMemoPerfGuard(t *testing.T) {
	const versions = 64
	c := memoClient(t)
	w := writerFor(c)
	appendVersions(t, w, "hot", versions)
	if h, m := w.MemoStats(); h != 0 || m != 0 {
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
	if h, m := c.HeldStats(); h != versions || m != versions {
		t.Fatalf("held records: %d hits, %d misses; want the second proof to leave out all %d", h, m, versions)
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
		fresh := &Client{BaseURL: c.BaseURL, LSP: c.LSP, URI: c.URI, held: c.held}
		warm, cold := verdict(c.Clone()), verdict(fresh)
		if warm != cold {
			t.Fatalf("pick %d: warm client refused=%t, fresh client refused=%t", tt.pick, warm, cold)
		}
		if warm {
			refused++
		} else if at := flippedOffset(t, tt); !clueOccultOffsets(t, tt.sent)[at] {
			t.Fatalf("pick %d: a reply flipped at byte %d, not an occult byte, was accepted", tt.pick, at)
		}
	}
	t.Logf("%d of 64 tampered warm clue proofs refused; the rest moved only an occult byte", refused)
}

// flippedOffset is where MutateEnvelope hit the proof blob of tt's last
// reply.
func flippedOffset(t *testing.T, tt *tamperTransport) int {
	t.Helper()
	return int(tt.pick % uint64(len(proofBlob(t, tt.sent))))
}

func proofBlob(t *testing.T, body []byte) []byte {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	blob, err := base64.StdEncoding.DecodeString(env.Proof)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// clueOccultOffsets locates the bytes of an encoded clue reply that no
// digest covers: the occult byte ending each record and each
// placeholder.
func clueOccultOffsets(t *testing.T, body []byte) map[int]bool {
	t.Helper()
	b, err := ledger.DecodeClueProofBundle(proofBlob(t, body))
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(256)
	w.String(b.Clue)
	w.Uvarint(uint64(len(b.Records)))
	at := make(map[int]bool, len(b.Records))
	for i, raw := range b.Records {
		if b.Held != nil && b.Held[i] != nil {
			w.WriteBytes(nil)
			w.Uvarint(b.Held[i].JSN)
			w.Uint8(b.Held[i].Occult)
		} else {
			w.WriteBytes(raw)
		}
		at[w.Len()-1] = true
	}
	return at
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

	// proof_read reads after a restart, through a client that signed
	// none of the preload: a fresh member, not a clone of the writer.
	reader := &Client{BaseURL: c.BaseURL, LSP: c.LSP, URI: c.URI}
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
	h, m := reader.MemoStats()
	share := float64(h) / float64(h+m)
	t.Logf("read mix: %d ops on %d journals: %d signature checks, %d memo hits, %d ECDSA; hit share %.3f",
		ops, journals, h+m, h, m, share)
	if share <= 0.5 {
		t.Fatalf("read-mix hit share %.3f, want well above one half", share)
	}
}

// TestColdClueFanOutRace: eight clones of one client verify
// overlapping, never-seen clue ranges another member wrote at once, so
// each reply's memo misses fan out over the cores while the other
// clones read and fill the same memo; run under -race
// (scripts/check.sh race). Every reply verifies, every record of the
// union is ECDSA-checked at least once, and no clone checks more than
// its own range.
func TestColdClueFanOutRace(t *testing.T) {
	const clones, versions, width = 8, 64, 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	c := memoClient(t)
	appendVersions(t, writerFor(c), "hot", versions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < clones; g++ {
		wg.Add(1)
		cl := c.Clone()
		go func(begin uint64) {
			defer wg.Done()
			<-start
			recs, err := cl.VerifyClue("hot", begin, begin+width)
			if err != nil || len(recs) != width {
				t.Errorf("clone reading [%d,%d): %d records, %v", begin, begin+width, len(recs), err)
			}
		}(uint64(g * 4))
	}
	close(start)
	wg.Wait()
	union := uint64((clones-1)*4 + width)
	if m := misses(c); m < union+1 || m > clones*(width+1) {
		t.Fatalf("%d ECDSA checks for %d clones over %d distinct records: want %d..%d", m, clones, union, union+1, clones*(width+1))
	}
}

// TestMemoSharedByClonesRace hammers one memo from many clones doing
// verified reads of overlapping records another member wrote while one
// clone appends; run under -race. Every reply must verify, and the
// clones must have shared: the hot range is ECDSA-verified about once,
// not once per clone.
func TestMemoSharedByClonesRace(t *testing.T) {
	const clones, rounds, versions = 8, 6, 32
	c := memoClient(t)
	appendVersions(t, writerFor(c), "hot", versions)
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

// stateTransport passes every reply through unchanged and records the
// signed state each existence, clue and query reply carries, by its
// encoding: how many distinct LSP signatures a run of reads was shown.
// A reply that leaves its state out (held, or none at all) shows none.
type stateTransport struct {
	t      testing.TB
	mu     sync.Mutex
	states map[string]bool
}

func (st *stateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		st.t.Errorf("%s: %v", req.URL.Path, err)
		return resp, nil
	}
	blob := func(field string) []byte {
		b, err := base64.StdEncoding.DecodeString(field)
		if err != nil {
			st.t.Errorf("%s: %v", req.URL.Path, err)
		}
		return b
	}
	var state *ledger.SignedState
	var slot ledger.StateSlot
	switch p := req.URL.Path; {
	case strings.HasPrefix(p, "/v1/proof/"):
		if ep, err := ledger.DecodeExistenceProof(blob(env.Proof)); err == nil {
			state, slot = ep.State, ep.Slot
		}
	case strings.HasPrefix(p, "/v1/clue/"):
		if cb, err := ledger.DecodeClueProofBundle(blob(env.Proof)); err == nil {
			state, slot = cb.State, cb.Slot
		}
	case p == "/v1/query":
		if res, err := ledger.DecodeQueryResult(blob(env.Result)); err == nil && res.Batch != nil {
			state, slot = res.Batch.State, res.Batch.Slot
		}
	default:
		return resp, nil
	}
	if slot != ledger.StateSent {
		return resp, nil
	}
	if state == nil {
		st.t.Errorf("%s: no signed state in the reply", req.URL.Path)
		return resp, nil
	}
	w := wire.NewWriter(256)
	state.Encode(w)
	st.mu.Lock()
	st.states[string(w.Bytes())] = true
	st.mu.Unlock()
	return resp, nil
}

// TestOwnWritesVerifyWithoutECDSA is the guard scripts/check.sh perf
// runs for the π_c a client files when it signs: after 32 single
// appends and one 32-request batch under one clue, an existence proof
// of each version, one clue proof over all 64 and one prefix query run
// ECDSA only for the distinct signed states the replies carry — every
// π_c is a triple the client made itself. A request signed by another
// key and relayed with SubmitRequestReplay is not filed.
func TestOwnWritesVerifyWithoutECDSA(t *testing.T) {
	const singles, batched = 32, 32
	const versions = singles + batched
	st := &stateTransport{t: t, states: map[string]bool{}}
	c := memoClient(t)
	c.HTTP = &http.Client{Transport: st}
	var jsns []uint64
	for i := 0; i < singles; i++ {
		r, err := c.Append([]byte(fmt.Sprintf("own/v%d", i)), "own")
		if err != nil {
			t.Fatal(err)
		}
		jsns = append(jsns, r.JSN)
	}
	payloads, clues := make([][]byte, batched), make([][]string, batched)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("own/v%d", singles+i))
		clues[i] = []string{"own"}
	}
	br, _, err := c.AppendBatch(payloads, clues)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < br.Count; i++ {
		jsns = append(jsns, br.FirstJSN+i)
	}
	if h, m := c.MemoStats(); h != 0 || m != 0 {
		t.Fatalf("appends touched the memo: hits %d misses %d, want 0/0", h, m)
	}

	for _, jsn := range jsns {
		if _, _, err := c.VerifyExistence(jsn, false); err != nil {
			t.Fatal(err)
		}
	}
	if recs, err := c.VerifyClue("own", 0, versions); err != nil || len(recs) != versions {
		t.Fatalf("clue proof: %d records, %v", len(recs), err)
	}
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "own", Limit: versions}
	if recs, err := c.QueryRecords(q); err != nil || len(recs) != versions {
		t.Fatalf("prefix query: %d records, %v", len(recs), err)
	}
	hits, misses := c.MemoStats()
	if misses != uint64(len(st.states)) {
		t.Fatalf("reads of %d records this client signed ran %d ECDSA checks, want %d: one per distinct signed state",
			versions, misses, len(st.states))
	}
	// Each existence proof checks a state and one π_c — a stateless one
	// (a journal of the sealed epoch the first read taught) only the π_c;
	// the clue proof and the query a state and all 64.
	_, _, none := c.StateSlotStats()
	if none == 0 {
		t.Fatal("no existence proof took the sealed-epoch path")
	}
	if checks, want := hits+misses, 2*versions+2*(versions+1)-none; checks != want {
		t.Fatalf("%d signature checks, want %d", checks, want)
	}
	t.Logf("%d reads, %d signature checks: %d ECDSA, all for signed states", versions+2, hits+misses, misses)

	relayed := &journal.Request{
		LedgerURI: c.URI,
		Type:      journal.TypeNormal,
		Clues:     []string{"own"},
		Payload:   []byte("relayed"),
		Nonce:     1,
	}
	h, err := relayed.SignHash(sig.GenerateDeterministic("cli-memo-other"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubmitRequestReplay(context.Background(), relayed); err != nil {
		t.Fatal(err)
	}
	if h2, m2 := c.MemoStats(); h2 != hits || m2 != misses {
		t.Fatalf("SubmitRequestReplay moved the memo stats: %d/%d -> %d/%d", hits, misses, h2, m2)
	}
	// The memo has no size to read; probe for the one entry SubmitRequestReplay
	// could have filed. Checking the relayed π_c must run ECDSA.
	if err := c.memo.Verify(relayed.ClientPK, h, relayed.ClientSig); err != nil {
		t.Fatal(err)
	}
	if _, m3 := c.MemoStats(); m3 != misses+1 {
		t.Fatal("SubmitRequestReplay filed the π_c of a request another key signed")
	}
}

// TestOwnWritesTamperVerdicts: an existence, clue or query reply
// tampered at any of 64 offsets is refused by the client that signed
// every record it proves exactly when a fresh client refuses it. Both
// start each read with no held records, so they send the same request.
func TestOwnWritesTamperVerdicts(t *testing.T) {
	const versions = 64
	c := memoClient(t)
	appendVersions(t, c, "own", versions) // jsns 1..64
	reads := []struct {
		kind string
		read func(cl *Client, k uint64) error
	}{
		{"existence", func(cl *Client, k uint64) error {
			_, _, err := cl.VerifyExistence(1+k%versions, false)
			return err
		}},
		{"clue", func(cl *Client, k uint64) error {
			_, err := cl.VerifyClue("own", 0, versions)
			return err
		}},
		{"query", func(cl *Client, k uint64) error {
			_, err := cl.QueryRecords(ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "own", Limit: versions})
			return err
		}},
	}
	for _, r := range reads {
		refused := 0
		for k := uint64(0); k < 64; k++ {
			tt := &tamperTransport{pick: k * 409}
			verdict := func(cl *Client) bool {
				err := r.read(cl, k)
				var te *TamperError
				if err != nil && !errors.As(err, &te) {
					t.Fatalf("%s pick %d: failed, but not as tamper evidence: %v", r.kind, tt.pick, err)
				}
				return err != nil
			}
			signer := &Client{BaseURL: c.BaseURL, HTTP: &http.Client{Transport: tt}, LSP: c.LSP, URI: c.URI, memo: c.memo}
			fresh := &Client{BaseURL: c.BaseURL, HTTP: &http.Client{Transport: tt}, LSP: c.LSP, URI: c.URI}
			warm, cold := verdict(signer), verdict(fresh)
			if warm != cold {
				t.Fatalf("%s pick %d: signing client refused=%t, fresh client refused=%t", r.kind, tt.pick, warm, cold)
			}
			if warm {
				refused++
			}
		}
		if refused == 0 {
			t.Fatalf("%s: no tampered reply was refused", r.kind)
		}
		t.Logf("%s: %d of 64 tampered replies refused by both clients", r.kind, refused)
	}
}
