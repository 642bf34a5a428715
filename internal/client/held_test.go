package client

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
)

// rewrite is a lying middlebox: it edits each request before the honest
// service sees it.
func rewrite(edit func(r *http.Request)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			edit(r)
			next.ServeHTTP(w, r)
		})
	}
}

// setQuery replaces one request parameter.
func setQuery(r *http.Request, key, value string) {
	q := r.URL.Query()
	q.Set(key, value)
	r.URL.RawQuery = q.Encode()
}

// wantTamper fails unless err is a TamperError whose check ends in want.
func wantTamper(t *testing.T, what string, err error, want string) {
	t.Helper()
	var te *TamperError
	if !errors.As(err, &te) {
		t.Fatalf("%s: err = %v, want a TamperError", what, err)
	}
	if !strings.HasSuffix(te.Evidence.Check, want) {
		t.Fatalf("%s: tamper check %q, want one ending in %q", what, te.Evidence.Check, want)
	}
}

// TestVerifiedRepliesAnswerTheQuestion: a valid proof of another journal,
// another clue or another range of the clue is not an answer to the
// question asked. A middlebox serves jsn 6 for /v1/proof/5 (with the
// state in full and held back), clue b for /v1/clue/a/proof, fewer
// versions than asked, and
// — on a read naming held records — another range whose placeholders
// the client holds.
func TestVerifiedRepliesAnswerTheQuestion(t *testing.T) {
	c := memoClientVia(t, rewrite(func(r *http.Request) {
		q := r.URL.Query()
		switch r.URL.Path {
		case "/v1/proof/5":
			r.URL.Path = "/v1/proof/6"
		case "/v1/clue/a/proof":
			if q.Get("end") == "2" {
				setQuery(r, "end", "1")
			} else {
				r.URL.Path = "/v1/clue/b/proof"
			}
		case "/v1/clue/b/proof":
			switch {
			case q.Get("begin") == "1" && q.Get("end") == "0":
				setQuery(r, "end", "2")
			case q.Has("held"):
				setQuery(r, "begin", "1")
			}
		}
	}))
	// Another member writes: records c wrote itself would be held from
	// the start.
	w := writerFor(c)
	appendVersions(t, w, "a", 3) // jsns 1-3
	appendVersions(t, w, "b", 3) // jsns 4-6

	_, _, err := c.VerifyExistence(5, false)
	wantTamper(t, "proof of jsn 6 for jsn 5", err, "jsn binding")
	_, err = c.VerifyClue("a", 0, 0)
	wantTamper(t, "clue b for clue a", err, "binding")
	_, err = c.VerifyClue("a", 0, 2)
	wantTamper(t, "versions [0,1) for [0,2)", err, "binding")
	_, err = c.VerifyClue("b", 1, 0)
	wantTamper(t, "versions [1,2) for [1,newest)", err, "binding")

	// The middlebox passes honest questions through untouched.
	if rec, _, err := c.VerifyExistence(4, false); err != nil || rec.JSN != 4 {
		t.Fatalf("honest proof: %v", err)
	}
	_, held0, _ := c.StateSlotStats()
	_, _, err = c.VerifyExistence(5, false)
	wantTamper(t, "proof of jsn 6 for jsn 5, state held back", err, "jsn binding")
	if _, held, _ := c.StateSlotStats(); held != held0+1 {
		t.Fatal("the repeat proof did not hold the state back")
	}
	if recs, err := c.VerifyClue("b", 0, 0); err != nil || len(recs) != 3 {
		t.Fatalf("honest clue proof: %d records, %v", len(recs), err)
	}
	// Now b's records are held: the repeat names them, the middlebox asks
	// for versions [1,3) instead, and the reply's placeholders are all for
	// records the client holds — the range binding still refuses it.
	_, err = c.VerifyClue("b", 0, 0)
	wantTamper(t, "held records of another range", err, "binding")
}

// TestHeldRecordsRepeatReads: a repeated clue or query read names what
// the client holds and gets placeholders back for it; the verified
// answer is the one a cold read gives, clones share the store, and a
// client that holds nothing reads cold.
func TestHeldRecordsRepeatReads(t *testing.T) {
	c := memoClient(t)
	// Another member writes: records c wrote itself would be held from
	// the start.
	w := writerFor(c)
	appendVersions(t, w, "hot", 40)
	appendVersions(t, w, "cold", 5)
	stats := func(wantHits, wantMisses uint64) {
		t.Helper()
		if h, m := c.HeldStats(); h != wantHits || m != wantMisses {
			t.Fatalf("held stats %d hits / %d misses, want %d / %d", h, m, wantHits, wantMisses)
		}
	}
	first, err := c.VerifyClue("hot", 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	stats(0, 32)
	again, err := c.Clone().VerifyClue("hot", 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	stats(32, 32)
	for i := range first {
		if first[i].JSN != again[i].JSN || first[i].TxHash() != again[i].TxHash() {
			t.Fatalf("version %d: warm read proved another record", i)
		}
	}
	// A wider range names the 32 held; only the 8 new ones travel.
	if recs, err := c.VerifyClue("hot", 0, 0); err != nil || len(recs) != 40 {
		t.Fatalf("whole clue: %d records, %v", len(recs), err)
	}
	stats(64, 40)

	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "hot", Limit: 16, WithPayload: true}
	cold, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	stats(64, 40+16) // a question names only its own last answer
	warm, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	stats(64+16, 40+16)
	// The result comes back whole — payloads included — as the cold one.
	if string(warm.EncodeBytes()) != string(cold.EncodeBytes()) {
		t.Fatal("warm query result differs from the cold one")
	}

	fresh := &Client{BaseURL: c.BaseURL, LSP: c.LSP, URI: c.URI}
	if recs, err := fresh.QueryRecords(q); err != nil || len(recs) != 16 {
		t.Fatalf("fresh client: %d records, %v", len(recs), err)
	}
	if h, m := fresh.HeldStats(); h != 0 || m != 16 {
		t.Fatalf("a client holding nothing: %d hits / %d misses", h, m)
	}
}

// replyRewriter lets the honest service answer, then edits the proof or
// query-result blob of the reply.
func replyRewriter(edit func(path string, blob []byte) []byte) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var env map[string]any
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &env) != nil {
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
			for _, field := range []string{"proof", "result"} {
				if s, ok := env[field].(string); ok {
					blob, _ := base64.StdEncoding.DecodeString(s)
					env[field] = base64.StdEncoding.EncodeToString(edit(r.URL.Path, blob))
				}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(env)
		})
	}
}

// TestHeldPlaceholderRefusals: a placeholder the client did not name, one
// its held bytes contradict, or one moved out of the answer's order is
// tamper evidence, never another error class. Another member writes the
// records, so that the client holds nothing it did not read.
func TestHeldPlaceholderRefusals(t *testing.T) {
	// Unnamed: the middlebox names the clue's jsns on the client's behalf,
	// so the honest server leaves out records the client never held.
	inject := func(r *http.Request) {
		if r.URL.Query().Has("held") || (r.URL.Path != "/v1/query" && !strings.HasPrefix(r.URL.Path, "/v1/clue/")) {
			return
		}
		setQuery(r, "held", "1,2,3,4,5,6,7,8")
	}
	c := memoClientVia(t, rewrite(inject))
	appendVersions(t, writerFor(c), "hot", 8)
	_, err := c.VerifyClue("hot", 0, 0)
	wantTamper(t, "clue placeholders never named", err, "clue held records")
	_, err = c.QueryRecords(ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "hot"})
	wantTamper(t, "query placeholders never named", err, "query held records")

	// Contradicted: the store's bytes for jsn 3 are jsn 4's record.
	c = memoClient(t)
	appendVersions(t, writerFor(c), "hot", 8)
	if _, err := c.VerifyClue("hot", 0, 0); err != nil {
		t.Fatal(err)
	}
	c.held.mu.Lock()
	four, _ := c.held.records.get(heldKey{c.BaseURL, 4})
	c.held.records.put(heldKey{c.BaseURL, 3}, four)
	c.held.mu.Unlock()
	_, err = c.VerifyClue("hot", 0, 0)
	wantTamper(t, "held bytes of another journal", err, "clue held records")

	// Out of order: the middlebox swaps two placeholders of a warm reply.
	swap := func(path string, blob []byte) []byte {
		b, err := ledger.DecodeClueProofBundle(blob)
		if err != nil || b.Held == nil {
			return blob
		}
		b.Held[1], b.Held[5] = b.Held[5], b.Held[1]
		return b.EncodeBytes()
	}
	c = memoClientVia(t, replyRewriter(swap))
	appendVersions(t, writerFor(c), "hot", 8)
	if _, err := c.VerifyClue("hot", 0, 0); err != nil {
		t.Fatal(err)
	}
	_, err = c.VerifyClue("hot", 0, 0)
	wantTamper(t, "placeholders out of order", err, "clue held records")
}

// TestHeldIgnoredByServer: a server (or router) that ignores held sends
// every record in full; the client verifies that reply as any other.
func TestHeldIgnoredByServer(t *testing.T) {
	c := memoClientVia(t, rewrite(func(r *http.Request) {
		q := r.URL.Query()
		q.Del("held")
		r.URL.RawQuery = q.Encode()
	}))
	appendVersions(t, c, "hot", 8)
	q := ledger.Query{Kind: ledger.QueryByPrefix, Prefix: "hot"}
	for i := 0; i < 2; i++ {
		if recs, err := c.VerifyClue("hot", 0, 0); err != nil || len(recs) != 8 {
			t.Fatalf("clue read %d: %d records, %v", i, len(recs), err)
		}
		if recs, err := c.QueryRecords(q); err != nil || len(recs) != 8 {
			t.Fatalf("query %d: %d records, %v", i, len(recs), err)
		}
	}
	if h, m := c.HeldStats(); h != 0 || m != 32 {
		t.Fatalf("held stats %d / %d, want 0 hits / 32 misses", h, m)
	}
}

// evictingTransport empties the client's record store while each
// request is in flight.
type evictingTransport struct {
	c     *Client
	calls int
}

func (e *evictingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	e.calls++
	e.c.held.mu.Lock()
	e.c.held.records = gens[heldKey, []byte]{n: heldGen}
	e.c.held.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// TestHeldSurvivesEviction: what a request names is snapshotted when it
// leaves, so an eviction before the reply arrives strands nothing: the
// reply verifies in one exchange, with no error and no retry.
func TestHeldSurvivesEviction(t *testing.T) {
	c := memoClient(t)
	appendVersions(t, writerFor(c), "hot", 16)
	if _, err := c.VerifyClue("hot", 0, 0); err != nil {
		t.Fatal(err)
	}
	et := &evictingTransport{c: c}
	c.HTTP = &http.Client{Transport: et}
	if recs, err := c.VerifyClue("hot", 0, 0); err != nil || len(recs) != 16 {
		t.Fatalf("%d records, %v", len(recs), err)
	}
	if h, _ := c.HeldStats(); h != 16 || et.calls != 1 {
		t.Fatalf("%d placeholders filled in %d exchanges, want 16 in 1", h, et.calls)
	}
}

// TestHeldParamBounded: a clue read names at most MaxProofBatch records,
// however long the lineage it last verified.
func TestHeldParamBounded(t *testing.T) {
	c := memoClient(t)
	var jsns []uint64
	for i := 0; i < ledger.MaxProofBatch+200; i++ {
		jsns = append(jsns, uint64(i+1))
	}
	raws := make([][]byte, len(jsns))
	recs := make([]*journal.Record, len(jsns))
	for i, jsn := range jsns {
		raws[i], recs[i] = []byte{1}, &journal.Record{JSN: jsn}
	}
	c.shared()
	c.held.remember(c.BaseURL, "clue\x00long", raws, recs, 0)
	held := c.held.named(c.BaseURL, "clue\x00long")
	if len(held.jsns) != ledger.MaxProofBatch || held.jsns[0] != 201 {
		t.Fatalf("named %d jsns from %d, want the newest %d", len(held.jsns), held.jsns[0], ledger.MaxProofBatch)
	}
	v, err := url.ParseQuery(strings.TrimPrefix(held.param(), "&"))
	if err != nil || strings.Count(v.Get("held"), ",")+1 != ledger.MaxProofBatch {
		t.Fatalf("held param: %v", err)
	}
	if !strings.HasPrefix(v.Get("held"), strconv.Itoa(201)+",") {
		t.Fatalf("held param starts %.20s", v.Get("held"))
	}
}
