package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// These tests pin the client's own writes: a receipt is accepted only
// when it acknowledges the request the client signed, and the record
// rebuilt from that request is held, so a read of it gets a
// placeholder that the unchanged verifiers still check.

// lie is what a lying service does to one append exchange.
type lie int

const (
	honest      lie = iota
	groupOther      // a group receipt signed over another record's tx-hash
	batchSwap       // a batch receipt whose second tx-hash is another record's
	routedOther     // groupOther, in a reply that names the shard it was routed to
)

// lyingService wraps the honest service of memoClientVia. It signs with
// the LSP key (the service is the one lying, not a middlebox), and
// echoes the submitted request hash in the unsigned RequestHash field,
// so the lie passes Receipt.Verify and a request-hash comparison.
type lyingService struct {
	mu    sync.Mutex
	mode  lie
	other hashutil.Digest // the tx-hash of a record the client did not submit
	sub   *journal.Request
}

func (ls *lyingService) set(mode lie) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.mode = mode
}

func (ls *lyingService) wrap(next http.Handler) http.Handler {
	lsp := sig.GenerateDeterministic("cli-memo-lsp")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ls.mu.Lock()
		mode, other, sub := ls.mode, ls.other, ls.sub
		ls.mu.Unlock()
		if mode == batchSwap && r.URL.Path == "/v1/append-batch" {
			// Commit another member's request in place of the second one:
			// the service's batch receipt then signs its tx-hash.
			var body struct {
				Requests []string `json:"requests"`
			}
			raw, _ := io.ReadAll(r.Body)
			if err := json.Unmarshal(raw, &body); err != nil || len(body.Requests) < 2 {
				http.Error(w, "bad batch", http.StatusBadRequest)
				return
			}
			body.Requests[1] = base64.StdEncoding.EncodeToString(sub.EncodeBytes())
			hashes := make([]hashutil.Digest, len(body.Requests))
			for i, enc := range body.Requests {
				b, _ := base64.StdEncoding.DecodeString(enc)
				req, _ := journal.DecodeRequest(b)
				hashes[i] = req.Hash()
			}
			raw, _ = json.Marshal(body)
			r.Body = io.NopCloser(bytes.NewReader(raw))
			r.ContentLength = int64(len(raw))
			r.Header.Set(IdempotencyKeyHeader, journal.BatchRequestKey(hashes))
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		var env map[string]any
		if (mode != groupOther && mode != routedOther) || r.URL.Path != "/v1/append" || rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &env) != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		blob, _ := base64.StdEncoding.DecodeString(env["receipt"].(string))
		rc, err := journal.DecodeReceipt(wire.NewReader(blob))
		if err != nil {
			panic(err)
		}
		rc.TxHash, rc.GroupHashes, rc.GroupIndex = other, []hashutil.Digest{other}, 0
		if err := rc.Sign(lsp); err != nil {
			panic(err)
		}
		wr := wire.NewWriter(256)
		rc.Encode(wr)
		env["receipt"] = base64.StdEncoding.EncodeToString(wr.Bytes())
		if mode == routedOther {
			env["shard"] = 1
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(env)
	})
}

// TestReceiptBindsRequest: a receipt that π_s signs over a record other
// than the one the client's request makes is tamper evidence, on every
// path that holds the request — a group receipt over another record, a
// batch receipt with one tx-hash swapped, and a routed append — and the
// refused records are not held.
func TestReceiptBindsRequest(t *testing.T) {
	ls := &lyingService{}
	c := memoClientVia(t, ls.wrap)
	w := writerFor(c)
	rc, err := w.Append([]byte("another member's record"), "k")
	if err != nil {
		t.Fatal(err)
	}
	ls.other = rc.TxHash
	ls.sub = &journal.Request{LedgerURI: c.URI, Type: journal.TypeNormal, Clues: []string{"k"}, Payload: []byte("substitute"), Nonce: 1 << 40}
	if err := ls.sub.Sign(w.Key); err != nil {
		t.Fatal(err)
	}
	relay := func(p []byte) *journal.Request {
		req := &journal.Request{LedgerURI: c.URI, Type: journal.TypeNormal, Clues: []string{"k"}, Payload: p, Nonce: c.nextNonce()}
		if err := req.Sign(c.Key); err != nil {
			t.Fatal(err)
		}
		return req
	}
	batch := [][]byte{[]byte("b0"), []byte("b1"), []byte("b2")}
	refuse := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: the client accepted a receipt over another record", what)
			return
		}
		wantTamper(t, what, err, "receipt request binding")
	}

	ls.set(groupOther)
	_, err = c.Append([]byte("mine"), "k")
	refuse("group receipt over another record", err)
	_, _, err = c.SubmitRequestReplay(context.Background(), relay([]byte("relayed")))
	refuse("relayed request, group receipt over another record", err)

	ls.set(batchSwap)
	_, _, err = c.AppendBatch(batch, nil)
	refuse("batch receipt with one tx-hash swapped", err)
	_, _, err = c.AppendBatchSharded(batch, nil)
	refuse("single-node batch receipt through the sharded call, one tx-hash swapped", err)
	_, _, _, err = c.SubmitBatchReplay(context.Background(), []*journal.Request{relay([]byte("r0")), relay([]byte("r1"))})
	refuse("relayed batch, one tx-hash swapped", err)

	ls.set(routedOther)
	_, _, err = c.AppendRouted([]byte("routed"), "k")
	refuse("routed append, group receipt over another record", err)

	ls.set(honest)
	if h, m := c.HeldStats(); h != 0 || m != 0 {
		t.Fatalf("held stats %d / %d before any read", h, m)
	}
	c.held.mu.Lock()
	held := len(c.held.records.cur) + len(c.held.records.old)
	c.held.mu.Unlock()
	if held != 0 {
		t.Fatalf("the client holds %d records after refusing every receipt", held)
	}
	// The honest service's receipts still pass, and the write is held.
	rc, err = c.Append([]byte("mine"), "k")
	if err != nil {
		t.Fatal(err)
	}
	if rec, _, err := c.VerifyExistence(rc.JSN, false); err != nil || rec.TxHash() != rc.TxHash {
		t.Fatalf("own write: %v", err)
	}
	if h, m := c.HeldStats(); h != 1 || m != 0 {
		t.Fatalf("own write read back with %d hits / %d misses, want 1 / 0", h, m)
	}
}

// TestOwnWritePlaceholderRefusals: an existence reply's placeholder for a
// jsn the request did not name is refused, and so is one the client
// fills from a filed record the service's proof contradicts.
func TestOwnWritePlaceholderRefusals(t *testing.T) {
	inject := rewrite(func(r *http.Request) {
		if r.URL.Path == "/v1/proof/2" {
			setQuery(r, "held", "2")
		}
	})
	c := memoClientVia(t, inject)
	w := writerFor(c)
	for i := 0; i < 2; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("w%d", i)), "k"); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := c.VerifyExistence(2, false)
	wantTamper(t, "existence placeholder never named", err, "existence held record")

	// The client files its own write, then its copy disagrees with the
	// ledger: the same jsn, committed one tick later.
	rc, err := c.Append([]byte("mine"), "k")
	if err != nil {
		t.Fatal(err)
	}
	key := heldKey{c.BaseURL, rc.JSN}
	c.held.mu.Lock()
	raw, ok := c.held.records.get(key)
	c.held.mu.Unlock()
	if !ok {
		t.Fatal("own write not held")
	}
	rec, err := journal.DecodeRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	rec.Timestamp++
	c.held.mu.Lock()
	c.held.records.put(key, rec.EncodeBytes())
	c.held.mu.Unlock()
	_, _, err = c.VerifyExistence(rc.JSN, false)
	wantTamper(t, "filed record the proof contradicts", err, "existence proof verification")
	_, err = c.VerifyClue("k", 0, 0)
	wantTamper(t, "filed record the lineage contradicts", err, "clue lineage verification")
}

// TestOwnWritesFromConcurrentClones: clones that append to one clue at
// once file in whatever order their receipts arrive, yet the clue's
// named list stays ascending, so every placeholder of the next read is
// found (heldSet.get searches it) and the read sends no record.
func TestOwnWritesFromConcurrentClones(t *testing.T) {
	const clones, each = 8, 6
	c := memoClient(t)
	var wg sync.WaitGroup
	errs := make(chan error, clones)
	for g := 0; g < clones; g++ {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := cl.Append([]byte(fmt.Sprintf("%p/%d", cl, i)), "hot"); err != nil {
					errs <- err
					return
				}
			}
		}(c.Clone())
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	named := c.held.named(c.BaseURL, clueKey("hot"))
	if len(named.jsns) != clones*each || !slices.IsSorted(named.jsns) {
		t.Fatalf("named list %v: want %d ascending jsns", named.jsns, clones*each)
	}
	recs, err := c.VerifyClue("hot", 0, 0)
	if err != nil || len(recs) != clones*each {
		t.Fatalf("%d records, %v", len(recs), err)
	}
	if h, m := c.HeldStats(); h != clones*each || m != 0 {
		t.Fatalf("held stats %d hits / %d misses, want %d / 0", h, m, clones*each)
	}
}

// TestBatchProofNamesHeld: POST /v1/proofs names the jsns the client
// holds, in whatever order they were asked, and gets placeholders for
// exactly those; a held list longer than MaxProofBatch is a bad request.
func TestBatchProofNamesHeld(t *testing.T) {
	c := memoClient(t)
	w := writerFor(c)
	var own []uint64
	for i := 0; i < 3; i++ {
		rc, err := c.Append([]byte(fmt.Sprintf("own-%d", i)), "k")
		if err != nil {
			t.Fatal(err)
		}
		own = append(own, rc.JSN)
	}
	other, err := w.Append([]byte("another member's"), "k")
	if err != nil {
		t.Fatal(err)
	}
	jsns := []uint64{own[1], other.JSN, own[2], own[0]}
	recs, payloads, err := c.VerifyExistenceBatch(jsns, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.JSN != jsns[i] || payloads[i] == nil {
			t.Fatalf("item %d: jsn %d, payload %q", i, rec.JSN, payloads[i])
		}
	}
	if h, m := c.HeldStats(); h != 3 || m != 1 {
		t.Fatalf("held stats %d hits / %d misses, want 3 / 1", h, m)
	}

	long := make([]uint64, ledger.MaxProofBatch+1)
	body, _ := json.Marshal(map[string]any{"jsns": []uint64{own[0]}, "held": long})
	resp, err := http.Post(c.BaseURL+"/v1/proofs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d held jsns: status %d, want 400", len(long), resp.StatusCode)
	}
}
