package client

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// slotService is a δ = 3 ledger of 21 journals behind an HTTP server:
// epochs 0 (jsns 0-7) and 1 (8-14) sealed, 15-20 in the open epoch.
// Every service of a test signs with the same LSP key, so a second one
// filled with other payloads is a fork the key holder could serve.
func slotService(t *testing.T, tag string) (*ledger.Ledger, *httptest.Server) {
	t.Helper()
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://cli-slot",
		FractalHeight: 3,
		BlockSize:     4,
		LSP:           sig.GenerateDeterministic("cli-slot-lsp"),
		DBA:           sig.GenerateDeterministic("cli-slot-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         logicalclock.New(800_000).Tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ts := httptest.NewServer(server.New(l, nil))
	t.Cleanup(ts.Close)
	appendN(t, slotClient(ts.URL, "cli-slot-writer"), tag, 20)
	return l, ts
}

func slotClient(base, member string) *Client {
	return &Client{
		BaseURL: base,
		Key:     sig.GenerateDeterministic(member),
		LSP:     sig.GenerateDeterministic("cli-slot-lsp").Public(),
		URI:     "ledger://cli-slot",
	}
}

func appendN(t *testing.T, c *Client, tag string, n int) {
	t.Helper()
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("%s/%d", tag, i))
	}
	if _, _, err := c.AppendBatch(payloads, nil); err != nil {
		t.Fatal(err)
	}
}

// proofLie is a middlebox that forwards every request to next, except
// that it sends /v1/proof replies to fork when one is set, and rewrites
// an existence proof reply with lie when one is set.
type proofLie struct {
	next, fork http.Handler
	lie        atomic.Pointer[func(*ledger.ExistenceProof)]
	forked     atomic.Bool
	named      namedStates
}

// namedStates records the state= of every /v1/proof request, in order.
type namedStates struct {
	mu     sync.Mutex
	states []string
}

func (n *namedStates) add(r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/proof/") {
		n.mu.Lock()
		n.states = append(n.states, r.URL.Query().Get("state"))
		n.mu.Unlock()
	}
}

func (n *namedStates) get() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.states)
}

func (m *proofLie) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/proof/") {
		m.next.ServeHTTP(w, r)
		return
	}
	m.named.add(r)
	h := m.next
	if m.forked.Load() {
		h = m.fork
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	lie := m.lie.Load()
	if rec.Code != http.StatusOK || lie == nil {
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		return
	}
	var env server.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		panic(err)
	}
	raw, err := base64.StdEncoding.DecodeString(env.Proof)
	if err != nil {
		panic(err)
	}
	p, err := ledger.DecodeExistenceProof(raw)
	if err != nil {
		panic(err)
	}
	(*lie)(p)
	env.Proof = base64.StdEncoding.EncodeToString(p.EncodeBytes())
	json.NewEncoder(w).Encode(&env)
}

func (m *proofLie) tell(lie func(*ledger.ExistenceProof)) { m.lie.Store(&lie) }

// TestHeldStateLies: a server (or a middlebox) that answers with a state
// slot the request did not ask for — a held state when none was named, a
// stateless proof for a journal outside the sealed epochs the request
// named, even a genuine one taken at its epoch's end, or one whose walk
// ends no sealed epoch — is refused, and so is a held state in place of
// one the request did not name, and the in-epoch path of a forked epoch
// 0 once the client learned the real root. A client that holds nothing
// accepts the fork's cold proofs: the key holder signed them.
func TestHeldStateLies(t *testing.T) {
	l, honest := slotService(t, "doc")
	_, forked := slotService(t, "fork")
	m := &proofLie{next: honest.Config.Handler, fork: forked.Config.Handler}
	ts := httptest.NewServer(m)
	defer ts.Close()

	// stateless swaps in the honest proof at the end of the journal's
	// epoch, the one a request naming every sealed root would get.
	stateless := func(p *ledger.ExistenceProof) {
		rec, err := journal.DecodeRecord(p.RecordBytes)
		if err != nil {
			panic(err)
		}
		q, err := l.ProveExistenceHeld(rec.JSN, false, ledger.Held{Sealed: 1 << 20})
		if err != nil {
			panic(err)
		}
		*p = *q
	}
	cold := slotClient(ts.URL, "cli-slot-cold")
	m.tell(func(p *ledger.ExistenceProof) { p.State, p.Slot = nil, ledger.StateHeld })
	_, _, err := cold.VerifyExistence(17, false)
	wantTamper(t, "held state for a request naming none", err, "state slot")
	m.tell(stateless)
	_, _, err = cold.VerifyExistence(2, false)
	wantTamper(t, "stateless proof for a request naming no roots", err, "state slot")

	// One client learns epoch 0's root, another epochs 0 and 1.
	m.lie.Store(nil)
	one, two := slotClient(ts.URL, "cli-slot-one"), slotClient(ts.URL, "cli-slot-two")
	for _, read := range []struct {
		c    *Client
		jsns []uint64
	}{{one, []uint64{2}}, {two, []uint64{2, 9}}} {
		for _, jsn := range read.jsns {
			if _, _, err := read.c.VerifyExistence(jsn, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := two.VerifyExistence(10, false); err != nil {
		t.Fatal(err)
	}
	if _, _, none := two.StateSlotStats(); none != 1 {
		t.Fatalf("epoch 1 not learned: %d stateless replies", none)
	}

	m.tell(stateless)
	_, _, err = one.VerifyExistence(9, false)
	wantTamper(t, "stateless proof for an epoch past the named roots", err, "state slot")
	// The cold walk to the signed state with the state dropped ends no
	// sealed epoch.
	m.tell(func(p *ledger.ExistenceProof) {
		rec, err := journal.DecodeRecord(p.RecordBytes)
		if err != nil {
			panic(err)
		}
		q, err := l.ProveExistence(rec.JSN, false)
		if err != nil {
			panic(err)
		}
		*p = *q
		p.State, p.Slot = nil, ledger.StateNone
	})
	_, _, err = two.VerifyExistence(17, false)
	wantTamper(t, "stateless proof for an open-epoch journal", err, "state slot")
	_, _, err = two.VerifyExistence(3, false)
	wantTamper(t, "stateless proof with a cold walk", err, "state slot")

	// A proof at another state sent as if it were at the named one.
	appendN(t, slotClient(honest.URL, "cli-slot-writer"), "more", 4)
	m.tell(func(p *ledger.ExistenceProof) { p.State, p.Slot = nil, ledger.StateHeld })
	_, _, err = two.VerifyExistence(22, false)
	wantTamper(t, "held slot for a state the request did not name", err, "existence proof verification")

	// The fork: same key, same URI, another epoch 0.
	m.lie.Store(nil)
	m.forked.Store(true)
	_, _, err = two.VerifyExistence(3, false)
	wantTamper(t, "forked epoch 0 after its root was learned", err, "existence proof verification")
	if _, _, err := slotClient(ts.URL, "cli-slot-fresh").VerifyExistence(3, false); err != nil {
		t.Fatalf("a client holding nothing refused the key holder's cold proof: %v", err)
	}
}

// TestHeldStateMovesForward: a reply at a newer state than the one the
// request named is accepted with its state in full, and from then on the
// client names the newer state; a reply at an older one does not move it.
func TestHeldStateMovesForward(t *testing.T) {
	l, honest := slotService(t, "doc")
	m := &proofLie{next: honest.Config.Handler}
	ts := httptest.NewServer(m)
	defer ts.Close()
	c := slotClient(ts.URL, "cli-slot-reader")
	read := func(jsn uint64) {
		t.Helper()
		if _, _, err := c.VerifyExistence(jsn, false); err != nil {
			t.Fatal(err)
		}
	}
	read(17) // cold: state S1
	s1, err := l.State()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, slotClient(honest.URL, "cli-slot-writer"), "more", 8)
	read(25) // past S1: the reply carries S2 in full
	read(17) // under S2, which the request now names
	sent, held, _ := c.StateSlotStats()
	if sent != 2 || held != 1 {
		t.Fatalf("state slots: sent %d, held %d; want 2 and 1", sent, held)
	}
	states := m.named.get()
	if states[0] != "" || states[1] != s1.Digest().String() || states[2] == states[1] || states[2] == "" {
		t.Fatalf("named states %q", states)
	}

	// Learning S1 again, from a reply that was in flight, leaves S2 held.
	key := c.trustKey()
	c.held.learn(key, s1, nil, nil)
	if got := c.held.snapshot(key).dig.String(); got != states[2] {
		t.Fatalf("an older state replaced the held one: %s", got)
	}
}

// TestHeldStateCloneMidRequest: a request fills its reply from what it
// named when it left. A clone that moves the held state while the reply
// is in flight changes nothing for it, and the next request names the
// newer state.
func TestHeldStateCloneMidRequest(t *testing.T) {
	_, honest := slotService(t, "doc")
	writer := slotClient(honest.URL, "cli-slot-writer")
	var c, clone *Client
	var armed atomic.Bool
	var named namedStates
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		named.add(r)
		rec := httptest.NewRecorder()
		honest.Config.Handler.ServeHTTP(rec, r)
		if armed.CompareAndSwap(true, false) {
			appendN(t, writer, "more", 8)
			if _, _, err := clone.VerifyExistence(25, false); err != nil {
				t.Errorf("clone read: %v", err)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	c = slotClient(ts.URL, "cli-slot-reader")
	clone = c.Clone()
	if _, _, err := c.VerifyExistence(17, false); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if _, _, err := c.VerifyExistence(18, false); err != nil {
		t.Fatalf("reply filled from the state the request named: %v", err)
	}
	if _, held, _ := c.StateSlotStats(); held != 1 {
		t.Fatalf("the in-flight reply was not a held-state one (%d held)", held)
	}
	if _, _, err := c.VerifyExistence(18, false); err != nil {
		t.Fatal(err)
	}
	// The cold read named nothing; the held-state read and the clone's
	// read past it named S1; the last read names the clone's newer state.
	states := named.get()
	if len(states) != 4 || states[0] != "" || states[1] == "" || states[2] != states[1] || states[3] == states[1] || states[3] == "" {
		t.Fatalf("named states %q", states)
	}
}
