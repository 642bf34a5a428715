package client

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
)

// Held records: the client remembers the journals it has verified in
// clue and query replies and names them when it asks the same question
// again, so the server can send a placeholder instead of bytes the
// client already holds (ledger.Held). The held bytes go back into the
// reply before the unchanged verifiers run, so every record is still
// folded under the new reply's signed state; the store saves transfer
// and server reads, never a check. Losing it costs one cold read.
//
// It also holds the client's own writes. After a verified receipt of a
// single-node service the client rebuilds each acknowledged record from
// the request it signed — and the receipt is only accepted when that
// record's tx-hash is the one π_s signed (acknowledges) — then files the
// bytes and adds the jsn to each of its clues' remembered answers. An
// existence proof names any jsn the store holds.

//
// The same store keeps, per service, the newest signed state the client
// verified and the sealed fam epoch roots it learned (ledger.SealedRoot).
// Every request names the state; an existence proof also names how many
// roots, contiguous from epoch 0, it holds. The reply may then leave the
// state out, or answer a journal of a learned epoch with the proof at
// that epoch's end, which the client checks against its learned root
// (ledger/stateslot.go). A request fills its reply from a snapshot taken
// when it left, so a clone moving the held state meanwhile changes
// nothing for it.

// heldGen is the entry bound of one generation of the record store: at
// most two generations, 2 × 8 Ki records of ~250 bytes ≈ 4 MB. answerGen
// bounds the remembered answers the same way (2 × 512 lists of at most
// ledger.MaxProofBatch jsns), and trustGen the services whose state and
// roots are kept (2 × 16, each at most maxSealedRoots roots of 32 bytes).
// Constants like the memo's, not options: a wrong size costs cold reads,
// never correctness.
const (
	heldGen        = 8 << 10
	answerGen      = 512
	trustGen       = 16
	maxSealedRoots = 1 << 10
)

// gens is a map bounded like sig.Memo: two generations of at most n
// entries, inserts into the current one, a full current one becomes the
// old one and drops the previous old one, a hit in the old one moves
// back to the current one.
type gens[K comparable, V any] struct {
	n        int
	cur, old map[K]V
}

func (g *gens[K, V]) get(k K) (V, bool) {
	v, ok := g.cur[k]
	if !ok {
		if v, ok = g.old[k]; ok {
			g.put(k, v)
		}
	}
	return v, ok
}

func (g *gens[K, V]) put(k K, v V) {
	if _, ok := g.cur[k]; !ok && len(g.cur) >= g.n {
		g.old, g.cur = g.cur, nil
	}
	if g.cur == nil {
		g.cur = make(map[K]V)
	}
	g.cur[k] = v
}

// heldKey names one verified record: jsns are per ledger, so the
// endpoint that served it is part of the key (clones pointed at
// different shards share the store).
type heldKey struct {
	base string
	jsn  uint64
}

// heldStore is the client's memory of verified records, shared by every
// clone like the memo: the record bytes, and for each clue and query
// (per endpoint) the jsns of its last verified answer.
type heldStore struct {
	mu           sync.Mutex
	records      gens[heldKey, []byte]
	answers      gens[string, []uint64]
	trust        gens[trustKey, *trusted]
	hits, misses uint64
	slots        [3]atomic.Uint64 // replies received per ledger.StateSlot
}

func newHeldStore() *heldStore {
	return &heldStore{
		records: gens[heldKey, []byte]{n: heldGen},
		answers: gens[string, []uint64]{n: answerGen},
		trust:   gens[trustKey, *trusted]{n: trustGen},
	}
}

// trustKey names one service the client verifies: the endpoint and the
// LSP key pinned for it.
type trustKey struct {
	base string
	lsp  sig.PublicKey
}

// trusted is what the client verified about one service.
type trusted struct {
	state *ledger.SignedState // the newest verified signed state
	dig   hashutil.Digest     // state.Digest()
	// sealed holds the learned roots of epochs [0, len(sealed)). It is
	// only ever appended to, so a snapshot may share it.
	sealed []hashutil.Digest
	ahead  map[int]hashutil.Digest // learned roots past the contiguous prefix
}

// namedTrust is what one request names as verified: the state and the
// sealed roots the store held when it left.
type namedTrust struct {
	state *ledger.SignedState
	dig   hashutil.Digest
	roots []hashutil.Digest
}

// snapshot is what the store holds for key, for a request about to leave.
func (s *heldStore) snapshot(key trustKey) namedTrust {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.trust.get(key)
	if !ok {
		return namedTrust{}
	}
	return namedTrust{state: t.state, dig: t.dig, roots: t.sealed[:len(t.sealed):len(t.sealed)]}
}

// params renders the request's parameters: the state, and with sealed the
// count of roots (an existence proof's).
func (n namedTrust) params(sealed bool) string {
	var b strings.Builder
	if n.state != nil {
		b.WriteString("&state=")
		b.WriteString(n.dig.String())
	}
	if sealed && len(n.roots) > 0 {
		b.WriteString("&sealed=")
		b.WriteString(strconv.Itoa(len(n.roots)))
	}
	return b.String()
}

// learn files what a verified reply taught about key's service: its
// state st when it is newer than the held one, and the sealed root a
// cold existence proof p of rec authenticated (p may be nil).
func (s *heldStore) learn(key trustKey, st *ledger.SignedState, p *ledger.ExistenceProof, rec *journal.Record) {
	epoch, root, rooted := -1, hashutil.Zero, false
	if p != nil {
		epoch, root, rooted = p.SealedRoot(rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.trust.get(key)
	if !ok {
		t = &trusted{}
		s.trust.put(key, t)
	}
	if st != nil && (t.state == nil || st.JSN > t.state.JSN || (st.JSN == t.state.JSN && st.Timestamp > t.state.Timestamp)) {
		t.state, t.dig = st, st.Digest()
	}
	if !rooted || epoch < len(t.sealed) || epoch >= maxSealedRoots {
		return
	}
	if t.ahead == nil {
		t.ahead = make(map[int]hashutil.Digest)
	}
	t.ahead[epoch] = root
	for r, ok := t.ahead[len(t.sealed)]; ok; r, ok = t.ahead[len(t.sealed)] {
		delete(t.ahead, len(t.sealed))
		t.sealed = append(t.sealed, r)
	}
}

// saw counts a reply's state slot as it arrived (decoding admits only
// the three slots).
func (s *heldStore) saw(slot ledger.StateSlot) { s.slots[slot].Add(1) }

// StateSlotStats reports how many existence, batch, clue and query
// replies this client and its clones received with the signed state in
// full (sent), left out because the request named it (held), and with no
// state at all — an in-epoch path checked against a learned sealed root
// (none).
func (c *Client) StateSlotStats() (sent, held, none uint64) {
	c.shared()
	return c.held.slots[ledger.StateSent].Load(), c.held.slots[ledger.StateHeld].Load(), c.held.slots[ledger.StateNone].Load()
}

// trustKey is this client's key into the store.
func (c *Client) trustKey() trustKey { return trustKey{c.BaseURL, c.LSP} }

// heldSet is what one request names as held: the jsns, ascending, and
// the bytes the store had of them when the request left — so an
// eviction while the request is in flight cannot strand a placeholder.
type heldSet struct {
	jsns  []uint64
	bytes [][]byte
}

// param renders the set as the request's held parameter.
func (h *heldSet) param() string {
	if len(h.jsns) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("&held=")
	for i, jsn := range h.jsns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(jsn, 10))
	}
	return b.String()
}

// get returns the bytes held of a named jsn.
func (h *heldSet) get(jsn uint64) ([]byte, bool) {
	i, ok := slices.BinarySearch(h.jsns, jsn)
	if !ok {
		return nil, false
	}
	return h.bytes[i], true
}

// clueKey is the question key of a clue read.
func clueKey(clue string) string { return "clue\x00" + clue }

// named is the held set for a request asking the question key again:
// the jsns of its last verified answer the store still holds.
func (s *heldStore) named(base, key string) *heldSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	answer, _ := s.answers.get(base + key)
	return s.heldOf(base, answer)
}

// holding is the held set for a request naming jsns, in any order: those
// the store holds.
func (s *heldStore) holding(base string, jsns ...uint64) *heldSet {
	jsns = slices.Clone(jsns)
	slices.Sort(jsns)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heldOf(base, jsns)
}

// heldOf collects, under s.mu, the jsns of an ascending list the store
// holds, each once.
func (s *heldStore) heldOf(base string, jsns []uint64) *heldSet {
	h := &heldSet{}
	for _, jsn := range jsns {
		if n := len(h.jsns); n > 0 && h.jsns[n-1] == jsn {
			continue // a clue lineage may list one journal twice
		}
		if raw, ok := s.records.get(heldKey{base, jsn}); ok {
			h.jsns = append(h.jsns, jsn)
			h.bytes = append(h.bytes, raw)
		}
	}
	return h
}

// remember files a verified answer to question key: every record's
// bytes, and its jsns as what to name next time. filled is how many of
// the records the reply left out.
func (s *heldStore) remember(base, key string, raws [][]byte, recs []*journal.Record, filled int) {
	jsns := make([]uint64, len(recs))
	for i, rec := range recs {
		jsns[i] = rec.JSN
	}
	if len(jsns) > ledger.MaxProofBatch {
		jsns = jsns[len(jsns)-ledger.MaxProofBatch:]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rec := range recs {
		s.records.put(heldKey{base, rec.JSN}, raws[i])
	}
	s.answers.put(base+key, jsns)
	s.countLocked(filled, len(recs))
}

// file holds the client's own records, rebuilt from its requests and
// bound to the tx-hashes π_s signed: their bytes, and each jsn in the
// remembered answer of every clue it carries, so that the next read of
// the clue names it.
func (s *heldStore) file(base string, recs ...*journal.Record) {
	raws := make([][]byte, len(recs))
	for i, rec := range recs {
		raws[i] = rec.EncodeBytes()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rec := range recs {
		s.records.put(heldKey{base, rec.JSN}, raws[i])
		for _, clue := range rec.Clues {
			key := base + clueKey(clue)
			answer, _ := s.answers.get(key)
			s.answers.put(key, withJSN(answer, rec.JSN))
		}
	}
}

// withJSN adds jsn to an ascending answer, which keeps its newest
// MaxProofBatch jsns. Clones commit concurrently and file in whatever
// order their receipts arrive, so jsn goes where it sorts.
func withJSN(answer []uint64, jsn uint64) []uint64 {
	i, found := slices.BinarySearch(answer, jsn)
	if found {
		return answer
	}
	answer = slices.Insert(answer, i, jsn)
	return answer[max(0, len(answer)-ledger.MaxProofBatch):]
}

// count adds one reply's records to HeldStats: filled of them left out,
// the rest of total sent in full.
func (s *heldStore) count(filled, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countLocked(filled, total)
}

func (s *heldStore) countLocked(filled, total int) {
	s.hits += uint64(filled)
	s.misses += uint64(total - filled)
}

// HeldStats reports how many records existence, batch, clue and query
// replies left out because this client (or a clone) already held them
// (hits), and how many arrived in full (misses). Filing an own write
// counts as neither; only a later read of it does.
func (c *Client) HeldStats() (hits, misses uint64) {
	c.shared()
	c.held.mu.Lock()
	defer c.held.mu.Unlock()
	return c.held.hits, c.held.misses
}
