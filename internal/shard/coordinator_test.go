package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

const testURI = "ledger://shardtest"

func newShardLedger(t testing.TB, lsp *sig.KeyPair, clock func() int64) *ledger.Ledger {
	t.Helper()
	l, err := ledger.Open(ledger.Config{
		URI:           testURI,
		FractalHeight: 3, // small epochs: folds land mid-epoch and across seals
		BlockSize:     4,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("shard-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

type testTopology struct {
	coord  *Coordinator
	part   *Partitioner
	shards []*ledger.Ledger
	key    *sig.KeyPair // client key
}

func newTopology(t testing.TB, n int) *testTopology {
	t.Helper()
	clock := logicalclock.New(500_000)
	lsp := sig.GenerateDeterministic("shard-lsp")
	shards := make([]*ledger.Ledger, n)
	for i := range shards {
		shards[i] = newShardLedger(t, lsp, clock.Tick)
	}
	part, err := NewPartitioner(n)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(testURI, shards, sig.GenerateDeterministic("shard-coord"), clock.Now)
	t.Cleanup(coord.Stop)
	return &testTopology{coord: coord, part: part, shards: shards, key: sig.GenerateDeterministic("shard-client")}
}

// append routes one clued request and returns (shard, jsn).
func (tp *testTopology) append(t testing.TB, clue, payload string, nonce uint64) (int, uint64) {
	t.Helper()
	req := &journal.Request{
		LedgerURI: testURI,
		Type:      journal.TypeNormal,
		Clues:     []string{clue},
		Payload:   []byte(payload),
		Nonce:     nonce,
	}
	if err := req.Sign(tp.key); err != nil {
		t.Fatal(err)
	}
	s := tp.part.Route(req)
	rc, err := tp.shards[s].Append(req)
	if err != nil {
		t.Fatal(err)
	}
	return s, rc.JSN
}

// TestGlobalProofRoundTrip is the tentpole invariant: every record
// appended anywhere verifies through the single record → shard fam →
// global root path, including after transport encoding.
func TestGlobalProofRoundTrip(t *testing.T) {
	tp := newTopology(t, 3)
	type loc struct {
		shard int
		jsn   uint64
		body  string
	}
	var locs []loc
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf("doc-%d", i)
		s, jsn := tp.append(t, fmt.Sprintf("clue-%d", i%7), body, uint64(i))
		locs = append(locs, loc{s, jsn, body})
	}
	if _, err := tp.coord.Fold(); err != nil {
		t.Fatal(err)
	}
	coordPK := tp.coord.PublicKey()
	for _, lc := range locs {
		p, err := tp.coord.ProveGlobal(lc.shard, lc.jsn, true)
		if err != nil {
			t.Fatalf("ProveGlobal(%d, %d): %v", lc.shard, lc.jsn, err)
		}
		decoded, err := DecodeGlobalProof(p.EncodeBytes())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		rec, err := VerifyGlobal(decoded, coordPK)
		if err != nil {
			t.Fatalf("VerifyGlobal(%d, %d): %v", lc.shard, lc.jsn, err)
		}
		if rec.JSN != lc.jsn {
			t.Fatalf("verified record jsn %d, want %d", rec.JSN, lc.jsn)
		}
		if string(decoded.Record.Payload) != lc.body {
			t.Fatalf("payload %q, want %q", decoded.Record.Payload, lc.body)
		}
	}
}

// TestProofAgainstStaleFold: records committed before a fold stay
// provable against that fold even while later appends move the shard's
// live root — the historical fam path is what makes folds usable.
func TestProofAgainstStaleFold(t *testing.T) {
	tp := newTopology(t, 2)
	s, jsn := tp.append(t, "stale", "early", 0)
	f, err := tp.coord.Fold()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 30; i++ {
		tp.append(t, fmt.Sprintf("later-%d", i), "late", uint64(i))
	}
	// Build the proof by hand against the old fold (ProveGlobal would
	// fold afresh for newer records, which is not what we test here).
	ap, err := f.ProveHead(s)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := tp.shards[s].ProveExistenceAt(jsn, f.Heads[s].Size, false)
	if err != nil {
		t.Fatal(err)
	}
	p := &GlobalProof{Head: f.HeadOf(s), Acc: ap, Record: rp, Global: f.State}
	if _, err := VerifyGlobal(p, tp.coord.PublicKey()); err != nil {
		t.Fatalf("stale-fold proof: %v", err)
	}
}

// TestFoldOnDemand: ProveGlobal for a record newer than the current fold
// triggers one fold instead of failing.
func TestFoldOnDemand(t *testing.T) {
	tp := newTopology(t, 2)
	s, jsn := tp.append(t, "fresh", "body", 0)
	if f := tp.coord.Current(); f != nil {
		t.Fatal("unexpected fold before first Fold call")
	}
	p, err := tp.coord.ProveGlobal(s, jsn, false)
	if err != nil {
		t.Fatalf("ProveGlobal before any fold: %v", err)
	}
	if _, err := VerifyGlobal(p, tp.coord.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.coord.ProveGlobal(s, jsn+100, false); !errors.Is(err, ErrNotFolded) {
		t.Fatalf("future jsn: %v", err)
	}
}

// TestVerifyGlobalRejectsTampering walks the proof's trust chain and
// breaks each link in turn.
func TestVerifyGlobalRejectsTampering(t *testing.T) {
	tp := newTopology(t, 3)
	var shard int
	var jsn uint64
	for i := 0; i < 12; i++ {
		shard, jsn = tp.append(t, fmt.Sprintf("c%d", i), "body", uint64(i))
	}
	p, err := tp.coord.ProveGlobal(shard, jsn, true)
	if err != nil {
		t.Fatal(err)
	}
	coordPK := tp.coord.PublicKey()
	if _, err := VerifyGlobal(p, coordPK); err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(*GlobalProof)) {
		t.Helper()
		q, err := DecodeGlobalProof(p.EncodeBytes())
		if err != nil {
			t.Fatal(err)
		}
		f(q)
		if _, err := VerifyGlobal(q, coordPK); err == nil {
			t.Fatalf("%s: tampered proof verified", name)
		}
	}
	mutate("head root", func(q *GlobalProof) { q.Head.Root[0] ^= 1 })
	mutate("head shard identity", func(q *GlobalProof) { q.Head.Shard ^= 1 })
	mutate("acc index", func(q *GlobalProof) { q.Acc.Index ^= 1 })
	mutate("global root", func(q *GlobalProof) { q.Global.Root[0] ^= 1 })
	mutate("global epoch", func(q *GlobalProof) { q.Global.Epoch++ })
	// Byte 2 sits in the tx-hash-covered prefix (jsn/type/timestamp);
	// the final byte would be the occult bit, which is deliberately NOT
	// covered (Protocol 2 mutates it in place).
	mutate("record bytes", func(q *GlobalProof) { q.Record.RecordBytes[2] ^= 1 })
	mutate("payload", func(q *GlobalProof) { q.Record.Payload[0] ^= 1 })
	mutate("head size", func(q *GlobalProof) { q.Head.Size++ })

	// Wrong trust root: a different coordinator key must be rejected.
	if _, err := VerifyGlobal(p, sig.GenerateDeterministic("imposter").Public()); err == nil {
		t.Fatal("proof verified under imposter coordinator key")
	}
}

// TestFoldEpochsIncrease: folds are strictly ordered, and Current always
// returns the newest.
func TestFoldEpochsIncrease(t *testing.T) {
	tp := newTopology(t, 2)
	tp.append(t, "a", "1", 0)
	f1, err := tp.coord.Fold()
	if err != nil {
		t.Fatal(err)
	}
	tp.append(t, "b", "2", 1)
	f2, err := tp.coord.Fold()
	if err != nil {
		t.Fatal(err)
	}
	if f2.State.Epoch <= f1.State.Epoch {
		t.Fatalf("epochs %d then %d", f1.State.Epoch, f2.State.Epoch)
	}
	if tp.coord.Current() != f2 {
		t.Fatal("Current is not the newest fold")
	}
}

// TestEmptyShardFolds: a topology with idle shards folds fine; proofs
// against records in active shards verify, and the empty head is bound
// into the root (head leaf at size 0).
func TestEmptyShardFolds(t *testing.T) {
	tp := newTopology(t, 4)
	// Route everything to whatever shard "only" hashes to; others idle.
	s, jsn := tp.append(t, "only", "x", 0)
	p, err := tp.coord.ProveGlobal(s, jsn, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyGlobal(p, tp.coord.PublicKey()); err != nil {
		t.Fatal(err)
	}
}

// TestSetShardRewire: after swapping in a reopened engine, folds pick up
// the recovered head and proofs still verify — the kill-and-restart path.
func TestSetShardRewire(t *testing.T) {
	tp := newTopology(t, 2)
	s, jsn := tp.append(t, "rewire", "persisted", 0)
	// Simulate restart: a fresh coordinator slot pointing at the same
	// engine stands in for reopening from the same store (the chaostest
	// integration suite does the full close-and-reopen).
	tp.coord.SetShard(s, tp.shards[s])
	p, err := tp.coord.ProveGlobal(s, jsn, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyGlobal(p, tp.coord.PublicKey()); err != nil {
		t.Fatal(err)
	}
}

// TestStartStop: the background loop folds on its own and Stop is
// idempotent.
func TestStartStop(t *testing.T) {
	tp := newTopology(t, 2)
	tp.append(t, "bg", "x", 0)
	tp.coord.Start(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for tp.coord.Current() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background loop produced no fold")
		}
		time.Sleep(time.Millisecond)
	}
	tp.coord.Stop()
	tp.coord.Stop() // idempotent
}

// TestGlobalStateCodec round-trips the signed state and rejects a
// truncated encoding.
func TestGlobalStateCodec(t *testing.T) {
	tp := newTopology(t, 2)
	tp.append(t, "codec", "x", 0)
	f, err := tp.coord.Fold()
	if err != nil {
		t.Fatal(err)
	}
	b := f.State.EncodeBytes()
	g, err := DecodeGlobalStateBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(tp.coord.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if *g != *f.State {
		t.Fatal("decoded state differs")
	}
	if _, err := DecodeGlobalStateBytes(b[:len(b)-3]); err == nil {
		t.Fatal("truncated state decoded")
	}
}

// TestVerifierMemoDifferentialGlobal is ledger's
// TestVerifierMemoDifferential for the cross-shard proof shape: after a
// memo is warmed on the valid global proof, every single-byte mutant
// must get the same verdict — accept/reject, error class, message —
// from a Verifier holding that memo as from one without.
func TestVerifierMemoDifferentialGlobal(t *testing.T) {
	tp := newTopology(t, 3)
	var shard int
	var jsn uint64
	for i := 0; i < 12; i++ {
		shard, jsn = tp.append(t, fmt.Sprintf("c%d", i), "body", uint64(i))
	}
	p, err := tp.coord.ProveGlobal(shard, jsn, true)
	if err != nil {
		t.Fatal(err)
	}
	enc := p.EncodeBytes()
	cold := Verifier{Coordinator: tp.coord.PublicKey()}
	warm := Verifier{Coordinator: tp.coord.PublicKey(), Memo: new(sig.Memo)}
	if _, err := warm.VerifyGlobal(p); err != nil {
		t.Fatal(err)
	}
	_, misses := warm.Memo.Stats()
	if misses != 2 { // the global state and the record's π_c
		t.Fatalf("global proof ran %d ECDSA checks, want 2", misses)
	}
	if _, err := warm.VerifyGlobal(p); err != nil {
		t.Fatal(err)
	}
	if _, again := warm.Memo.Stats(); again != misses {
		t.Fatalf("re-verifying the same proof ran %d ECDSA checks", again-misses)
	}
	verdict := func(err error) string {
		if err == nil {
			return "accept"
		}
		return fmt.Sprintf("reject[proof=%t sig=%t] %v", errors.Is(err, ErrBadProof), errors.Is(err, journal.ErrBadSignature), err)
	}
	mut := make([]byte, len(enc))
	mutants := 0
	for _, mask := range []byte{0xFF, 0x01} {
		for i := range enc {
			copy(mut, enc)
			mut[i] ^= mask
			q, err := DecodeGlobalProof(mut)
			if err != nil {
				continue
			}
			_, ec := cold.VerifyGlobal(q)
			_, ew := warm.VerifyGlobal(q)
			if want, got := verdict(ec), verdict(ew); got != want {
				t.Fatalf("byte %d ^ %#x:\n  nil memo:  %s\n  warm memo: %s", i, mask, want, got)
			}
			mutants++
		}
	}
	t.Logf("%d decodable mutants of %d bytes, verdicts identical", mutants, len(enc))
}
