package ledger

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// pipeEnv opens a pipelined ledger over fresh in-memory stores with a
// constant clock, so committed records can be reconstructed exactly
// from their requests.
func pipeEnv(t *testing.T, depth int) (*Ledger, *sig.KeyPair, streamfs.Store, streamfs.BlobStore) {
	t.Helper()
	store := streamfs.NewMemory()
	blobs := streamfs.NewMemoryBlobs()
	lsp := sig.GenerateDeterministic("pipe/lsp")
	l, err := Open(Config{
		URI:           "ledger://pipe",
		FractalHeight: 8,
		BlockSize:     16,
		Clock:         func() int64 { return 42 },
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("pipe/dba").Public(),
		Store:         store,
		Blobs:         blobs,
		PipelineDepth: depth,
	})
	if err != nil {
		t.Fatalf("open pipelined ledger: %v", err)
	}
	return l, lsp, store, blobs
}

// signedReq builds a signed normal request for the stress test.
func signedReq(t *testing.T, key *sig.KeyPair, g int, nonce uint64, stateKey []byte, clues ...string) *journal.Request {
	t.Helper()
	req := &journal.Request{
		LedgerURI: "ledger://pipe",
		Type:      journal.TypeNormal,
		Payload:   []byte(fmt.Sprintf("payload/g%d/n%d", g, nonce)),
		Clues:     clues,
		StateKey:  stateKey,
		Nonce:     nonce,
	}
	if err := req.Sign(key); err != nil {
		t.Fatalf("sign: %v", err)
	}
	return req
}

// TestPipelineStress drives mixed Append/AppendBatch traffic (plus
// concurrent manual block cuts and tampered requests that must be
// refused one by one) through the staged pipeline and then
// checks the full set of ISSUE invariants: dense jsn assignment, every
// receipt verifying, the fam root matching a sequential replay of the
// same requests, and recovery from the raw streams agreeing with the live
// engine.
func TestPipelineStress(t *testing.T) {
	const (
		goroutines = 6
		opsEach    = 25 // every 5th op is a 3-request batch
		batchEvery = 5
		batchSize  = 3
	)
	l, lsp, store, blobs := pipeEnv(t, 32)

	var (
		mu   sync.Mutex
		byJS = make(map[uint64]*journal.Request)
	)
	record := func(jsn uint64, req *journal.Request) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := byJS[jsn]; dup {
			t.Errorf("jsn %d assigned twice", jsn)
		}
		byJS[jsn] = req
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := sig.GenerateDeterministic(fmt.Sprintf("pipe/user%d", g))
			nonce := uint64(0)
			for i := 0; i < opsEach; i++ {
				if i%batchEvery == 0 {
					reqs := make([]*journal.Request, batchSize)
					for k := range reqs {
						nonce++
						reqs[k] = signedReq(t, key, g, nonce, nil, fmt.Sprintf("clue-%d", g%3))
					}
					br, txs, err := l.AppendBatch(reqs)
					if err != nil {
						t.Errorf("g%d batch %d: %v", g, i, err)
						return
					}
					if err := br.Verify(lsp.Public(), txs); err != nil {
						t.Errorf("g%d batch receipt: %v", g, err)
					}
					for k, req := range reqs {
						record(br.FirstJSN+uint64(k), req)
					}
					continue
				}
				if i%batchEvery == 3 {
					// A tampered request between good ones is refused on
					// its own; neighbours admitted alongside it commit.
					bad := signedReq(t, key, g, nonce+1_000_000, nil)
					bad.Payload = []byte("tampered after signing")
					if _, err := l.Append(bad); !errors.Is(err, journal.ErrBadSignature) {
						t.Errorf("g%d tampered append: %v, want ErrBadSignature", g, err)
					}
				}
				nonce++
				var stateKey []byte
				if i%7 == 0 {
					stateKey = []byte(fmt.Sprintf("key/g%d", g))
				}
				req := signedReq(t, key, g, nonce, stateKey)
				receipt, err := l.Append(req)
				if err != nil {
					t.Errorf("g%d append %d: %v", g, i, err)
					return
				}
				if err := receipt.Verify(lsp.Public()); err != nil {
					t.Errorf("g%d receipt: %v", g, err)
				}
				if receipt.RequestHash != req.Hash() {
					t.Errorf("g%d receipt acknowledges a different request", g)
				}
				record(receipt.JSN, req)
				if i%11 == 0 {
					// Exercise the exclusive write path concurrently.
					if _, err := l.CutBlock(); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("g%d cut block: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Dense jsn assignment: genesis plus every request, no gaps.
	perG := opsEach - opsEach/batchEvery + (opsEach/batchEvery)*batchSize
	total := uint64(1 + goroutines*perG)
	if got := l.Size(); got != total {
		t.Fatalf("size %d, want %d", got, total)
	}
	for jsn := uint64(1); jsn < total; jsn++ {
		if byJS[jsn] == nil {
			t.Fatalf("jsn %d never acknowledged", jsn)
		}
	}

	// Every committed tx-hash must be exactly the deterministic
	// reconstruction from its request (constant clock), and the fam
	// root must equal a shadow replay over those hashes.
	shadow := fam.MustNew(l.FractalHeight())
	genesisTx, err := l.TxHash(0)
	if err != nil {
		t.Fatalf("genesis tx-hash: %v", err)
	}
	shadow.Append(genesisTx)
	for jsn := uint64(1); jsn < total; jsn++ {
		req := byJS[jsn]
		rec := &journal.Record{
			JSN:           jsn,
			Type:          journal.TypeNormal,
			Timestamp:     42,
			RequestHash:   req.Hash(),
			PayloadDigest: hashutil.Sum(req.Payload),
			PayloadSize:   uint64(len(req.Payload)),
			Clues:         req.Clues,
			StateKey:      req.StateKey,
			ClientPK:      req.ClientPK,
			ClientSig:     req.ClientSig,
			CoSigners:     req.CoSigners,
		}
		want := rec.TxHash()
		got, err := l.TxHash(jsn)
		if err != nil {
			t.Fatalf("tx-hash %d: %v", jsn, err)
		}
		if got != want {
			t.Fatalf("jsn %d: committed tx-hash diverges from its request", jsn)
		}
		shadow.Append(want)
	}
	shadowRoot, err := shadow.Root()
	if err != nil {
		t.Fatalf("shadow root: %v", err)
	}
	st, err := l.State()
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if st.JournalRoot != shadowRoot {
		t.Fatalf("fam root %s diverges from the shadow tree %s", st.JournalRoot.Short(), shadowRoot.Short())
	}

	// Sequential replay from one goroutine through a fresh engine: the
	// same requests in jsn order must land on the same jsns with the same
	// tx-hashes (its genesis differs only by the LSP signature).
	replay, err := Open(Config{
		URI:           "ledger://pipe",
		FractalHeight: 8,
		BlockSize:     16,
		Clock:         func() int64 { return 42 },
		LSP:           sig.GenerateDeterministic("pipe/lsp-replay"),
		DBA:           sig.GenerateDeterministic("pipe/dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		t.Fatalf("open replay ledger: %v", err)
	}
	defer replay.Close()
	for jsn := uint64(1); jsn < total; jsn++ {
		receipt, err := replay.Append(byJS[jsn])
		if err != nil {
			t.Fatalf("sequential replay %d: %v", jsn, err)
		}
		if receipt.JSN != jsn {
			t.Fatalf("sequential replay assigned jsn %d, want %d", receipt.JSN, jsn)
		}
		want, _ := l.TxHash(jsn)
		if receipt.TxHash != want {
			t.Fatalf("sequential replay tx-hash diverges at jsn %d", jsn)
		}
	}

	// Close: drains, flushes, and refuses further writes.
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	req := signedReq(t, sig.GenerateDeterministic("pipe/late"), 99, 1, nil)
	if _, err := l.Append(req); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if _, _, err := l.AppendBatch([]*journal.Request{req}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v, want ErrClosed", err)
	}

	// Recovery from the same streams must reproduce the live state.
	re, err := Open(Config{
		URI:           "ledger://pipe",
		FractalHeight: 8,
		BlockSize:     16,
		Clock:         func() int64 { return 42 },
		LSP:           sig.GenerateDeterministic("pipe/lsp"),
		DBA:           sig.GenerateDeterministic("pipe/dba").Public(),
		Store:         store,
		Blobs:         blobs,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Size() != total {
		t.Fatalf("recovered size %d, want %d", re.Size(), total)
	}
	rst, err := re.State()
	if err != nil {
		t.Fatalf("recovered state: %v", err)
	}
	if rst.JournalRoot != st.JournalRoot || rst.ClueRoot != st.ClueRoot || rst.StateRoot != st.StateRoot {
		t.Fatalf("recovered roots diverge from live engine")
	}
}

// TestCloseDuringInflightAppends races Close against appends mid-
// admission: every submitter must get a definitive answer (a verifying
// receipt or ErrClosed), never a hang, and a second Close after the
// drain is a no-op.
func TestCloseDuringInflightAppends(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		var clk atomic.Int64
		clk.Store(1000)
		e := newEnv(t, func(c *Config) {
			c.PipelineDepth = 4
			c.Clock = func() int64 { return clk.Add(1) }
		})
		var wg sync.WaitGroup
		var nonce atomic.Uint64
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					req := &journal.Request{
						LedgerURI: "ledger://test",
						Type:      journal.TypeNormal,
						Payload:   []byte(fmt.Sprintf("close-race-%d-%d-%d", iter, g, i)),
						Nonce:     nonce.Add(1),
					}
					if err := req.Sign(e.client); err != nil {
						t.Error(err)
						return
					}
					rc, err := e.ledger.Append(req)
					if err == nil {
						if verr := rc.Verify(e.lsp.Public()); verr != nil {
							t.Errorf("receipt does not verify: %v", verr)
						}
					} else if !errors.Is(err, ErrClosed) {
						t.Errorf("append err = %v, want nil or ErrClosed", err)
					}
				}
			}(g)
		}
		if err := e.ledger.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := e.ledger.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineBackpressure forces the committer queue to depth 1 so
// every sequencing step contends with the group committer; the pipeline
// must still assign dense jsns and drain cleanly.
func TestPipelineBackpressure(t *testing.T) {
	l, lsp, _, _ := pipeEnv(t, 1)
	key := sig.GenerateDeterministic("pipe/bp")
	var wg sync.WaitGroup
	const workers, each = 4, 10
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := signedReq(t, key, g, uint64(g*1000+i+1), nil)
				receipt, err := l.Append(req)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := receipt.Verify(lsp.Public()); err != nil {
					t.Errorf("receipt: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got, want := l.Size(), uint64(1+workers*each); got != want {
		t.Fatalf("size %d, want %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestGroupReceiptIntegrity drives enough concurrent appends through
// the pipeline to produce group-signed receipts, then checks that a
// group receipt survives a wire round-trip and that every interesting
// tampering — repositioning within the group, moving to another jsn,
// swapping a group hash, or stripping the group down to a solo receipt
// — breaks verification.
func TestGroupReceiptIntegrity(t *testing.T) {
	l, lsp, _, _ := pipeEnv(t, 32)
	key := sig.GenerateDeterministic("pipe/group")

	var (
		mu       sync.Mutex
		receipts []*journal.Receipt
	)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				receipt, err := l.Append(signedReq(t, key, g, uint64(g*100+i+1), nil))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				receipts = append(receipts, receipt)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	defer l.Close()

	var grouped *journal.Receipt
	for _, rc := range receipts {
		if len(rc.GroupHashes) > 1 && rc.GroupIndex > 0 {
			grouped = rc
			break
		}
	}
	if grouped == nil {
		// Scheduling can in principle commit every journal alone; the
		// tamper checks below need a multi-record group to be meaningful.
		t.Skip("no multi-record commit group formed")
	}

	// The genuine receipt round-trips through the wire encoding.
	w := wire.NewWriter(256)
	grouped.Encode(w)
	decoded, err := journal.DecodeReceipt(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := decoded.Verify(lsp.Public()); err != nil {
		t.Fatalf("decoded receipt: %v", err)
	}

	tamper := func(name string, mutate func(rc *journal.Receipt)) {
		cp := *grouped
		cp.GroupHashes = append([]hashutil.Digest(nil), grouped.GroupHashes...)
		mutate(&cp)
		if err := cp.Verify(lsp.Public()); err == nil {
			t.Errorf("%s: tampered receipt verified", name)
		}
	}
	tamper("reposition", func(rc *journal.Receipt) { rc.GroupIndex-- })
	tamper("other jsn", func(rc *journal.Receipt) { rc.JSN++ })
	tamper("swapped hash", func(rc *journal.Receipt) {
		rc.GroupHashes[rc.GroupIndex], rc.GroupHashes[0] = rc.GroupHashes[0], rc.GroupHashes[rc.GroupIndex]
	})
	tamper("foreign tx-hash", func(rc *journal.Receipt) {
		rc.TxHash = hashutil.Leaf([]byte("forged"))
		rc.GroupHashes[rc.GroupIndex] = rc.TxHash
	})
	tamper("stripped group", func(rc *journal.Receipt) { rc.GroupHashes = nil })
	tamper("index out of range", func(rc *journal.Receipt) { rc.GroupIndex = uint64(len(rc.GroupHashes)) })
}

// TestPipelineMutationsInterleave runs an occult while pipelined
// appends are in flight: the exclusive write path must drain the
// pipeline first and keep the jsn space dense.
func TestPipelineMutationsInterleave(t *testing.T) {
	l, _, _, _ := pipeEnv(t, 16)
	key := sig.GenerateDeterministic("pipe/mut")
	dba := sig.GenerateDeterministic("pipe/dba")

	// Seed one journal to occult.
	seed := signedReq(t, key, 0, 1, nil)
	receipt, err := l.Append(seed)
	if err != nil {
		t.Fatalf("seed append: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			req := signedReq(t, key, 1, uint64(100+i), nil)
			if _, err := l.Append(req); err != nil {
				t.Errorf("append during occult: %v", err)
				return
			}
		}
	}()
	desc := &OccultDescriptor{URI: l.URI(), JSN: receipt.JSN}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(dba); err != nil {
		t.Fatalf("sign occult: %v", err)
	}
	if _, err := l.Occult(desc, ms); err != nil {
		t.Fatalf("occult: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// 1 genesis + 1 seed + 30 appends + 1 occult journal.
	if got, want := l.Size(), uint64(33); got != want {
		t.Fatalf("size %d, want %d", got, want)
	}
	rec, err := l.GetJournal(receipt.JSN)
	if err != nil {
		t.Fatalf("get occulted journal: %v", err)
	}
	if !rec.Occulted {
		t.Fatalf("journal %d not marked occulted", receipt.JSN)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
