package ledger

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// syncCountingStore wraps a Store and counts every Stream.Sync call, so
// tests can measure the fsync schedule (not just its effects).
type syncCountingStore struct {
	inner streamfs.Store
	syncs atomic.Int64
}

func (s *syncCountingStore) Stream(name string) (streamfs.Stream, error) {
	st, err := s.inner.Stream(name)
	if err != nil {
		return nil, err
	}
	return &syncCountingStream{Stream: st, counter: &s.syncs}, nil
}

func (s *syncCountingStore) Streams() ([]string, error) { return s.inner.Streams() }
func (s *syncCountingStore) Close() error               { return s.inner.Close() }

type syncCountingStream struct {
	streamfs.Stream
	counter *atomic.Int64
}

func (s *syncCountingStream) Sync() error {
	s.counter.Add(1)
	return s.Stream.Sync()
}

// runBatchCountingSyncs opens a ledger over a counting store, appends one
// AppendBatch of exactly blocks×BlockSize records, and returns how many
// Stream.Sync calls the batch itself cost (genesis excluded).
func runBatchCountingSyncs(t *testing.T, blocks int) int64 {
	t.Helper()
	const blockSize = 4
	store := &syncCountingStore{inner: streamfs.NewMemory()}
	lsp := sig.GenerateDeterministic("lsp")
	client := sig.GenerateDeterministic("client")
	var clk atomic.Int64
	cfg := Config{
		URI:           "ledger://sync-count",
		FractalHeight: 3,
		BlockSize:     blockSize,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("dba").Public(),
		Store:         store,
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         func() int64 { return clk.Add(1) },
		PipelineDepth: 8,
	}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	reqs := make([]*journal.Request, blocks*blockSize)
	for i := range reqs {
		reqs[i] = &journal.Request{
			LedgerURI: "ledger://sync-count",
			Type:      journal.TypeNormal,
			Payload:   []byte(fmt.Sprintf("sync-count-%d", i)),
			Nonce:     uint64(i + 1),
		}
		if err := reqs[i].Sign(client); err != nil {
			t.Fatal(err)
		}
	}
	before := store.syncs.Load()
	br, txHashes, err := l.AppendBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Verify(lsp.Public(), txHashes); err != nil {
		t.Fatal(err)
	}
	return store.syncs.Load() - before
}

// TestGroupFsyncCoalescing proves the coalesced sync schedule: a batch
// spanning 4 block cuts is one commit unit, hence one pipeline group,
// hence exactly ONE commit-order sync pass (4 stream Syncs) instead of
// one pass per cut (16). The batch is deterministic — a single
// commitUnit is always drained as a single group — so an exact count,
// not an inequality, is asserted.
func TestGroupFsyncCoalescing(t *testing.T) {
	const blocks = 4
	if got, want := runBatchCountingSyncs(t, blocks), int64(4); got != want {
		t.Fatalf("batch across %d cuts: %d stream syncs, want %d (one coalesced pass)", blocks, got, want)
	}
}

// TestCoalescedSyncStillCoversSyncEvery asserts the SyncEvery contract
// under coalescing: a group that crosses the SyncEvery threshold without
// cutting a block still gets its journal+digest flush at the group end.
func TestCoalescedSyncStillCoversSyncEvery(t *testing.T) {
	store := &syncCountingStore{inner: streamfs.NewMemory()}
	lsp := sig.GenerateDeterministic("lsp")
	client := sig.GenerateDeterministic("client")
	var clk atomic.Int64
	l, err := Open(Config{
		URI:           "ledger://sync-every",
		FractalHeight: 3,
		BlockSize:     1024, // no block cut in this test
		SyncEvery:     2,
		PipelineDepth: 8,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("dba").Public(),
		Store:         store,
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         func() int64 { return clk.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	reqs := make([]*journal.Request, 6)
	for i := range reqs {
		reqs[i] = &journal.Request{
			LedgerURI: "ledger://sync-every",
			Type:      journal.TypeNormal,
			Payload:   []byte(fmt.Sprintf("se-%d", i)),
			Nonce:     uint64(i + 1),
		}
		if err := reqs[i].Sign(client); err != nil {
			t.Fatal(err)
		}
	}
	before := store.syncs.Load()
	if _, _, err := l.AppendBatch(reqs); err != nil {
		t.Fatal(err)
	}
	got := store.syncs.Load() - before
	// 6 records at SyncEvery=2 used to flush 3× (journals+digests each);
	// coalesced they flush once at the group end: exactly 2 stream syncs.
	if got != 2 {
		t.Fatalf("SyncEvery group flush: %d stream syncs, want 2", got)
	}
}
