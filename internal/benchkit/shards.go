package benchkit

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// ShardScaling measures clue-sharded append throughput at 1/2/4/8
// shards under a FIXED total worker budget: the same number of client
// workers drive the same pre-signed workload, routed by the digest-range
// partitioner to however many engines the row uses. With the budget
// fixed, any speedup comes from the shards' independent commit paths
// (separate sequencer locks, fam trees, and streams), not from extra
// client parallelism — which is the scale-out claim being tested. Each
// row ends with one coordinator fold and a global-proof spot check, so
// the cross-shard layer's cost sits inside the measured window.
//
// The sweep needs idle cores to show scaling. One pipelined engine
// already verifies π_c in parallel across submitters, so on a 2-core
// host it keeps both cores busy by itself and the measured speedup is
// ~1x (EXPERIMENTS.md lists the runs).
func ShardScaling(full bool) *Table {
	requests := 4096
	workers := 8
	if full {
		requests = 16384
	}

	// Pre-sign the workload once; signing is client-side work and would
	// otherwise dominate the single-core window.
	signer := sig.GenerateDeterministic("shards/client")
	reqs := make([]*journal.Request, requests)
	for i := range reqs {
		reqs[i] = &journal.Request{
			LedgerURI: "ledger://shards",
			Type:      journal.TypeNormal,
			Clues:     []string{fmt.Sprintf("C%d", i%257)},
			Payload:   Payload("shards", i, 256),
			Nonce:     uint64(i + 1),
		}
		if err := reqs[i].Sign(signer); err != nil {
			panic(err)
		}
	}

	t := &Table{
		Title:  fmt.Sprintf("Shard scale-out: %d pre-signed appends, %d workers total (fixed budget)", requests, workers),
		Note:   "speedup vs 1 shard on THIS host; it needs more cores than one pipelined engine already uses",
		Header: []string{"shards", "elapsed", "appends/s", "speedup", "fold+proof"},
	}
	var base time.Duration
	for _, n := range []int{1, 2, 4, 8} {
		elapsed, foldCost := runShardRow(n, workers, reqs)
		if n == 1 {
			base = elapsed
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1fms", elapsed.Seconds()*1000),
			Throughput(requests, elapsed),
			fmt.Sprintf("%.2fx", base.Seconds()/elapsed.Seconds()),
			fmt.Sprintf("%.1fms", foldCost.Seconds()*1000))
	}
	return t
}

func runShardRow(n, workers int, reqs []*journal.Request) (elapsed, foldCost time.Duration) {
	lsp := sig.GenerateDeterministic("shards/lsp")
	dba := sig.GenerateDeterministic("shards/dba").Public()
	var clock int64
	engines := make([]*ledger.Ledger, n)
	for i := range engines {
		l, err := ledger.Open(ledger.Config{
			URI:           "ledger://shards",
			FractalHeight: 10,
			BlockSize:     64,
			LSP:           lsp,
			DBA:           dba,
			Store:         streamfs.NewMemory(),
			Blobs:         streamfs.NewMemoryBlobs(),
			Clock:         func() int64 { return atomic.AddInt64(&clock, 1) },
			PipelineDepth: 64,
		})
		if err != nil {
			panic(err)
		}
		engines[i] = l
	}
	part, err := shard.NewPartitioner(n)
	if err != nil {
		panic(err)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if _, err := engines[part.Route(reqs[i])].Append(reqs[i]); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)

	// One fold plus a proof spot check per shard: the cross-shard layer
	// a sharded deployment pays that a single node does not.
	coord := shard.NewCoordinator("ledger://shards", engines, sig.GenerateDeterministic("shards/coord"), func() int64 { return atomic.AddInt64(&clock, 1) })
	foldStart := time.Now()
	f, err := coord.Fold()
	if err != nil {
		panic(err)
	}
	for i, h := range f.Heads {
		if h.Size == 0 {
			continue
		}
		p, err := coord.ProveGlobal(i, h.Size-1, false)
		if err != nil {
			panic(err)
		}
		if _, err := shard.VerifyGlobal(p, coord.PublicKey()); err != nil {
			panic(err)
		}
	}
	foldCost = time.Since(foldStart)
	for _, l := range engines {
		if err := l.Close(); err != nil {
			panic(err)
		}
	}
	return elapsed, foldCost
}
