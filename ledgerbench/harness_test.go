package main

import (
	"encoding/base64"
	"testing"

	"ledgerdb/internal/journal"
)

// The whole harness in miniature: every workload stands up in-process,
// preloads, passes the tamper gate (every proof kind it uses is
// rejected when two adjacent bytes are flipped), runs a short traced op
// sequence with zero failures, re-proves its receipts, and yields every
// metric BENCHMARK.json declares per layer.
func TestEveryWorkloadRunsTracedInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up four ledgers")
	}
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			w.Preload = 1200 // enough for one version of every clue
			cfg := config{tmpRoot: t.TempDir(), outDir: t.TempDir()}
			tr := newTracer()
			p, err := runPass(w, 5, cfg, tr, 60)
			if err != nil {
				t.Fatal(err)
			}
			defer p.close()
			if p.failed != 0 || p.attempted != 60 {
				t.Fatalf("%d of %d ops failed: %v", p.failed, p.attempted, p.firstErr)
			}
			spans := tr.snapshot()
			metrics, byKind := layerMetrics(spans, p.attempted)
			if len(byKind) != len(distinctKinds(w)) {
				t.Errorf("spans cover kinds %v, workload issues %v", byKind, distinctKinds(w))
			}
			if w.Shards > 1 && (metrics["router.self_share"] <= 0 || metrics["router.fanout_calls"] <= 0) {
				t.Errorf("sharded run attributes nothing to the router: %v", metrics)
			}
			if w.Shards == 1 && metrics["router.self_share"] != 0 {
				t.Errorf("single-node run attributes time to a router: %v", metrics)
			}
			leaf, err := leafMetrics(p, 5)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range leaf {
				metrics[k] = v
			}
			// Filled in by runTraced from counters rather than spans.
			for _, k := range []string{
				"server.shed_count", "server.idem_hits", "shard.global_retry_ratio", "trace.overhead_ratio",
				"streamfs.write_calls", "streamfs.write_bytes", "streamfs.fsync_calls", "streamfs.read_calls", "streamfs.read_bytes",
			} {
				metrics[k] = 0
			}
			if _, err := selectMetrics(bf.PerLayer, metrics); err != nil {
				t.Error(err)
			}
			if len(metrics) != len(bf.PerLayer) {
				t.Errorf("harness produces %d per-layer metrics, BENCHMARK.json declares %d", len(metrics), len(bf.PerLayer))
			}
			hasWrite := false
			for _, k := range w.Pattern {
				hasWrite = hasWrite || k == KAppend || k == KBatch
			}
			if hasWrite != (p.fs.writeCalls > 0) {
				t.Errorf("workload writes=%v but the stream wrapper counted %d writes", hasWrite, p.fs.writeCalls)
			}
		})
	}
}

// The gate must fail closed: a client that accepts a flipped reply, or
// a reply with nothing to flip, is an error, never a pass.
func TestTamperGateFailsWhenNothingIsFlipped(t *testing.T) {
	w, _ := workloadByName("append_durable")
	w.Preload = 64
	cfg := config{tmpRoot: t.TempDir(), outDir: t.TempDir()}
	p, err := runPass(w, 1, cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	saved := blobFields
	blobFields = nil // the transport now forwards replies untouched
	defer func() { blobFields = saved }()
	if err := tamperGate(p.cl, w, p.view, 1); err == nil {
		t.Fatal("tamper gate passed although no reply was altered")
	}
}

// Why the gate flips two adjacent bytes: a record's last byte, its
// occult flag, is outside the tx-hash by design, so flipping it alone
// yields another valid record with the same digest. With the neighbour
// flipped too, the digest moves (or the record no longer decodes).
func TestFlipTouchesACoveredByteEvenAtTheOccultFlag(t *testing.T) {
	rec := &journal.Record{JSN: 7, Clues: []string{"c0001"}, Extra: []byte{1, 2, 3}}
	raw := rec.EncodeBytes()
	last := len(raw) - 1

	alone := append([]byte(nil), raw...)
	alone[last] ^= 0x01
	got, err := journal.DecodeRecord(alone)
	if err != nil || got.TxHash() != rec.TxHash() || !got.Occulted {
		t.Fatalf("occult flag alone: err=%v — expected a valid record with the same tx-hash, else the two-byte rule has lost its reason", err)
	}

	for _, p := range []int{last - 1, last / 2} {
		enc, err := flipB64(base64.StdEncoding.EncodeToString(raw), func(int) int { return p })
		if err != nil {
			t.Fatal(err)
		}
		flipped, _ := base64.StdEncoding.DecodeString(enc) // flipB64 just encoded it
		if got, err := journal.DecodeRecord(flipped); err == nil && got.TxHash() == rec.TxHash() {
			t.Errorf("flip at bytes %d,%d of %d leaves the tx-hash unchanged", p, p+1, len(raw))
		}
	}
}
