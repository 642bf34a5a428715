package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// HotPathResult is one machine-readable row of the hot-path experiment
// (serialized into BENCH_hotpath.json by cmd/bench).
type HotPathResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// WireBytes is the encoded size of what the op produces, on rows
	// whose name ends in -bytes: a size the repository budgets, not a time.
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// ReadAts is the positioned reads one op issues, on reopen rows.
	ReadAts int64 `json:"read_ats,omitempty"`
}

// HotPathReport is the full BENCH_hotpath.json document. The file is
// checked in: regenerate it (`go run ./cmd/bench hotpath`) in any change
// that moves a hot path, so the repository carries its own trajectory.
// The host fields say what the numbers were measured on — rows are only
// comparable between reports from like hosts.
type HotPathReport struct {
	NProc      int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Commit     string          `json:"commit"` // HEAD the tree was built from; "-dirty" if it had local changes
	Results    []HotPathResult `json:"results"`
}

// gitCommit names the checkout the report was measured on, best effort.
func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func resultOf(name string, r testing.BenchmarkResult) HotPathResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return HotPathResult{
		Name:        name,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		OpsPerSec:   ops,
	}
}

// HotPath measures the profile-driven hot paths: the zero-alloc
// encode+digest core, full Append from one goroutine and from many,
// zero-copy journal serving from
// the disk backend, and the rows that touch a disk on the write path —
// the payload log's Put/Get and pipelined Append over disk streams plus
// the payload log — then CM-Tree insertion at the benchmark's clue skew
// and, on the 40 000-journal proof-size fixture, the 16-match batch
// proof (build + encoded size, decode + verify), the repeat 64-version
// clue read of a client holding every record (build + encoded size,
// decode + fill + warm verify) and its cold twin (decode + verify with
// no memo), the existence replies of a client holding the fixture's
// state and epoch 0's learned root (build + encoded size for an epoch-0
// and an open-epoch journal, decode + fill + verify of the first), and
// last one verified
// member call through the 2-shard router with in-process and with
// remote (client-backed) shard backends, and the restart of the
// proof-size fixture from disk, ledger and query index. It returns the
// printable table plus the machine-readable results.
func HotPath() (*Table, *HotPathReport) {
	rep := &HotPathReport{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
	add := func(name string, r testing.BenchmarkResult) {
		rep.Results = append(rep.Results, resultOf(name, r))
	}

	// Encode+digest: the per-record commit work with pooled buffers.
	rec := hotPathRecord()
	add("encode-digest", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := wire.GetWriter()
			rec.Encode(enc)
			_ = hashutil.Journal(enc.Bytes())
			wire.PutWriter(enc)
		}
	}))

	add("append-sequential", benchAppend(false, false))
	add("append-pipelined", benchAppend(true, false))
	add("prove-after-append", benchProveAfterAppend())
	add("proof-getjournal-zerocopy", benchGetJournal())
	add("disk-blob-put", benchDiskBlobs(false))
	add("disk-blob-get", benchDiskBlobs(true))
	add("append-pipelined-disk", benchAppend(true, true))
	add("cmtree-insert", benchCMTreeInsert())
	tl, jsns, err := ProofReadLedger()
	if err != nil {
		panic(err)
	}
	prove, verify := benchProofBatch16(tl, jsns)
	clueProve, clueWarm, clueCold := benchClue64(tl, jsns)
	warmSealed, warmOpen, warmVerify := benchProofWarm(tl, jsns)
	rep.Results = append(rep.Results, prove, verify, clueProve, clueWarm, clueCold, warmSealed, warmOpen, warmVerify)
	add("routed-append-local", benchRouted(true, false))
	add("routed-append-remote", benchRouted(false, false))
	add("routed-query-local", benchRouted(true, true))
	add("routed-query-remote", benchRouted(false, true))
	rep.Results = append(rep.Results, benchReopen40k())

	t := &Table{
		Title:  "Hot paths: steady-state cost of the profiled append and serve paths",
		Note:   "encode-digest is the zero-alloc core; append-* include one π_c ECDSA verify per op (the single-core floor): append-sequential is one goroutine calling Append, append-pipelined 32 submitters per core; prove-after-append is append-sequential plus an existence proof of an earlier journal; *-disk and disk-* rows run on the temp dir's file system; *-batch16 rows prove/verify the 16 oldest versions of the hottest clue on the 40 000-journal δ=15 fixture (verify is cold: 17 ECDSA checks); *-warm64 rows prove/verify its newest 64 versions for a client holding all 64 records (every record a placeholder; verify fills them back in under a warm memo: 0 ECDSA checks), verify-clue-cold64 the same versions sent in full to a client with no memo (65 ECDSA checks, fanned out over GOMAXPROCS); proof-warm-* rows prove an existence proof for a client holding the fixture's signed state and epoch 0's learned root — proof-warm-sealed-bytes a journal of sealed epoch 0 (in-epoch path, no state), proof-warm-open-bytes the newest journal (cold path, state left out) — and verify-proof-warm checks the first (1 ECDSA check, the record's π_c); routed-* rows are one verified member call through a 2-shard router on memory stores, -local with the shards' *Server as backends (what ledgerdb-server -shards N runs), -remote with client.Client backends over loopback; reopen-40k is ledger.Open + index.Open of the 40 000-journal fixture written to disk (page-cached), with its ReadAt count",
		Header: []string{"workload", "ns/op", "allocs/op", "B/op", "ops/s", "wire B", "ReadAt"},
	}
	for _, r := range rep.Results {
		t.AddRow(r.Name,
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%d", r.AllocsPerOp),
			fmt.Sprintf("%d", r.BytesPerOp),
			Throughput(int(r.OpsPerSec), 1e9),
			orDash(r.WireBytes),
			orDash(r.ReadAts))
	}
	return t, rep
}

func orDash(n int64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

// WriteJSON writes the report as indented JSON.
func (rep *HotPathReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func hotPathRecord() *journal.Record {
	tl, err := NewTestLedger("ledger://hotpath", 3, 16)
	if err != nil {
		panic(err)
	}
	rcpt, err := tl.Append(Payload("hotpath", 0, 256), "K0")
	if err != nil {
		panic(err)
	}
	rec, err := tl.L.GetJournal(rcpt.JSN)
	if err != nil {
		panic(err)
	}
	return rec
}

// benchAppend measures Append throughput: one goroutine calling Append
// (what a library caller pays per journal), or with concurrent set 32
// submitters per core that keep groups forming; onDisk swaps the memory
// stores for disk streams and the payload log as cmd/ledgerdb-server
// opens them.
func benchAppend(concurrent, onDisk bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		dir := ""
		if onDisk {
			dir = b.TempDir()
		}
		tl, err := newHotLedger(dir)
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]*journal.Request, b.N)
		for i := range reqs {
			if reqs[i], err = tl.Request(Payload("hot-append", i, 128), nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		if !concurrent {
			for i := 0; i < b.N; i++ {
				if _, err := tl.L.Append(reqs[i]); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			var next atomic.Int64
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1) - 1
					if _, err := tl.L.Append(reqs[i]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.StopTimer()
		if err := tl.L.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// benchProveAfterAppend is the read that follows a commit: one
// sequential append, then an existence proof of a journal committed a little more
// than a block earlier (so its fam path stays two epochs long however
// far the run goes). Less append-sequential, it is what the proof costs the
// server; a read that signs a state of its own for every commit before
// it pays one P-256 sign more.
func benchProveAfterAppend() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		const preload, behind = 128, 70 // BlockSize is 64
		tl, err := newHotLedger("")
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]*journal.Request, preload+b.N)
		for i := range reqs {
			if reqs[i], err = tl.Request(Payload("hot-prove", i, 128), nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		for _, req := range reqs[:preload] {
			if _, err := tl.L.Append(req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, req := range reqs[preload:] {
			rc, err := tl.L.Append(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tl.L.ProveExistence(rc.JSN-behind, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// newHotLedger opens the append-bench ledger (committer queue of 64), in
// memory or — with a dir — on disk streams (SyncEvery 256, the server's
// setting) and the payload log.
func newHotLedger(dir string) (*TestLedger, error) {
	tl := &TestLedger{
		LSP:    sig.GenerateDeterministic("bench/lsp"),
		DBA:    sig.GenerateDeterministic("bench/dba"),
		Client: sig.GenerateDeterministic("bench/client"),
		URI:    "ledger://hotpath-append",
		clock:  1,
	}
	store, blobs := streamfs.NewMemory(), streamfs.NewMemoryBlobs()
	if dir != "" {
		var err error
		if store, err = streamfs.OpenDisk(filepath.Join(dir, "streams"), streamfs.DiskOptions{SyncEvery: 256}); err != nil {
			return nil, err
		}
		if blobs, err = streamfs.OpenDiskBlobs(filepath.Join(dir, "blobs")); err != nil {
			return nil, err
		}
	}
	l, err := ledger.Open(ledger.Config{
		URI:           tl.URI,
		FractalHeight: 6,
		BlockSize:     64,
		LSP:           tl.LSP,
		DBA:           tl.DBA.Public(),
		Store:         store,
		Blobs:         blobs,
		Clock:         func() int64 { return atomic.AddInt64(&tl.clock, 1) },
		PipelineDepth: 64,
	})
	if err != nil {
		return nil, err
	}
	tl.L = l
	return tl, nil
}

// ProfileWorkloads drives the two hottest production paths — concurrent
// append and proof serving — with fixed op counts, sized
// to give pprof enough samples for a useful flame graph. It is the
// target of cmd/bench's -cpuprofile/-memprofile/-mutexprofile flags
// (`bench -cpuprofile cpu.out profile`).
func ProfileWorkloads(full bool) *Table {
	appends, proofs := 2000, 20000
	if full {
		appends, proofs = 10000, 100000
	}
	t := &Table{
		Title:  "Profile workloads: sustained append + proof serving",
		Note:   "run under -cpuprofile/-memprofile/-mutexprofile; rates are incidental, the profile is the product",
		Header: []string{"workload", "ops", "elapsed", "rate"},
	}

	tl, err := newHotLedger("")
	if err != nil {
		panic(err)
	}
	reqs := make([]*journal.Request, appends)
	for i := range reqs {
		if reqs[i], err = tl.Request(Payload("profile-append", i, 128), nil, nil); err != nil {
			panic(err)
		}
	}
	workers := 4 * runtime.GOMAXPROCS(0)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(appends) {
					return
				}
				if _, err := tl.L.Append(reqs[i]); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	t.AddRow("append (pipelined)", fmt.Sprintf("%d", appends),
		fmt.Sprintf("%.1fms", elapsed.Seconds()*1000), Throughput(appends, elapsed))

	size := tl.L.Size()
	next.Store(0)
	start = time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(proofs) {
					return
				}
				jsn := uint64(i) % size
				if i%2 == 0 {
					if _, err := tl.L.ProveExistence(jsn, false); err != nil {
						panic(err)
					}
				} else if _, err := tl.L.GetJournal(jsn); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	t.AddRow("serve (proofs + journals)", fmt.Sprintf("%d", proofs),
		fmt.Sprintf("%.1fms", elapsed.Seconds()*1000), Throughput(proofs, elapsed))

	if err := tl.L.Close(); err != nil {
		panic(err)
	}
	return t
}

// benchGetJournal serves committed journals from a disk-backed store:
// one pread per record into a pooled buffer through the cached segment
// handle.
func benchGetJournal() testing.BenchmarkResult {
	dir, err := os.MkdirTemp("", "hotpath-zc-*")
	if err != nil {
		panic(err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // bench scratch; best-effort cleanup
	store, err := streamfs.OpenDisk(dir, streamfs.DiskOptions{})
	if err != nil {
		panic(err)
	}
	tl := &TestLedger{
		LSP:    sig.GenerateDeterministic("bench/lsp"),
		DBA:    sig.GenerateDeterministic("bench/dba"),
		Client: sig.GenerateDeterministic("bench/client"),
		URI:    "ledger://hotpath-zc",
		clock:  1,
	}
	l, err := ledger.Open(ledger.Config{
		URI:           tl.URI,
		FractalHeight: 6,
		BlockSize:     64,
		LSP:           tl.LSP,
		DBA:           tl.DBA.Public(),
		Store:         store,
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         func() int64 { return atomic.AddInt64(&tl.clock, 1) },
	})
	if err != nil {
		panic(err)
	}
	tl.L = l
	const journals = 256
	for i := 0; i < journals; i++ {
		if _, err := tl.Append(Payload("hot-zc", i, 256)); err != nil {
			panic(err)
		}
	}
	size := l.Size()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := l.GetJournal(uint64(i) % size); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchDiskBlobs measures the payload log at the benchmark's payload
// size: Put is one framed append (plus the digest check), Get one
// positioned read (plus the digest check). No fsync is included — the
// ledger flushes the log once per commit group.
func benchDiskBlobs(get bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		blobs, err := streamfs.OpenDiskBlobs(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		n := b.N
		if get {
			n = 4096
		}
		payloads := make([][]byte, n)
		keys := make([]hashutil.Digest, n)
		for i := range payloads {
			payloads[i] = Payload("hot-blob", i, 256)
			keys[i] = hashutil.Sum(payloads[i])
			if get {
				if err := blobs.Put(keys[i], payloads[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if get {
				_, err = blobs.Get(keys[(i*31)%n])
			} else {
				err = blobs.Put(keys[i], payloads[i])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchCMTreeInsert measures one clue insertion into a CM-Tree that
// already holds the benchmark's clue population (1000 names, Zipf 1.1):
// a CM-Tree2 append plus the copy-on-write CM-Tree1 path rewrite, whose
// branch hashing dominates.
func benchCMTreeInsert() testing.BenchmarkResult {
	zipf := proofReadZipf()
	names := make([]string, proofReadClues)
	for i := range names {
		names[i] = proofReadClue(i)
	}
	digests := Digests("cmtree-insert", 4096)
	return testing.Benchmark(func(b *testing.B) {
		t := cmtree.New()
		jsn := uint64(0)
		for _, name := range names {
			t.Insert(name, jsn, digests[jsn%4096])
			jsn++
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Insert(names[zipf.Uint64()], jsn, digests[jsn%4096])
			jsn++
		}
	})
}
