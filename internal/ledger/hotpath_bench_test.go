package ledger

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// Hot-path benchmarks behind scripts/check.sh perf and the cmd/bench
// hotpath experiment: the steady-state encode+digest cost of committing
// a journal, full Append from one goroutine and from many, and
// zero-copy journal serving.

// benchRecord builds a representative committed record.
func benchRecord(tb testing.TB) *journal.Record {
	tb.Helper()
	e := newEnv(tb, nil)
	rcpt := e.append(tb, "hotpath-record", "clue:hot")
	rec, err := e.ledger.GetJournal(rcpt.JSN)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// BenchmarkHotPathEncodeDigest measures exactly the per-record encode +
// digest work applyRecordLocked performs: pooled wire encode of the
// record plus the journal-stream digest over the frame. This is the
// path the zero-alloc work targets; the companion test below pins it at
// 0 allocs/op.
func BenchmarkHotPathEncodeDigest(b *testing.B) {
	rec := benchRecord(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := wire.GetWriter()
		rec.Encode(enc)
		_ = hashutil.Journal(enc.Bytes())
		wire.PutWriter(enc)
	}
}

// TestEncodeDigestZeroAlloc is the regression guard for the criterion
// "steady-state Append performs zero allocations in the encode+digest
// path": once the writer pool is warm, encoding a record and digesting
// its frame must not touch the heap.
func TestEncodeDigestZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation perturbs pool allocation; the 0-alloc bound is checked in the non-race run")
	}
	rec := benchRecord(t)
	// Warm the pool.
	for i := 0; i < 8; i++ {
		enc := wire.GetWriter()
		rec.Encode(enc)
		_ = hashutil.Journal(enc.Bytes())
		wire.PutWriter(enc)
	}
	allocs := testing.AllocsPerRun(200, func() {
		enc := wire.GetWriter()
		rec.Encode(enc)
		_ = hashutil.Journal(enc.Bytes())
		wire.PutWriter(enc)
	})
	if allocs != 0 {
		t.Fatalf("encode+digest path: %.1f allocs/op, want 0", allocs)
	}
}

// benchSignedRequests pre-signs n requests outside the timed region.
func benchSignedRequests(b *testing.B, e *testEnv, n int) []*journal.Request {
	b.Helper()
	reqs := make([]*journal.Request, n)
	for i := range reqs {
		reqs[i] = e.request(b, fmt.Sprintf("hot-%d", i))
	}
	return reqs
}

func benchAppendEnv(b *testing.B, mutate func(*Config)) *testEnv {
	b.Helper()
	return newEnv(b, func(c *Config) {
		c.BlockSize = 64
		var clk atomic.Int64
		c.Clock = func() int64 { return clk.Add(1) }
		if mutate != nil {
			mutate(c)
		}
	})
}

// BenchmarkAppendSequential is one goroutine calling Append: one π_c
// verify, one commit, one receipt per call — what a library caller pays.
func BenchmarkAppendSequential(b *testing.B) {
	e := benchAppendEnv(b, nil)
	reqs := benchSignedRequests(b, e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ledger.Append(reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendPipelined drives many concurrent appenders through the
// staged pipeline, so commit groups form.
func BenchmarkAppendPipelined(b *testing.B) {
	e := benchAppendEnv(b, func(c *Config) { c.PipelineDepth = 64 })
	defer func() {
		if err := e.ledger.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	reqs := benchSignedRequests(b, e, b.N)
	var next atomic.Int64
	b.ReportAllocs()
	// Pipelining pays off when appenders queue: force many concurrent
	// submitters per core so groups actually form (the default is one
	// goroutine per core, which degenerates to the serial schedule).
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1) - 1
			if _, err := e.ledger.Append(reqs[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAppendAllocBudget is the allocs/op regression guard run by
// `scripts/check.sh perf`: steady-state sequential Append (pre-signed
// requests, warm pools) must stay within the checked-in budget in
// testdata/append_alloc_budget. The budget has headroom over the
// measured value, so a failure means a real regression — a hot-path
// allocation came back — not noise. Lower the budget when the paths
// get leaner; never raise it to paper over a regression.
func TestAppendAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/append_alloc_budget")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		t.Fatalf("bad budget file: %v", err)
	}
	e := newEnv(t, func(c *Config) { c.BlockSize = 64 })
	const runs = 192 // three full block cycles, so cut costs average in
	// AllocsPerRun invokes the function runs+1 times; +64 warmup appends.
	reqs := make([]*journal.Request, 0, runs+65)
	for i := 0; i < runs+65; i++ {
		reqs = append(reqs, e.request(t, fmt.Sprintf("budget-%d", i)))
	}
	next := 0
	// Warm pools and caches past the first block cut.
	for i := 0; i < 64; i++ {
		if _, err := e.ledger.Append(reqs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := e.ledger.Append(reqs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > budget {
		t.Fatalf("steady-state Append: %.1f allocs/op exceeds budget %.0f (testdata/append_alloc_budget)", allocs, budget)
	}
	t.Logf("steady-state Append: %.1f allocs/op (budget %.0f)", allocs, budget)
}

// BenchmarkGetJournalZeroCopy serves committed journals from the disk
// backend: the record frame arrives in a pooled buffer with one pread
// against a cached segment handle, and decode copies out only the
// retained fields.
func BenchmarkGetJournalZeroCopy(b *testing.B) {
	store, err := streamfs.OpenDisk(b.TempDir(), streamfs.DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	e := newEnv(b, func(c *Config) {
		c.Store = store
		c.BlockSize = 64
	})
	const n = 256
	for i := 0; i < n; i++ {
		e.append(b, fmt.Sprintf("zc-%04d", i))
	}
	size := e.ledger.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ledger.GetJournal(uint64(i) % size); err != nil {
			b.Fatal(err)
		}
	}
}
