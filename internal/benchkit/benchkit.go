// Package benchkit is the experiment harness behind cmd/bench and the
// repository-root benchmarks: one function per table/figure of the
// paper's evaluation (§VI), each returning a printable table whose rows
// mirror what the paper reports. DESIGN.md §3 maps every experiment to
// its modules; EXPERIMENTS.md records paper-vs-measured values.
//
// Scaling: the paper's 32KB→32GB ledger sweep becomes a journal-count
// sweep (the measured effects — tree-height growth, epoch saturation —
// depend on leaf counts, not bytes). Quick mode caps sizes so the whole
// suite runs in seconds; full mode extends the sweep.
package benchkit

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Throughput formats an ops/sec figure.
func Throughput(ops int, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "inf"
	}
	tps := float64(ops) / elapsed.Seconds()
	switch {
	case tps >= 1_000_000:
		return fmt.Sprintf("%.1fM/s", tps/1_000_000)
	case tps >= 1_000:
		return fmt.Sprintf("%.1fK/s", tps/1_000)
	default:
		return fmt.Sprintf("%.1f/s", tps)
	}
}

// Latency formats a per-op latency.
func Latency(total time.Duration, ops int) string {
	if ops == 0 {
		return "-"
	}
	per := total / time.Duration(ops)
	switch {
	case per >= time.Second:
		return fmt.Sprintf("%.2fs", per.Seconds())
	case per >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(per.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(per.Nanoseconds())/1000)
	}
}

// Payload deterministically fills n bytes (tagged so distinct indexes
// yield distinct digests).
func Payload(tag string, i int, n int) []byte {
	b := make([]byte, n)
	seed := hashutil.Sum([]byte(fmt.Sprintf("%s/%d", tag, i)))
	for off := 0; off < n; off += len(seed) {
		copy(b[off:], seed[:])
	}
	return b
}

// Digests pre-computes m leaf digests for tree-level benches.
func Digests(tag string, m int) []hashutil.Digest {
	out := make([]hashutil.Digest, m)
	for i := range out {
		out[i] = hashutil.Leaf([]byte(fmt.Sprintf("%s/%d", tag, i)))
	}
	return out
}

// TestLedger builds an in-memory engine with deterministic keys for
// benches.
type TestLedger struct {
	L      *ledger.Ledger
	LSP    *sig.KeyPair
	DBA    *sig.KeyPair
	Client *sig.KeyPair
	URI    string
	nonce  uint64
	clock  int64
}

// NewTestLedger opens a bench engine (fractal height δ, block size b).
// Callers that want every commit flushed must Close the ledger.
func NewTestLedger(uri string, height uint8, blockSize int) (*TestLedger, error) {
	return newTestLedgerOn(uri, height, blockSize, streamfs.NewMemory(), streamfs.NewMemoryBlobs())
}

// newTestLedgerOn is NewTestLedger over the given stores.
func newTestLedgerOn(uri string, height uint8, blockSize int, store streamfs.Store, blobs streamfs.BlobStore) (*TestLedger, error) {
	tl := &TestLedger{
		LSP:    sig.GenerateDeterministic("bench/lsp"),
		DBA:    sig.GenerateDeterministic("bench/dba"),
		Client: sig.GenerateDeterministic("bench/client"),
		URI:    uri,
		clock:  1,
	}
	l, err := ledger.Open(ledger.Config{
		URI:           uri,
		FractalHeight: height,
		BlockSize:     blockSize,
		LSP:           tl.LSP,
		DBA:           tl.DBA.Public(),
		Store:         store,
		Blobs:         blobs,
		// The sequencer and the committer both call Clock.
		Clock: func() int64 {
			return atomic.AddInt64(&tl.clock, 1)
		},
	})
	if err != nil {
		return nil, err
	}
	tl.L = l
	return tl, nil
}

// Request builds a signed request with optional co-signers.
func (tl *TestLedger) Request(payload []byte, clues []string, coSigners []*sig.KeyPair) (*journal.Request, error) {
	tl.nonce++
	req := &journal.Request{
		LedgerURI: tl.URI,
		Type:      journal.TypeNormal,
		Clues:     clues,
		Payload:   payload,
		Nonce:     tl.nonce,
	}
	if err := req.Sign(tl.Client); err != nil {
		return nil, err
	}
	for _, kp := range coSigners {
		if err := req.CoSign(kp); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// Append signs and commits one journal.
func (tl *TestLedger) Append(payload []byte, clues ...string) (*journal.Receipt, error) {
	req, err := tl.Request(payload, clues, nil)
	if err != nil {
		return nil, err
	}
	return tl.L.Append(req)
}
