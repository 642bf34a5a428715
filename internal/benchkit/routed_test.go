package benchkit

import (
	"os"
	"testing"
	"time"

	"ledgerdb/internal/ledger"
)

// TestRoutedTopologyBothBackends drives one verified append, query and
// global proof through each backend kind: the rows below measure a
// topology that works.
func TestRoutedTopologyBothBackends(t *testing.T) {
	for _, local := range []bool{true, false} {
		tp, err := NewRoutedTopology(local)
		if err != nil {
			t.Fatalf("local=%v: %v", local, err)
		}
		shardIdx, receipt, err := tp.Member.AppendRouted(Payload("routed-test", 0, 256), routedClue(0))
		if err != nil {
			t.Fatalf("local=%v: append: %v", local, err)
		}
		recs, err := tp.Member.QueryRecords(ledger.Query{Kind: ledger.QueryByPrefix, Prefix: routedClue(0), Limit: 16})
		if err != nil || len(recs) != 16 {
			t.Fatalf("local=%v: query: %d records, %v", local, len(recs), err)
		}
		if _, _, err := tp.Member.VerifyExistenceGlobal(shardIdx, receipt.JSN, false); err != nil {
			t.Fatalf("local=%v: global proof: %v", local, err)
		}
		tp.Close()
	}
}

// routedRound times n verified routed appends against a fresh topology.
func routedRound(t *testing.T, local bool, n int) time.Duration {
	tp, err := NewRoutedTopology(local)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := tp.Member.AppendRouted(Payload("routed-guard", i, 256), routedClue(i)); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

// TestRoutedAppendLocalBeatsRemote is the perf guard behind
// `scripts/check.sh perf` (it sets ROUTED_PERF_GUARD; a timing ratio has
// no place in the default test run). A routed append over in-process
// backends must stay at least 1.2x faster than over client backends: the
// difference is one loopback round trip plus one cold P-256 verify, and
// it must not come back unnoticed. Best of five alternating rounds per
// side, so a noisy neighbour has to hit every round of one side.
func TestRoutedAppendLocalBeatsRemote(t *testing.T) {
	if os.Getenv("ROUTED_PERF_GUARD") == "" {
		t.Skip("set ROUTED_PERF_GUARD=1 (scripts/check.sh perf does)")
	}
	const rounds, ops = 5, 400
	best := map[bool]time.Duration{}
	for r := 0; r < rounds; r++ {
		for _, local := range []bool{r%2 == 0, r%2 != 0} {
			d := routedRound(t, local, ops)
			if best[local] == 0 || d < best[local] {
				best[local] = d
			}
		}
	}
	ratio := float64(best[false]) / float64(best[true])
	t.Logf("routed append: local %v/op, remote %v/op, remote/local = %.2f", best[true]/ops, best[false]/ops, ratio)
	if ratio < 1.2 {
		t.Fatalf("routed-append-local is only %.2fx faster than routed-append-remote, want >= 1.2x", ratio)
	}
}
