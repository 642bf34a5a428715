package benchkit

import (
	"fmt"
	"reflect"
	"time"

	"ledgerdb/internal/audit"
)

// ParAudit measures the Dasein-complete audit (§V) with the worker-pool
// replay at increasing worker counts. The audit's per-journal cost is
// dominated by signature re-verification (π_c per record), which the
// pool computes out of order; the sequential merge only folds the
// precomputed digests into the shadow accumulators, so reports stay
// byte-identical across worker counts — the harness asserts that.
func ParAudit(full bool) *Table {
	journals := 1500
	if full {
		journals = 6000
	}
	tl, err := NewTestLedger("ledger://paraudit", 10, 64)
	if err != nil {
		panic(err)
	}
	for i := 0; i < journals; i++ {
		if _, err := tl.Append(Payload("paraudit", i, 256), fmt.Sprintf("K%d", i%16)); err != nil {
			panic(err)
		}
	}

	t := &Table{
		Title:  fmt.Sprintf("Parallel audit: Dasein-complete replay of %d journals, worker sweep", tl.L.Size()),
		Note:   "reports are asserted byte-identical across worker counts; speedup is vs workers=1 on THIS host",
		Header: []string{"workers", "elapsed", "journals/s", "speedup"},
	}
	cfg := audit.Config{LSP: tl.LSP.Public(), DBA: tl.DBA.Public()}
	var serial time.Duration
	var baseline *audit.Report
	for _, workers := range []int{1, 2, 4, 8} {
		cfg.Workers = workers
		start := time.Now()
		rep, err := audit.Audit(tl.L, nil, cfg)
		elapsed := time.Since(start)
		if err != nil {
			panic(err)
		}
		if workers == 1 {
			serial, baseline = elapsed, rep
		} else if !reflect.DeepEqual(rep, baseline) {
			panic(fmt.Sprintf("workers=%d produced a different report", workers))
		}
		t.AddRow(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.1fms", elapsed.Seconds()*1000),
			Throughput(int(rep.JournalsReplayed), elapsed),
			fmt.Sprintf("%.2fx", serial.Seconds()/elapsed.Seconds()))
	}
	return t
}
