package ledger

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// benchProofLedger builds a ledger with enough journals that proof
// requests exercise real fam paths.
func benchProofLedger(b *testing.B) *testEnv {
	b.Helper()
	e := newEnv(b, func(c *Config) {
		c.FractalHeight = 6
		c.BlockSize = 64
	})
	for i := 0; i < 256; i++ {
		e.append(b, fmt.Sprintf("bench-doc-%04d", i))
	}
	return e
}

// BenchmarkProveExistence sweeps prover-side concurrency: concurrent
// provers share the one held signed state and the RLock section contains
// no signing at all, so throughput scales with readers.
func BenchmarkProveExistence(b *testing.B) {
	e := benchProofLedger(b)
	size := e.ledger.Size()
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", par), func(b *testing.B) {
			var next atomic.Uint64
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					jsn := next.Add(1) % size
					if _, err := e.ledger.ProveExistence(jsn, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkExistenceBatch compares proving AND verifying 64 journals as
// one batch versus 64 single proofs. Prover-side the two are close
// (the state cache already amortizes signing); the batch's win is the
// verifier, which checks the shared state signature once instead of 64
// times, and the wire, which carries one SignedState.
func BenchmarkExistenceBatch(b *testing.B) {
	e := benchProofLedger(b)
	lsp := e.lsp.Public()
	jsns := make([]uint64, 64)
	for i := range jsns {
		jsns[i] = uint64(i*3 + 1)
	}
	b.Run("batch=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := e.ledger.ProveExistenceBatch(jsns, false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := VerifyExistenceBatch(p, lsp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-x64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, jsn := range jsns {
				p, err := e.ledger.ProveExistence(jsn, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := VerifyExistence(p, lsp); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
