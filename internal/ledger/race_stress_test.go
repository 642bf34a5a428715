package ledger

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ledgerdb/internal/sig"
)

// TestPipelineDepth16ReadStress drives a depth-16 staged pipeline while
// verifying readers hammer every read path that PRs 2–3 narrowed or
// moved off the commit lock: server-side existence verification,
// existence proofs, FamRootAt's unlocked digest-prefix replay,
// Survivors' pinned-endpoint iteration, the cached signed state, and the
// clue lineage fast path. Writers hand each acknowledged jsn to the
// readers over a channel, so everything a reader checks is committed —
// any error is a real atomicity violation, and under -race (check.sh's
// race stage runs this) the detector sees the lock-narrowed reads
// overlapping live commits.
func TestPipelineDepth16ReadStress(t *testing.T) {
	const (
		writers = 4
		opsEach = 20
		readers = 3
		theClue = "c0"
	)
	l, lsp, _, _ := pipeEnv(t, 16)

	acks := make(chan uint64, writers*opsEach)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := sig.GenerateDeterministic(fmt.Sprintf("pipe/race%d", g))
			nonce := uint64(0)
			for i := 0; i < opsEach; i++ {
				nonce++
				req := signedReq(t, key, g, nonce, nil, theClue)
				receipt, err := l.Append(req)
				if err != nil {
					t.Errorf("g%d append: %v", g, err)
					return
				}
				acks <- receipt.JSN
			}
		}(g)
	}

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			n := 0
			for jsn := range acks {
				n++
				if err := l.VerifyExistenceServer(jsn); err != nil {
					t.Errorf("reader %d: VerifyExistenceServer(%d): %v", r, jsn, err)
				}
				if _, err := l.ProveExistence(jsn, true); err != nil {
					t.Errorf("reader %d: ProveExistence(%d): %v", r, jsn, err)
				}
				// The digest prefix [0, jsn] is committed and immutable.
				if _, err := l.FamRootAt(jsn + 1); err != nil {
					t.Errorf("reader %d: FamRootAt(%d): %v", r, jsn+1, err)
				}
				switch n % 4 {
				case 0:
					if _, err := l.State(); err != nil {
						t.Errorf("reader %d: State: %v", r, err)
					}
				case 1:
					if _, err := l.Survivors(); err != nil {
						t.Errorf("reader %d: Survivors: %v", r, err)
					}
				case 2:
					if err := l.VerifyClueServer(theClue); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("reader %d: VerifyClueServer: %v", r, err)
					}
				case 3:
					if _, err := l.ProveExistenceHeld(0, false, Held{Sealed: 1}); err != nil {
						t.Errorf("reader %d: ProveExistenceHeld: %v", r, err)
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(acks)
	rwg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := uint64(1 + writers*opsEach)
	if got := l.Size(); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	st, err := l.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(lsp.Public()); err != nil {
		t.Fatalf("final state: %v", err)
	}
}
