package ledger

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// TestAnchoredProofsUnderPipelinedAppends races learned-anchor
// existence proofs against pipelined append traffic. Each verifier
// learns sealed epoch roots from the cold proofs it verifies and asks
// again naming them and the state it verified: a journal in a learned
// epoch comes back as its in-epoch path alone, any other with the state
// held back when it is unchanged. The regression it guards:
// ProveExistenceHeld must take the fam path and the signed state from
// ONE read-lock section — with two separate sections an append can slide
// in between, leaving a path built against an older accumulator paired
// with a newer signed root (or vice versa), and verification fails
// spuriously. Run under -race (scripts/check.sh does) to also certify
// the lock-narrowed read path.
func TestAnchoredProofsUnderPipelinedAppends(t *testing.T) {
	const (
		writers    = 4
		appendsPer = 40
		verifiers  = 3
	)
	// A shallow fractal tree (epochs of 16) so epochs keep sealing —
	// anchors only cover sealed epochs, and the test needs them to grow
	// while the writers run. Same URI as pipeEnv so signedReq applies.
	lsp := sig.GenerateDeterministic("anchored/lsp")
	l, err := Open(Config{
		URI:           "ledger://pipe",
		FractalHeight: 4,
		BlockSize:     16,
		Clock:         func() int64 { return 42 },
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("anchored/dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		PipelineDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Seed a few journals so verifiers have something to prove from the
	// first iteration.
	seedKey := sig.GenerateDeterministic("anchored/seed")
	for n := uint64(1); n <= 4; n++ {
		if _, err := l.Append(signedReq(t, seedKey, 99, n, nil, "seed")); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		verified atomic.Int64
	)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := sig.GenerateDeterministic(fmt.Sprintf("anchored/user%d", g))
			for i := 0; i < appendsPer; i++ {
				req := signedReq(t, key, g, uint64(i+1), nil, fmt.Sprintf("clue-%d", g))
				if _, err := l.Append(req); err != nil {
					t.Errorf("writer %d append %d: %v", g, i, err)
					return
				}
				if i%16 == 0 {
					if _, err := l.CutBlock(); err != nil {
						t.Errorf("writer %d cut: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	var vwg sync.WaitGroup
	for v := 0; v < verifiers; v++ {
		vwg.Add(1)
		go func(v int) {
			defer vwg.Done()
			learned := make(map[int]hashutil.Digest)
			for i := 0; !done.Load() || i < 8; i++ {
				jsn := uint64(v*31+i) % l.Size()
				// Unanchored proofs share the same single-RLock section;
				// exercise them against the live state concurrently.
				cold, err := l.ProveExistence(jsn, i%2 == 0)
				if err != nil {
					t.Errorf("verifier %d: live prove %d: %v", v, jsn, err)
					return
				}
				crec, err := VerifyExistence(cold, lsp.Public())
				if err != nil {
					t.Errorf("verifier %d: live verify %d: %v", v, jsn, err)
					return
				}
				if e, root, ok := cold.SealedRoot(crec); ok {
					learned[e] = root
				}
				// The same journal for a verifier holding that state and
				// the roots learned so far, however far the ledger has
				// advanced since.
				q := requester{state: cold.State, roots: contiguous(learned)}
				p, err := l.ProveExistenceHeld(jsn, i%2 == 0, Held{State: cold.State.Digest(), Sealed: uint64(len(q.roots))})
				if err != nil {
					t.Errorf("verifier %d: prove %d under %d learned roots: %v", v, jsn, len(q.roots), err)
					return
				}
				rec, err := q.verifyExistence(p, Verifier{LSP: lsp.Public()})
				if err != nil {
					t.Errorf("verifier %d: verify %d under %d learned roots: %v", v, jsn, len(q.roots), err)
					return
				}
				if rec.JSN != jsn {
					t.Errorf("verifier %d: proof for %d decoded as %d", v, jsn, rec.JSN)
					return
				}
				verified.Add(1)
			}
		}(v)
	}

	wg.Wait()
	done.Store(true)
	vwg.Wait()
	if t.Failed() {
		return
	}
	if verified.Load() < int64(verifiers*8) {
		t.Fatalf("only %d proofs verified during the race", verified.Load())
	}

	// On the quiesced ledger a verifier that learned every sealed root
	// gets the short proof for every journal they cover. The final open
	// epoch (up to 2^FractalHeight journals) has no root to learn — it is
	// still moving.
	total := uint64(4 + writers*appendsPer)
	var probes []uint64
	for jsn := uint64(0); jsn < total; jsn += 15 {
		probes = append(probes, jsn)
	}
	q := requester{roots: learnedRoots(t, l, probes...)}
	covered := uint64(16 + 15*(len(q.roots)-1)) // epoch 0 holds 16 journals, later ones 15 and the merged leaf
	if wantSize := total - 16; covered < wantSize {
		t.Fatalf("learned roots cover %d journals, want >= %d of %d", covered, wantSize, total)
	}
	for jsn := uint64(0); jsn < covered; jsn += 17 {
		p, err := l.ProveExistenceHeld(jsn, false, Held{Sealed: uint64(len(q.roots))})
		if err != nil {
			t.Fatal(err)
		}
		if p.Slot != StateNone {
			t.Fatalf("jsn %d in a learned epoch: state slot %d", jsn, p.Slot)
		}
		if _, err := q.verifyExistence(p, Verifier{LSP: lsp.Public()}); err != nil {
			t.Fatalf("jsn %d: %v", jsn, err)
		}
	}
}

// contiguous lists the roots learned for epochs 0, 1, … up to the first
// one not learned yet.
func contiguous(learned map[int]hashutil.Digest) []hashutil.Digest {
	var roots []hashutil.Digest
	for root, ok := learned[0]; ok; root, ok = learned[len(roots)] {
		roots = append(roots, root)
	}
	return roots
}
