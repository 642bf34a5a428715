package ledgerdb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitCaughtUp bounds a follower catch-up wait for tests.
func waitCaughtUp(t *testing.T, f *Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("follower never caught up: %v; status %+v", err, f.Status())
	}
}

func TestStackFollowerConverges(t *testing.T) {
	stack, err := NewStack(StackOptions{
		URI:              "ledger://replicated",
		FractalHeight:    4,
		BlockSize:        4,
		Followers:        1,
		FollowerInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if len(stack.Followers) != 1 {
		t.Fatalf("followers = %d", len(stack.Followers))
	}
	alice := stack.NewMember("alice")
	var last *Receipt
	for i := 0; i < 20; i++ {
		if last, err = alice.Append([]byte{byte('a' + i)}, "trail"); err != nil {
			t.Fatal(err)
		}
	}
	f := stack.Followers[0]
	waitCaughtUp(t, f)
	if got, want := f.Ledger.Size(), stack.Ledger.Size(); got != want {
		t.Fatalf("follower size %d, primary %d", got, want)
	}

	// The degraded-read path: proof from the replica, verified against
	// the pinned primary LSP key. Payload blobs are not replicated, so
	// the verified record comes back payload-less.
	rec, payload, err := stack.VerifyExistenceReplica(last.JSN)
	if err != nil {
		t.Fatalf("VerifyExistenceReplica: %v", err)
	}
	if rec.JSN != last.JSN || len(rec.Clues) != 1 || rec.Clues[0] != "trail" {
		t.Fatalf("replica read: jsn %d clues %v", rec.JSN, rec.Clues)
	}
	if payload != nil {
		t.Fatalf("replica served a payload it cannot hold: %q", payload)
	}

	// The follower's own rich-query sidecar nominates; proofs decide.
	res, err := f.Index.Query(Query{Kind: QueryByPrefix, Prefix: "trail"})
	if err != nil {
		t.Fatalf("follower query: %v", err)
	}
	recs, err := VerifyQueryResult(stack.LSP.Public(), Query{Kind: QueryByPrefix, Prefix: "trail"}, res)
	if err != nil {
		t.Fatalf("follower query verification: %v", err)
	}
	if len(recs) != 20 {
		t.Fatalf("follower query records = %d", len(recs))
	}

	// Honest watermarks: caught up means applied == primary == provable.
	// The puller is pessimistic while a round is in flight (it clears
	// CaughtUp until that round re-proves it), so with 1 ms rounds a
	// single sample can land mid-round; sample until one lands between
	// rounds, and require every claim of that one snapshot.
	st := f.Status()
	for deadline := time.Now().Add(10 * time.Second); !st.CaughtUp && time.Now().Before(deadline); st = f.Status() {
		time.Sleep(100 * time.Microsecond)
	}
	if !st.CaughtUp || st.AppliedJSN != stack.Ledger.Size() || st.CheckpointJSN != st.AppliedJSN {
		t.Fatalf("status %+v", st)
	}
}

func TestStackFollowerPurgeReplicates(t *testing.T) {
	stack, err := NewStack(StackOptions{
		URI:              "ledger://replicated",
		FractalHeight:    4,
		BlockSize:        4,
		Followers:        1,
		FollowerInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	alice := stack.NewMember("alice")
	for i := 0; i < 8; i++ {
		if _, err := alice.Append([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	f := stack.Followers[0]
	waitCaughtUp(t, f)

	// Purge the first half on the primary; the purge journal replicates
	// through the same barrier/resync machinery crash recovery uses.
	desc := &PurgeDescriptor{URI: stack.URI(), Point: 4, ErasePayloads: true}
	if _, err := stack.Purge(desc, alice); err != nil {
		t.Fatalf("Purge: %v", err)
	}
	waitCaughtUp(t, f)
	if got, want := f.Ledger.Base(), stack.Ledger.Base(); got != want {
		t.Fatalf("follower base %d, primary %d", got, want)
	}
	if _, err := f.Ledger.GetJournal(1); !errors.Is(err, ErrPurged) {
		t.Fatalf("purged journal on follower: %v", err)
	}
}

// TestStackCloseDuringCatchUp is the shutdown-ordering race: Close fires
// while followers are still mid-catch-up. The pullers must drain before
// the primary engine closes (a pull against a closed primary mid-round is
// an error the round would surface), Close must stay idempotent, and
// whatever verified prefix the follower reached must still serve reads.
func TestStackCloseDuringCatchUp(t *testing.T) {
	stack, err := NewStack(StackOptions{
		URI:           "ledger://replicated",
		FractalHeight: 4,
		BlockSize:     4,
		Followers:     2,
		// Deliberately long idle interval: the follower is very likely
		// still in (or between) catch-up rounds when Close lands.
		FollowerInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := stack.NewMember("alice")
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	if _, err := alice.AppendBatch(payloads, nil); err != nil {
		t.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		t.Fatalf("Close during catch-up: %v", err)
	}
	if err := stack.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, f := range stack.Followers {
		st := f.Status()
		if st.AppliedJSN > stack.Ledger.Size() {
			t.Fatalf("follower ahead of primary: %+v", st)
		}
		// Whatever checkpointed prefix landed is still readable — a
		// closed stack keeps serving, and the replica's proofs verify.
		for jsn := uint64(0); jsn < st.CheckpointJSN; jsn++ {
			if _, _, err := stack.VerifyExistenceReplica(jsn); err != nil {
				t.Fatalf("post-close replica read jsn %d: %v", jsn, err)
			}
		}
	}
}
