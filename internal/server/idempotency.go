package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
)

// idemTable dedups append submissions by idempotency key. The client
// derives the key from the signed request hash(es) (journal.RequestKey /
// journal.BatchRequestKey), so a retry of an ambiguous lost-response
// append presents the same key and is answered with the original
// receipt instead of committing a second journal.
//
// The table holds three kinds of entries:
//   - in-flight: a leader is executing the append; concurrent duplicates
//     wait on done and replay the leader's outcome;
//   - completed: the append committed; its outcome (every reply encodes
//     it afresh, deterministically) and the committed jsn are cached for
//     replay, cross-checked against the journal before being served;
//   - aborted: removed on failure, so the next retry executes afresh.
//
// Capacity is bounded FIFO over completed entries (in-flight entries
// are never evicted): the dedup window covers the retry horizon of a
// client, not all history. A key evicted before its retry arrives
// re-executes the append — and commits a duplicate journal with the
// same request hash, which the chaos suite treats as the line never to
// cross within the window.
type idemTable struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*idemEntry
	// order holds completed entries in completion order for eviction.
	// Each slot pins the exact entry it refers to: if a key was evicted
	// and later re-executed, a stale slot must not evict the new
	// generation (which may still be in flight).
	order []idemSlot
}

type idemSlot struct {
	key string
	e   *idemEntry
}

type idemEntry struct {
	done    chan struct{} // closed when the leader finishes
	ok      bool          // true: outcome is valid for replay
	outcome appendOutcome // what the leader's append returned
}

// appendOutcome is what a committed submission is answered with: the
// receipt of a single append, or a batch's receipt and tx-hashes.
type appendOutcome struct {
	receipt  *journal.Receipt
	batch    *ledger.BatchReceipt
	txHashes []hashutil.Digest
}

// firstJSN is the first journal the submission committed — what a replay
// is cross-checked against.
func (o appendOutcome) firstJSN() uint64 {
	if o.batch != nil {
		return o.batch.FirstJSN
	}
	return o.receipt.JSN
}

func newIdemTable(capacity int) *idemTable {
	if capacity <= 0 {
		capacity = 4096
	}
	return &idemTable{cap: capacity, entries: make(map[string]*idemEntry)}
}

// begin claims key. The second result is true when the caller is the
// leader and must execute the append, then call finish or abort.
// Non-leaders receive the existing entry to wait on.
func (t *idemTable) begin(key string) (*idemEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{})}
	t.entries[key] = e
	return e, true
}

// finish publishes a committed append's outcome and closes the entry.
func (t *idemTable) finish(key string, outcome appendOutcome) {
	t.mu.Lock()
	e := t.entries[key]
	e.ok = true
	e.outcome = outcome
	t.order = append(t.order, idemSlot{key, e})
	for len(t.order) > t.cap {
		s := t.order[0]
		t.order = t.order[1:]
		if t.entries[s.key] == s.e {
			delete(t.entries, s.key)
		}
	}
	t.mu.Unlock()
	close(e.done)
}

// abort removes a failed attempt so the next retry executes afresh.
func (t *idemTable) abort(key string) {
	t.mu.Lock()
	e := t.entries[key]
	delete(t.entries, key)
	t.mu.Unlock()
	close(e.done)
}

// errIdemKeyMismatch rejects a submission whose advertised key does not
// match the signed request content — either a client bug or an attempt
// to replay someone else's receipt slot.
var errIdemKeyMismatch = errors.New("idempotency key does not match request")

// dedup wraps an append execution with key-based deduplication. exec
// runs at most once per live key; replayed outcomes are validated by
// check (which cross-checks the committed jsn against the journal) before
// being served. The bool result reports whether the response is a
// replay.
func (t *idemTable) dedup(ctx context.Context, key string, exec func() (appendOutcome, error), check func(jsn uint64) error) (appendOutcome, bool, error) {
	for {
		e, leader := t.begin(key)
		if leader {
			outcome, err := exec()
			if err != nil {
				t.abort(key)
				return appendOutcome{}, false, err
			}
			t.finish(key, outcome)
			return outcome, false, nil
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return appendOutcome{}, false, fmt.Errorf("%w: %v", journal.ErrBadRequest, ctx.Err())
		}
		if !e.ok {
			// The leader failed; race to become the new leader.
			continue
		}
		if err := check(e.outcome.firstJSN()); err != nil {
			return appendOutcome{}, false, err
		}
		return e.outcome, true, nil
	}
}
