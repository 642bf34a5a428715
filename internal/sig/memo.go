package sig

import (
	"sync"

	"ledgerdb/internal/hashutil"
)

// memoGen is the entry bound of one Memo generation. A memo holds at
// most two generations, 2 × 16 Ki 32-byte keys ≈ 2 MB of map. It is a
// constant, not an option: the only consumer (client.Client) has one
// workload shape, and a wrong size costs hit share, never soundness.
const memoGen = 16 << 10

// Memo remembers (key, digest, signature) triples that HAVE verified, so
// a verifier that meets the same signed object again — the LSP state of
// an unchanged generation, the π_c of a hot clue's records — pays for
// the ECDSA check once. It is sound because verification is a
// deterministic predicate of the exact triple, only successes are
// stored, and a triple differing in any bit has a different key.
//
// The zero value is an empty memo, safe for concurrent use. A nil *Memo
// verifies from scratch every time, which is how the package-level
// verifiers stay pure.
//
// Eviction is two generations with promote-on-hit: inserts fill cur;
// when cur reaches memoGen it becomes old and the previous old is
// dropped, and a hit in old re-inserts into cur. Entries touched within
// the last memoGen inserts therefore survive; nothing else is tracked.
type Memo struct {
	mu           sync.Mutex
	cur, old     map[hashutil.Digest]struct{} // keyed by memoKey
	hits, misses uint64
}

// memoKey is the SHA-256 of the exact (key ‖ digest ‖ signature) bytes,
// untruncated: two triples share an entry only on a SHA-256 collision,
// which the threat model (§II-B) already assumes away. The fields are
// fixed-width, so concatenation is unambiguous.
func memoKey(pk PublicKey, digest hashutil.Digest, sg Signature) hashutil.Digest {
	var buf [len(pk) + len(digest) + len(sg)]byte
	n := copy(buf[:], pk[:])
	n += copy(buf[n:], digest[:])
	copy(buf[n:], sg[:])
	return hashutil.Sum(buf[:])
}

// Verify is sig.Verify, skipped when this memo has already seen the
// exact triple verify. The ECDSA check runs outside the lock; two
// goroutines racing on a new triple both verify it, and both outcomes
// are the same.
func (m *Memo) Verify(pk PublicKey, digest hashutil.Digest, sg Signature) error {
	if m == nil {
		return Verify(pk, digest, sg)
	}
	k := memoKey(pk, digest, sg)
	if m.seen(k) {
		return nil
	}
	if err := Verify(pk, digest, sg); err != nil {
		return err
	}
	m.mu.Lock()
	m.insertLocked(k)
	m.mu.Unlock()
	return nil
}

// seen reports whether k is memoised, counting the lookup and
// promoting an old-generation hit.
func (m *Memo) seen(k hashutil.Digest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.cur[k]
	if !ok {
		if _, ok = m.old[k]; ok {
			m.insertLocked(k)
		}
	}
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return ok
}

func (m *Memo) insertLocked(k hashutil.Digest) {
	if len(m.cur) >= memoGen {
		m.old, m.cur = m.cur, nil
	}
	if m.cur == nil {
		m.cur = make(map[hashutil.Digest]struct{})
	}
	m.cur[k] = struct{}{}
}

// Stats returns how many Verify calls were answered from the memo
// (hits) and how many ran ECDSA (misses). A nil memo reports zeros.
func (m *Memo) Stats() (hits, misses uint64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
