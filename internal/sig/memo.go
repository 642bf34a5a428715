package sig

import (
	"sync"
	"sync/atomic"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/par"
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
// A signer may also file the triples it has just produced with its own
// key pair (Signed), so it never ECDSA-checks its own π_c when a proof
// brings the record back. That is the same soundness argument: a triple
// KeyPair.Sign returned verifies by construction, so filing it states a
// success without running the check, and a record differing in any bit
// of key, digest or signature still misses. Filed triples count as
// neither hits nor misses.
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

// memoKeys is the memoKey of each check of cs.
func memoKeys(cs []Check) []hashutil.Digest {
	keys := make([]hashutil.Digest, len(cs))
	for i := range cs {
		keys[i] = memoKey(cs[i].PK, cs[i].Digest, cs[i].Sig)
	}
	return keys
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
	err := Verify(pk, digest, sg)
	m.mu.Lock()
	m.misses++
	if err == nil {
		m.insertLocked(k)
	}
	m.mu.Unlock()
	return err
}

// Check is one signature check: Sig must be PK's signature over Digest.
type Check struct {
	PK     PublicKey
	Digest hashutil.Digest
	Sig    Signature
}

// VerifyAll runs every check of cs and returns the index and error of
// the lowest one that fails, or (len(cs), nil): what a loop of Verify
// calls stopping at its first failure returns, at any GOMAXPROCS. The
// memo answers its hits first, all under one lock acquisition, so a
// batch it has fully seen runs no ECDSA and starts no goroutine; only
// the misses reach sig.Verify, fanned out over every core (par.Each),
// and each that verified below the first failure is remembered. A
// triple repeated within cs is checked once, at its first occurrence,
// and its repeats count as hits, as they would in the loop. A nil memo
// checks every entry.
func (m *Memo) VerifyAll(cs []Check) (int, error) {
	var miss []int // indices of cs to ECDSA-check, ascending
	if m == nil {
		miss = make([]int, len(cs))
		for i := range miss {
			miss[i] = i
		}
		bad, _, err := verifyEach(cs, miss)
		return bad, err
	}
	keys := memoKeys(cs)
	var pending map[hashutil.Digest]struct{} // keys of miss; made on the first
	m.mu.Lock()
	for i, k := range keys {
		if _, repeat := pending[k]; repeat {
			// Same triple, same verdict: a failure here is reported at
			// the first occurrence, a lower index.
			m.hits++
			continue
		}
		if !m.seenLocked(k) {
			if pending == nil {
				pending = make(map[hashutil.Digest]struct{})
			}
			pending[k] = struct{}{}
			miss = append(miss, i)
		}
	}
	m.mu.Unlock()
	if len(miss) == 0 {
		return len(cs), nil
	}
	bad, ran, err := verifyEach(cs, miss)
	m.mu.Lock()
	m.misses += ran
	for _, i := range miss {
		if i >= bad {
			break
		}
		m.insertLocked(keys[i])
	}
	m.mu.Unlock()
	return bad, err
}

// Signed files checks whose signatures the caller has just made with
// its own key pair (KeyPair.Sign over Digest, PK its public key), under
// one lock acquisition. Each verifies by construction, so a later Verify
// or VerifyAll of the exact triple is a hit; nothing is counted here.
// Filing a triple that does not verify would make the memo accept it:
// callers pass only what a nil-error Sign returned. A nil memo files
// nothing.
func (m *Memo) Signed(cs ...Check) {
	if m == nil || len(cs) == 0 {
		return
	}
	keys := memoKeys(cs)
	m.mu.Lock()
	for _, k := range keys {
		m.insertLocked(k)
	}
	m.mu.Unlock()
}

// failedCheck carries the index of a failed check through par.Each.
type failedCheck struct {
	at  int
	err error
}

func (f *failedCheck) Error() string { return f.err.Error() }

// verifyEach ECDSA-checks the entries of cs that idx names, on every
// core, and returns the lowest failing one's index and error, or
// (len(cs), nil), with how many checks ran: all up to the failure, and
// perhaps some above it that a worker had already claimed.
func verifyEach(cs []Check, idx []int) (int, uint64, error) {
	var ran atomic.Uint64
	err := par.Each(len(idx), func(j int) error {
		ran.Add(1)
		c := &cs[idx[j]]
		if err := Verify(c.PK, c.Digest, c.Sig); err != nil {
			return &failedCheck{at: idx[j], err: err}
		}
		return nil
	})
	if err != nil {
		f := err.(*failedCheck)
		return f.at, ran.Load(), f.err
	}
	return len(cs), ran.Load(), nil
}

// seen reports whether k is memoised, counting a hit and promoting an
// old-generation hit. A miss is counted where its ECDSA check runs.
func (m *Memo) seen(k hashutil.Digest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seenLocked(k)
}

func (m *Memo) seenLocked(k hashutil.Digest) bool {
	_, ok := m.cur[k]
	if !ok {
		if _, ok = m.old[k]; ok {
			m.insertLocked(k)
		}
	}
	if ok {
		m.hits++
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

// Stats returns how many checks (a Verify call, or one entry of a
// VerifyAll) were answered from the memo (hits) and how many ECDSA
// checks ran (misses). Triples filed by Signed count as neither. A nil
// memo reports zeros.
func (m *Memo) Stats() (hits, misses uint64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
