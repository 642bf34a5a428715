package ledger

import (
	"sync"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/mpt"
	"ledgerdb/internal/sig"
)

// stateCache holds the newest SignedState the LSP has signed, next to
// CM-Tree1 as it stood at that state. It is what lets a read skip the
// signature: fam proves any record below st.JSN against st's root
// (ProveBatchAt), and the remembered trie proves clue versions below it,
// so a proof is built at st whenever st covers the request
// (provingStateLocked) and a burst of reads between — or shortly after —
// commits shares ONE signature. Purge, occult and reorganize change what a proof may say
// without moving the frontier, so they drop the state. The cache has its
// own mutex (acquired after l.mu in lock order, never the reverse),
// which doubles as a single-flight gate: concurrent misses serialize on
// it, the first signs, the rest take the freshly stored state.
type stateCache struct {
	mu             sync.Mutex
	st             *SignedState    // nil until the first sign and after a drop
	dig            hashutil.Digest // st.Digest(), computed when st was signed
	clues          *mpt.Trie       // CM-Tree1 as of st
	signed, reused uint64
}

// covering returns the held state when it covers jsn last and trails
// frontier (the ledger size) by less than bound journals.
func (c *stateCache) covering(last, frontier, bound uint64) (*SignedState, *mpt.Trie) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st == nil || last >= c.st.JSN || frontier-c.st.JSN >= bound {
		return nil, nil
	}
	c.reused++
	return c.st, c.clues
}

// drop forgets the held state. Called under l.mu (write).
func (c *stateCache) drop() {
	c.mu.Lock()
	c.st, c.clues = nil, nil
	c.mu.Unlock()
}

// signAndStore signs skel — a frontier state, clues its CM-Tree1 —
// unless a racing caller already stored a state at that frontier. skel
// is taken by value: the held state is immutable once published.
func (c *stateCache) signAndStore(skel SignedState, clues *mpt.Trie, lsp *sig.KeyPair) (*SignedState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st != nil && c.st.JSN == skel.JSN {
		c.reused++
		return c.st, nil
	}
	dig, err := skel.sign(lsp)
	if err != nil {
		return nil, err
	}
	c.signed++
	c.st, c.dig, c.clues = &skel, dig, clues
	return c.st, nil
}

// digestOf is st.Digest(), from the held state's when st is it (a
// follower's checkpoint, or a state dropped since, is hashed again).
func (c *stateCache) digestOf(st *SignedState) hashutil.Digest {
	c.mu.Lock()
	held, dig := c.st == st, c.dig
	c.mu.Unlock()
	if held {
		return dig
	}
	return st.Digest()
}

// clueSetCache memoizes the sorted clue-set (absence) commitment. Key
// is (clue name-set version, purge base), NOT stateGen: the committed
// name set only changes when a brand-new clue appears or a purge moves
// the pseudo-genesis, so the O(clues) rebuild is amortized across every
// append to existing clues. The one transition that key misses is a
// RESURRECTION — a clue whose whole lineage was purged (last jsn below
// base) receiving a fresh append: no new name, same base, but the live
// set grows. The apply path detects it from Insert's previous-last-jsn
// and calls invalidate. Like stateCache, it has its own mutex (after
// l.mu in lock order) doubling as a single-flight gate — safe to
// consult from stateLocked under a read lock, where ledger fields may
// not be mutated. Callers hold l.mu, so (version, base) cannot move
// between the key read and the rebuild.
type clueSetCache struct {
	mu      sync.Mutex
	version uint64
	base    uint64
	tree    *cmtree.AbsenceTree
}

// invalidate drops the cached commitment; the next get rebuilds from
// the current live set. Called under l.mu (write) when a purged clue
// comes back to life.
func (c *clueSetCache) invalidate() {
	c.mu.Lock()
	c.tree = nil
	c.mu.Unlock()
}

// get returns the commitment for the tree's current name set filtered
// to jsns at or above base, rebuilding on key change.
func (c *clueSetCache) get(t *cmtree.Tree, base uint64) *cmtree.AbsenceTree {
	version := t.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tree != nil && c.version == version && c.base == base {
		return c.tree
	}
	tree := cmtree.BuildAbsenceTree(t.LiveNames(base))
	c.version, c.base, c.tree = version, base, tree
	return tree
}
