// Package cmtree implements the two-layer Clue Merged Tree of §IV: the
// paper's native N-lineage index, plus the ccMPT baseline it replaces.
//
// CM-Tree1 is a Merkle Patricia Trie (package mpt) keyed by the hash of
// the client-chosen clue string; each leaf value is the node-set proof
// (Shrubs frontier) of that clue's own CM-Tree2 accumulator. CM-Tree2 is a
// per-clue Shrubs tree whose leaves are the digests of the clue's
// journals, in version order.
//
// Because every clue owns an independent accumulator, verifying a clue's
// lineage costs O(m) in its own entry count m and is unaffected by total
// ledger size — against ccMPT's O(m·log n), the separation Figure 9
// measures.
package cmtree

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/merkle/shrubs"
	"ledgerdb/internal/mpt"
	"ledgerdb/internal/wire"
)

// Errors returned by this package.
var (
	ErrUnknownClue = errors.New("cmtree: clue not found")
	ErrBadProof    = errors.New("cmtree: clue verification failed")
	ErrBadRange    = errors.New("cmtree: invalid version range")
)

// Entry is one journal reference under a clue: the journal's sequence
// number and its digest (the CM-Tree2 leaf).
type Entry struct {
	JSN    uint64
	Digest hashutil.Digest
}

// clueState is the per-clue CM-Tree2 accumulator plus the jsn index.
type clueState struct {
	acc  *shrubs.Tree
	jsns []uint64
}

// Tree is the clue merged tree. It is safe for concurrent use; writes are
// serialized internally (the ledger engine additionally serializes
// appends through its committer).
type Tree struct {
	mu      sync.RWMutex
	trie    *mpt.Trie
	clues   map[string]*clueState
	version uint64 // bumped when the clue NAME set changes (first insert of a name)
}

// New returns an empty CM-Tree.
func New() *Tree {
	return &Tree{trie: mpt.New(), clues: make(map[string]*clueState)}
}

// RootHash returns the CM-Tree1 root — the commitment recorded in every
// block to snapshot all clues' states.
func (t *Tree) RootHash() hashutil.Digest {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.trie.RootHash()
}

// Snapshot returns an immutable handle over the current state, pinning
// both the CM-Tree1 version and the per-clue sizes. Blocks snapshot the
// tree at commit time so proofs stay anchored to block versions.
type Snapshot struct {
	trie  *mpt.Trie
	sizes map[string]uint64
	tree  *Tree
}

// Snapshot captures the current version.
func (t *Tree) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sizes := make(map[string]uint64, len(t.clues))
	for c, s := range t.clues {
		sizes[c] = s.acc.Size()
	}
	return &Snapshot{trie: t.trie, sizes: sizes, tree: t}
}

// Trie returns the current CM-Tree1 version. The trie is persistent, so
// the pointer stays a valid snapshot of this moment forever; a caller
// that remembers the ledger size alongside it can prove clues as of then
// (SnapshotClueAt).
func (t *Tree) Trie() *mpt.Trie {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.trie
}

// SnapshotClueAt is Snapshot for a caller that will prove one clue, as
// of now or of an earlier moment: trie is the CM-Tree1 version Trie
// returned when the ledger held exactly the journals below jsn before.
// It pins that version and that clue's size then — the number of its
// versions below before, a binary search since jsns ascend — so its cost
// does not grow with the number of clues in the ledger (§IV: a clue
// proof is unaffected by total ledger size). ProveClue on it knows no
// other clue.
func (t *Tree) SnapshotClueAt(clue string, trie *mpt.Trie, before uint64) *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sizes := make(map[string]uint64, 1)
	if st, ok := t.clues[clue]; ok {
		sizes[clue] = uint64(sort.Search(len(st.jsns), func(i int) bool { return st.jsns[i] >= before }))
	}
	return &Snapshot{trie: trie, sizes: sizes, tree: t}
}

// RootHash returns the snapshot's CM-Tree1 root.
func (s *Snapshot) RootHash() hashutil.Digest { return s.trie.RootHash() }

// Insert performs the two-step CM-Tree insertion of §IV-B3: append the
// journal digest to the clue's CM-Tree2 (top-down step), then write the
// new frontier into CM-Tree1 and rehash its path (bottom-up step).
// It reports the clue's previous last jsn (existed false for a first
// insert): callers tracking liveness — the absence-tree cache — use it
// to spot a purged clue coming back to life, which changes the live
// set without changing the name-set version.
func (t *Tree) Insert(clue string, jsn uint64, digest hashutil.Digest) (prevLast uint64, existed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.clues[clue]
	if !ok {
		st = &clueState{acc: shrubs.New()}
		t.clues[clue] = st
		t.version++
	} else if n := len(st.jsns); n > 0 {
		prevLast, existed = st.jsns[n-1], true
	}
	st.acc.Append(digest)
	st.jsns = append(st.jsns, jsn)
	t.trie = t.trie.Put([]byte(clue), st.acc.EncodedFrontier())
	return prevLast, existed
}

// Count returns the number of journals recorded under a clue (zero for
// unknown clues).
func (t *Tree) Count(clue string) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st, ok := t.clues[clue]
	if !ok {
		return 0
	}
	return st.acc.Size()
}

// JSNs returns the journal sequence numbers recorded under a clue, in
// version order. It is the retrieval index behind ListTx.
func (t *Tree) JSNs(clue string) ([]uint64, error) {
	return t.JSNRange(clue, 0, 0)
}

// JSNRange is JSNs for versions [begin, end) only (end 0 = through the
// newest): a 64-version proof of a clue with thousands of versions copies
// 64 jsns, not the lineage.
func (t *Tree) JSNRange(clue string, begin, end uint64) ([]uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st, ok := t.clues[clue]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownClue, clue)
	}
	if end == 0 {
		end = uint64(len(st.jsns))
	}
	if begin >= end || end > uint64(len(st.jsns)) {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d", ErrBadRange, begin, end, len(st.jsns))
	}
	return append([]uint64(nil), st.jsns[begin:end]...), nil
}

// Names returns all clue names in sorted order.
func (t *Tree) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.clues))
	for c := range t.clues {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Version returns a counter that changes whenever the clue NAME set
// grows. Per-clue appends do not bump it, so a cached sorted-set
// commitment (AbsenceTree) keyed on the version stays valid across
// appends to existing clues and costs nothing on the hot append path.
func (t *Tree) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// LiveNames returns, sorted, the clue names whose LAST journal is at or
// above base — the pseudo-genesis point after a purge. The CM-Tree
// itself retains purged clues (the pseudo-genesis snapshot re-seeds the
// full index so historical clue proofs stay anchored), so the absence
// commitment must filter to the live set: a clue whose every journal
// was purged is absent for query purposes. Per-clue jsn lists are
// appended in increasing order, so liveness is a single tail check.
func (t *Tree) LiveNames(base uint64) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.clues))
	for c, st := range t.clues {
		if n := len(st.jsns); n > 0 && st.jsns[n-1] >= base {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Clues returns the number of distinct clues.
func (t *Tree) Clues() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.clues)
}

// VerifyServer is the server-side clue verification (§IV-C, steps 1-3 and
// 6 executed locally): recompute the frontier from the provided journal
// digests and compare it to the one committed in CM-Tree1. digests must
// be the clue's complete lineage in version order.
func (t *Tree) VerifyServer(clue string, digests []hashutil.Digest) error {
	t.mu.RLock()
	value, err := t.trie.Get([]byte(clue))
	t.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("%w: %q", ErrUnknownClue, clue)
	}
	want, err := shrubs.DecodeFrontier(value)
	if err != nil {
		return err
	}
	got := shrubs.RecomputeFrontier(digests)
	if len(got) != len(want) {
		return fmt.Errorf("%w: %q: lineage has %d frontier entries, committed %d (entry count mismatch)",
			ErrBadProof, clue, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: %q: frontier entry %d mismatch", ErrBadProof, clue, i)
		}
	}
	return nil
}

// ClueProof is the client-side proof bundle for a whole-clue or ranged
// verification: the CM-Tree1 path for the clue leaf, the committed
// frontier, and (for ranges) the interior CM-Tree2 cells of step 3.
type ClueProof struct {
	Clue     string
	Size     uint64 // CM-Tree2 size at proof time
	Begin    uint64 // verified version range [Begin, End)
	End      uint64
	Frontier []hashutil.Digest // committed CM-Tree2 node-set proof
	Cells    []shrubs.CellRef  // N = N2 − (N2 ∩ N3), empty for whole-clue
	MPT      *mpt.Proof        // CM-Tree1 path; VerifyClue rebuilds the leaf from Clue and Frontier
}

// ProveClue builds the proof bundle for versions [begin, end) of a clue
// (steps 1-5 of the client-side algorithm). Pass begin=0, end=Count for
// the whole lineage.
func (s *Snapshot) ProveClue(clue string, begin, end uint64) (*ClueProof, error) {
	s.tree.mu.RLock()
	defer s.tree.mu.RUnlock()
	st, ok := s.tree.clues[clue]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownClue, clue)
	}
	size, ok := s.sizes[clue]
	if !ok {
		return nil, fmt.Errorf("%w: %q (not in snapshot)", ErrUnknownClue, clue)
	}
	if begin >= end || end > size {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrBadRange, begin, end, size)
	}
	value, err := s.trie.Get([]byte(clue))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownClue, clue)
	}
	frontier, err := shrubs.DecodeFrontier(value)
	if err != nil {
		return nil, err
	}
	mptProof, err := s.trie.Prove([]byte(clue))
	if err != nil {
		return nil, err
	}
	p := &ClueProof{
		Clue: clue, Size: size, Begin: begin, End: end,
		Frontier: frontier, MPT: mptProof,
	}
	if begin != 0 || end != size {
		// The snapshot's size may trail the live accumulator; the cells
		// of the snapshot-sized frontier are append-stable, so reading
		// them from the live tree is sound.
		cells, err := st.acc.RangeProofCells(size, begin, end)
		if err != nil {
			return nil, err
		}
		p.Cells = cells
	}
	return p, nil
}

// VerifyClue is the client-side validation (step 6): given the journal
// digests the client retrieved for [Begin, End), check them against the
// CM-Tree2 frontier, then check the frontier's commitment in CM-Tree1
// against root — the trusted datum from a block header or receipt.
func VerifyClue(root hashutil.Digest, p *ClueProof, digests []hashutil.Digest) error {
	if p == nil || p.MPT == nil {
		return fmt.Errorf("%w: nil proof", ErrBadProof)
	}
	if uint64(len(digests)) != p.End-p.Begin {
		return fmt.Errorf("%w: %d digests for range [%d,%d)", ErrBadProof, len(digests), p.Begin, p.End)
	}
	// Layer 2 first: the retrieved journals and the cells must fold to
	// the committed frontier — a whole clue is the same fold with no
	// cells.
	if len(p.Frontier) == 0 {
		return fmt.Errorf("%w: empty committed frontier", ErrBadProof)
	}
	if err := shrubs.VerifyRange(p.Size, p.Begin, p.End, digests, p.Cells, shrubs.BagFrontier(p.Frontier)); err != nil {
		return fmt.Errorf("%w: lineage: %v", ErrBadProof, err)
	}
	// Layer 1: the frontier must be the value committed for this clue in
	// the CM-Tree1 whose root the verifier trusts.
	value := shrubs.EncodeFrontier(p.Frontier)
	if err := mpt.VerifyProof(root, []byte(p.Clue), value, p.MPT); err != nil {
		return fmt.Errorf("%w: CM-Tree1: %v", ErrBadProof, err)
	}
	return nil
}

// Encode appends the clue proof to a wire writer.
func (p *ClueProof) Encode(w *wire.Writer) {
	w.String(p.Clue)
	w.Uvarint(p.Size)
	w.Uvarint(p.Begin)
	w.Uvarint(p.End)
	w.Uvarint(uint64(len(p.Frontier)))
	for _, d := range p.Frontier {
		w.Digest(d)
	}
	shrubs.EncodeCells(w, p.Cells)
	p.MPT.Encode(w)
}

// DecodeClueProof reads a clue proof from a wire reader.
func DecodeClueProof(r *wire.Reader) (*ClueProof, error) {
	p := &ClueProof{
		Clue:  r.String(),
		Size:  r.Uvarint(),
		Begin: r.Uvarint(),
		End:   r.Uvarint(),
	}
	nf := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nf > 64 {
		return nil, fmt.Errorf("%w: %d frontier entries", ErrBadProof, nf)
	}
	for i := uint64(0); i < nf; i++ {
		p.Frontier = append(p.Frontier, r.Digest())
	}
	cells, err := shrubs.DecodeCells(r)
	if err != nil {
		return nil, err
	}
	p.Cells = cells
	if p.MPT, err = mpt.DecodeProof(r); err != nil {
		return nil, err
	}
	return p, nil
}
