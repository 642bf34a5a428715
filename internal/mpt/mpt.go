// Package mpt implements the 16-branch Merkle Patricia Trie used as
// CM-Tree1, the state layer of the clue merged tree (§IV-B of the paper),
// and, standalone, as the Ethereum-style state tree the paper compares
// against.
//
// Keys are scattered through a cryptographic hash before insertion (the
// paper uses SHA-3; this implementation uses SHA-256, the stdlib
// equivalent — see DESIGN.md §2) so the trie stays balanced regardless of
// client-chosen clue strings. Hashed keys are fixed-length, so every path
// is 64 nibbles and values live only in leaves.
//
// A branch keeps the 16-ary, path-compressed shape, but its digest is the
// root of a 4-level binary Merkle tree over its 16 child slots (the
// binary-hashed branch of EIP-3102). A proof therefore ships at most four
// sibling digests per branch, where a flat 16-child hash would need all
// sixteen.
//
// The trie is persistent (copy-on-write): Put returns a new Trie sharing
// structure with the old one, and any historical root can keep serving
// reads and proofs — which is how LedgerDB captures a "verifiable snapshot
// according to its block version".
package mpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

// Errors returned by this package.
var (
	ErrNotFound = errors.New("mpt: key not found")
	ErrBadProof = errors.New("mpt: proof verification failed")
)

// node is the interface of trie nodes. Nodes are immutable once created;
// their digests are computed at construction.
type node interface {
	digest() hashutil.Digest
}

// Hash tags. A leaf and an extension hash their encoding under their
// tag; a branch's binary levels hash tagBranch ‖ left ‖ right.
const (
	tagLeaf   = 1
	tagExt    = 2
	tagBranch = 3
)

// empty is the digest of an empty slot, and of a binary subtree holding
// no child.
var empty = hashutil.Zero

// leafNode terminates a path: suffix is the remaining nibbles of the
// hashed key ("the long-tail leaf node for residual nibbles" of Figure 6).
type leafNode struct {
	suffix []byte // one nibble per byte
	value  []byte
	dig    hashutil.Digest
}

// extNode compresses a shared nibble run above a single child.
type extNode struct {
	prefix []byte
	child  node
	dig    hashutil.Digest
}

// branchNode fans out over 16 nibble values. Its digest is the root of
// a 4-level binary tree over the 16 slots: a pair of slots, a quad of
// slots (a quadNode), a half, and the branch. The tree is stored in
// those two tiers so a Put rehashes only the four binary nodes on its
// nibble's path: the branch keeps the digests of its halves and a quad
// the digests of its pairs, so every sibling on the path is at hand.
// Each tier is one allocation that a Put replaces whole; a tier shared
// in part with later versions would keep its stale part alive, and
// through it every older version of the trie.
type branchNode struct {
	quads  [4]*quadNode // slots 4q … 4q+3; nil when all four are empty
	halves [2]hashutil.Digest
	dig    hashutil.Digest
}

// quadNode holds four consecutive slots of a branch.
type quadNode struct {
	kids  [4]node
	pairs [2]hashutil.Digest
	dig   hashutil.Digest
}

func newLeaf(suffix, value []byte) *leafNode {
	return &leafNode{suffix: suffix, value: value, dig: leafDigest(suffix, value)}
}

func newExt(prefix []byte, child node) node {
	if len(prefix) == 0 {
		return child
	}
	// Collapse nested extensions so the structure is canonical: the same
	// key set always produces the same root hash.
	if e, ok := child.(*extNode); ok {
		prefix = append(append([]byte(nil), prefix...), e.prefix...)
		child = e.child
	}
	return &extNode{prefix: prefix, child: child, dig: extDigest(prefix, child.digest())}
}

// leafDigest and extDigest hash a leaf or extension encoding through a
// pooled writer; the digest copies nothing out of it.
func leafDigest(suffix, value []byte) hashutil.Digest {
	w := wire.GetWriter()
	w.Uint8(tagLeaf)
	w.WriteBytes(suffix)
	w.WriteBytes(value)
	d := hashutil.Sum(w.Bytes())
	wire.PutWriter(w)
	return d
}

func extDigest(prefix []byte, child hashutil.Digest) hashutil.Digest {
	w := wire.GetWriter()
	w.Uint8(tagExt)
	w.WriteBytes(prefix)
	w.Digest(child)
	d := hashutil.Sum(w.Bytes())
	wire.PutWriter(w)
	return d
}

// binDigest hashes one binary level of a branch. The input has one size,
// so it is hashed out of a stack buffer.
func binDigest(left, right hashutil.Digest) hashutil.Digest {
	var b [1 + 2*hashutil.Size]byte
	b[0] = tagBranch
	copy(b[1:], left[:])
	copy(b[1+hashutil.Size:], right[:])
	return hashutil.Sum(b[:])
}

func digestOf(n node) hashutil.Digest {
	if n == nil {
		return empty
	}
	return n.digest()
}

func (n *leafNode) digest() hashutil.Digest   { return n.dig }
func (n *extNode) digest() hashutil.Digest    { return n.dig }
func (n *branchNode) digest() hashutil.Digest { return n.dig }

func quadDigest(q *quadNode) hashutil.Digest {
	if q == nil {
		return empty
	}
	return q.dig
}

// hasher counts the binary-level hashes one Put computes.
type hasher uint64

// pair is one binary node of a branch: empty when both sides are, else
// one hash.
func (h *hasher) pair(left, right hashutil.Digest) hashutil.Digest {
	if left == empty && right == empty {
		return empty
	}
	*h++
	return binDigest(left, right)
}

// slot returns the trie child in slot nib of the branch b.
func (b *branchNode) slot(nib byte) node {
	if q := b.quads[nib>>2]; q != nil {
		return q.kids[nib&3]
	}
	return nil
}

// with returns branch b with slot nib set to c, sharing every quad but
// nib's. It rehashes the four binary nodes on nib's path.
func (b *branchNode) with(nib byte, c node, h *hasher) *branchNode {
	q := new(quadNode)
	if old := b.quads[nib>>2]; old != nil {
		*q = *old
	}
	q.kids[nib&3] = c
	p := nib >> 1 & 1
	q.pairs[p] = h.pair(digestOf(q.kids[2*p]), digestOf(q.kids[2*p+1]))
	q.dig = h.pair(q.pairs[0], q.pairs[1])
	nb := &branchNode{quads: b.quads, halves: b.halves}
	nb.quads[nib>>2] = q
	half := nib >> 3
	nb.halves[half] = h.pair(quadDigest(nb.quads[2*half]), quadDigest(nb.quads[2*half+1]))
	nb.dig = h.pair(nb.halves[0], nb.halves[1])
	return nb
}

// newBranch returns the branch whose only children are ca in slot a and
// cb in slot b (a != b). It hashes the binary nodes that are not empty:
// 7−d of them, where d is the level at which the nibbles part.
func newBranch(a byte, ca node, b byte, cb node, h *hasher) *branchNode {
	br := new(branchNode)
	for _, s := range [2]struct {
		nib byte
		c   node
	}{{a, ca}, {b, cb}} {
		if br.quads[s.nib>>2] == nil {
			br.quads[s.nib>>2] = new(quadNode)
		}
		br.quads[s.nib>>2].kids[s.nib&3] = s.c
	}
	for _, q := range br.quads {
		if q != nil {
			q.pairs[0] = h.pair(digestOf(q.kids[0]), digestOf(q.kids[1]))
			q.pairs[1] = h.pair(digestOf(q.kids[2]), digestOf(q.kids[3]))
			q.dig = h.pair(q.pairs[0], q.pairs[1])
		}
	}
	br.halves[0] = h.pair(quadDigest(br.quads[0]), quadDigest(br.quads[1]))
	br.halves[1] = h.pair(quadDigest(br.quads[2]), quadDigest(br.quads[3]))
	br.dig = h.pair(br.halves[0], br.halves[1])
	return br
}

// Trie is an immutable trie snapshot. The zero value is an empty trie.
type Trie struct {
	root   node
	size   int
	hashes uint64
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Len returns the number of keys.
func (t *Trie) Len() int { return t.size }

// BranchHashes returns how many binary-level hashes the Puts that built
// this version computed, counted from the empty trie: four per branch a
// Put rewrites, and 7−d for a branch it creates (see newBranch).
func (t *Trie) BranchHashes() uint64 { return t.hashes }

// RootHash returns the trie's commitment. The empty trie has the zero
// digest.
func (t *Trie) RootHash() hashutil.Digest { return digestOf(t.root) }

// pathLen is the nibble length of every key's path.
const pathLen = 2 * hashutil.Size

// hashKey scatters a client key into the fixed-length nibble path,
// written into buf[:pathLen].
func hashKey(buf, key []byte) []byte {
	d := hashutil.Sum(key)
	for i, b := range d {
		buf[2*i] = b >> 4
		buf[2*i+1] = b & 0x0F
	}
	return buf[:pathLen:pathLen]
}

// Put returns a new trie with key bound to value (replacing any previous
// binding). The receiver is unchanged. The key's path and the copy of
// value share one allocation, as the new leaf keeps both.
func (t *Trie) Put(key, value []byte) *Trie {
	buf := make([]byte, pathLen+len(value))
	copy(buf[pathLen:], value)
	var h hasher
	root, added := put(t.root, hashKey(buf, key), buf[pathLen:], &h)
	size := t.size
	if added {
		size++
	}
	return &Trie{root: root, size: size, hashes: t.hashes + uint64(h)}
}

func put(n node, path, value []byte, h *hasher) (node, bool) {
	if n == nil {
		return newLeaf(path, value), true
	}
	switch n := n.(type) {
	case *leafNode:
		common := commonPrefix(n.suffix, path)
		if common == len(n.suffix) && common == len(path) {
			return newLeaf(path, value), false // overwrite
		}
		// Split: branch at the first divergent nibble.
		br := newBranch(n.suffix[common], newLeaf(n.suffix[common+1:], n.value),
			path[common], newLeaf(path[common+1:], value), h)
		return newExt(path[:common], br), true
	case *extNode:
		common := commonPrefix(n.prefix, path)
		if common == len(n.prefix) {
			child, added := put(n.child, path[common:], value, h)
			return newExt(n.prefix, child), added
		}
		// The extension itself splits.
		br := newBranch(n.prefix[common], newExt(n.prefix[common+1:], n.child),
			path[common], newLeaf(path[common+1:], value), h)
		return newExt(path[:common], br), true
	case *branchNode:
		child, added := put(n.slot(path[0]), path[1:], value, h)
		return n.with(path[0], child, h), added
	default:
		panic("mpt: unknown node type")
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Get returns the value bound to key.
func (t *Trie) Get(key []byte) ([]byte, error) {
	leaf, err := t.find(key, nil)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), leaf.value...), nil
}

// find walks key's path to its leaf, handing each branch and extension
// on the way, top down, to step when it is not nil.
func (t *Trie) find(key []byte, step func(n node, nib byte)) (*leafNode, error) {
	n := t.root
	path := hashKey(make([]byte, pathLen), key)
	for {
		switch v := n.(type) {
		case *leafNode:
			if bytes.Equal(v.suffix, path) {
				return v, nil
			}
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		case *extNode:
			if !bytes.HasPrefix(path, v.prefix) {
				return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
			}
			if step != nil {
				step(v, 0)
			}
			path = path[len(v.prefix):]
			n = v.child
		case *branchNode:
			if len(path) == 0 {
				return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
			}
			if step != nil {
				step(v, path[0])
			}
			n = v.slot(path[0])
			path = path[1:]
		default: // nil: an empty trie or an empty slot
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
	}
}

// Proof is a membership proof: one entry per branch or extension on the
// path from the root to the key's leaf, top down. It carries no leaf and
// no digest on the path: the verifier folds them bottom up from the key
// and the value it is asked about. An entry is one of
//
//   - a branch step: a mask byte 0x01–0x0F, then one digest per set bit.
//     Bit k stands for the sibling met at the k-th hash of the fold
//     (bit 0 at the bottom level, next to the slot); a clear bit is an
//     empty sibling subtree, which is not shipped.
//   - an extension step: the byte 0x80|n for a run of n ≥ 1 nibbles,
//     which are the key's own.
type Proof struct {
	Nodes [][]byte
}

// Proof step encoding.
const (
	stepExt  = 0x80
	maxSteps = 64 // each step consumes at least one of the key's 64 nibbles
)

// Prove produces a membership proof for key.
func (t *Trie) Prove(key []byte) (*Proof, error) {
	var buf []byte
	var ends []int
	_, err := t.find(key, func(n node, nib byte) {
		switch v := n.(type) {
		case *extNode:
			buf = append(buf, stepExt|byte(len(v.prefix)))
		case *branchNode:
			buf = v.appendStep(buf, nib)
		}
		ends = append(ends, len(buf))
	})
	if err != nil {
		return nil, err
	}
	p := &Proof{Nodes: make([][]byte, len(ends))}
	start := 0
	for i, end := range ends {
		p.Nodes[i] = buf[start:end:end]
		start = end
	}
	return p, nil
}

// appendStep appends branch b's step for nibble nib: the mask and the
// non-empty siblings, bottom level first.
func (b *branchNode) appendStep(buf []byte, nib byte) []byte {
	var sibs [4]hashutil.Digest
	if q := b.quads[nib>>2]; q != nil {
		sibs[0] = digestOf(q.kids[nib&3^1])
		sibs[1] = q.pairs[nib>>1&1^1]
	}
	sibs[2] = quadDigest(b.quads[nib>>2^1])
	sibs[3] = b.halves[nib>>3^1]
	at := len(buf)
	buf = append(buf, 0)
	for k, d := range sibs {
		if d != empty {
			buf[at] |= 1 << k
			buf = append(buf, d[:]...)
		}
	}
	return buf
}

// stepNibbles checks one proof step's shape and returns how many of the
// key's nibbles it consumes. A shipped sibling is never empty, so every
// path has one encoding.
func stepNibbles(s []byte) (int, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("%w: empty step", ErrBadProof)
	}
	if s[0]&stepExt != 0 {
		n := int(s[0] &^ stepExt)
		if n == 0 || len(s) != 1 {
			return 0, fmt.Errorf("%w: bad extension step", ErrBadProof)
		}
		return n, nil
	}
	mask := s[0]
	if mask == 0 || mask > 0x0F || len(s) != 1+bits.OnesCount8(mask)*hashutil.Size {
		return 0, fmt.Errorf("%w: bad branch step", ErrBadProof)
	}
	for at := 1; at < len(s); at += hashutil.Size {
		if hashutil.Digest(s[at:at+hashutil.Size]) == empty {
			return 0, fmt.Errorf("%w: shipped sibling is empty", ErrBadProof)
		}
	}
	return 1, nil
}

// VerifyProof checks that key is bound to value in the trie whose root
// hash is root. It is a pure function for client-side verification.
func VerifyProof(root hashutil.Digest, key, value []byte, p *Proof) error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrBadProof)
	}
	if len(p.Nodes) > maxSteps {
		return fmt.Errorf("%w: %d steps", ErrBadProof, len(p.Nodes))
	}
	path := hashKey(make([]byte, pathLen), key)
	depth := 0
	for _, s := range p.Nodes {
		n, err := stepNibbles(s)
		if err != nil {
			return err
		}
		depth += n
	}
	if depth > len(path) {
		return fmt.Errorf("%w: path of %d nibbles", ErrBadProof, depth)
	}
	d := leafDigest(path[depth:], value)
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		s := p.Nodes[i]
		if s[0]&stepExt != 0 {
			n := int(s[0] &^ stepExt)
			depth -= n
			d = extDigest(path[depth:depth+n], d)
			continue
		}
		depth--
		nib, sibs := path[depth], s[1:]
		for k := 0; k < 4; k++ {
			sib := empty
			if s[0]>>k&1 != 0 {
				sib, sibs = hashutil.Digest(sibs[:hashutil.Size]), sibs[hashutil.Size:]
			}
			if nib>>k&1 == 0 {
				d = binDigest(d, sib)
			} else {
				d = binDigest(sib, d)
			}
		}
	}
	if d != root {
		return fmt.Errorf("%w: path folds to %s, root is %s", ErrBadProof, d.Short(), root.Short())
	}
	return nil
}

// Encode appends the proof to a wire writer: the step count, then the
// steps back to back (each step's first byte gives its length).
func (p *Proof) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(p.Nodes)))
	for _, s := range p.Nodes {
		w.Raw(s)
	}
}

// DecodeProof reads a proof written by Encode. Every step is checked for
// shape, so a decoded proof is one VerifyProof can fold.
func DecodeProof(r *wire.Reader) (*Proof, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > maxSteps {
		return nil, fmt.Errorf("%w: %d steps", ErrBadProof, n)
	}
	p := &Proof{Nodes: make([][]byte, n)}
	for i := range p.Nodes {
		head := r.Uint8()
		size := 1
		if head&stepExt == 0 {
			size += bits.OnesCount8(head&0x0F) * hashutil.Size
		}
		s := make([]byte, size)
		s[0] = head
		copy(s[1:], r.Raw(size-1))
		if err := r.Err(); err != nil {
			return nil, err
		}
		if _, err := stepNibbles(s); err != nil {
			return nil, err
		}
		p.Nodes[i] = s
	}
	return p, nil
}

// Walk visits every key-value pair's value in unspecified order. It is
// used by audits that re-derive state commitments.
func (t *Trie) Walk(fn func(value []byte) error) error {
	return walk(t.root, fn)
}

func walk(n node, fn func([]byte) error) error {
	switch v := n.(type) {
	case *leafNode:
		return fn(v.value)
	case *extNode:
		return walk(v.child, fn)
	case *branchNode:
		for _, q := range v.quads {
			if q == nil {
				continue
			}
			for _, c := range q.kids {
				if err := walk(c, fn); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
