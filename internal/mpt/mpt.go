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
// The trie is persistent (copy-on-write): Put returns a new Trie sharing
// structure with the old one, and any historical root can keep serving
// reads and proofs — which is how LedgerDB captures a "verifiable snapshot
// according to its block version".
package mpt

import (
	"bytes"
	"errors"
	"fmt"

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
	encode(w *wire.Writer)
}

// Node encoding tags.
const (
	tagLeaf   = 1
	tagExt    = 2
	tagBranch = 3
)

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

// branchNode fans out over 16 nibble values.
type branchNode struct {
	children [16]node
	dig      hashutil.Digest
}

func newLeaf(suffix, value []byte) *leafNode {
	n := &leafNode{suffix: suffix, value: value}
	n.dig = encodeDigest(n)
	return n
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
	n := &extNode{prefix: prefix, child: child}
	n.dig = encodeDigest(n)
	return n
}

func newBranch(children [16]node) *branchNode {
	n := &branchNode{children: children}
	// A branch encoding has one size, so it is hashed out of a stack
	// buffer: every Put rebuilds a branch per trie level.
	enc := n.encoding()
	n.dig = hashutil.Sum(enc[:])
	return n
}

// encodeDigest hashes a leaf or extension through a pooled writer; the
// digest copies nothing out of it.
func encodeDigest(n node) hashutil.Digest {
	w := wire.GetWriter()
	n.encode(w)
	d := hashutil.Sum(w.Bytes())
	wire.PutWriter(w)
	return d
}

func (n *leafNode) digest() hashutil.Digest   { return n.dig }
func (n *extNode) digest() hashutil.Digest    { return n.dig }
func (n *branchNode) digest() hashutil.Digest { return n.dig }

func (n *leafNode) encode(w *wire.Writer) {
	w.Uint8(tagLeaf)
	w.WriteBytes(n.suffix)
	w.WriteBytes(n.value)
}

func (n *extNode) encode(w *wire.Writer) {
	w.Uint8(tagExt)
	w.WriteBytes(n.prefix)
	w.Digest(n.child.digest())
}

func (n *branchNode) encode(w *wire.Writer) {
	enc := n.encoding()
	w.Raw(enc[:])
}

// encoding is the branch's wire form: the tag, then the 16 child digests
// (zero for an empty slot).
func (n *branchNode) encoding() (enc [1 + 16*hashutil.Size]byte) {
	enc[0] = tagBranch
	for i, c := range n.children {
		if c != nil {
			d := c.digest()
			copy(enc[1+i*hashutil.Size:], d[:])
		}
	}
	return enc
}

// Trie is an immutable trie snapshot. The zero value is an empty trie.
type Trie struct {
	root node
	size int
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Len returns the number of keys.
func (t *Trie) Len() int { return t.size }

// RootHash returns the trie's commitment. The empty trie has the zero
// digest.
func (t *Trie) RootHash() hashutil.Digest {
	if t.root == nil {
		return hashutil.Zero
	}
	return t.root.digest()
}

// hashKey scatters a client key into the fixed-length nibble path.
func hashKey(key []byte) []byte {
	d := hashutil.Sum(key)
	nibs := make([]byte, 2*len(d))
	for i, b := range d {
		nibs[2*i] = b >> 4
		nibs[2*i+1] = b & 0x0F
	}
	return nibs
}

// Put returns a new trie with key bound to value (replacing any previous
// binding). The receiver is unchanged.
func (t *Trie) Put(key, value []byte) *Trie {
	v := append([]byte(nil), value...)
	root, added := put(t.root, hashKey(key), v)
	size := t.size
	if added {
		size++
	}
	return &Trie{root: root, size: size}
}

func put(n node, path, value []byte) (node, bool) {
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
		var children [16]node
		children[n.suffix[common]] = newLeaf(n.suffix[common+1:], n.value)
		children[path[common]] = newLeaf(path[common+1:], value)
		return newExt(path[:common], newBranch(children)), true
	case *extNode:
		common := commonPrefix(n.prefix, path)
		if common == len(n.prefix) {
			child, added := put(n.child, path[common:], value)
			return newExt(n.prefix, child), added
		}
		// The extension itself splits.
		var children [16]node
		children[n.prefix[common]] = newExt(n.prefix[common+1:], n.child)
		children[path[common]] = newLeaf(path[common+1:], value)
		return newExt(path[:common], newBranch(children)), true
	case *branchNode:
		children := n.children
		child, added := put(children[path[0]], path[1:], value)
		children[path[0]] = child
		return newBranch(children), added
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
	n := t.root
	path := hashKey(key)
	for {
		switch v := n.(type) {
		case nil:
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		case *leafNode:
			if bytes.Equal(v.suffix, path) {
				return append([]byte(nil), v.value...), nil
			}
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		case *extNode:
			if len(path) < len(v.prefix) || !bytes.Equal(path[:len(v.prefix)], v.prefix) {
				return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
			}
			path = path[len(v.prefix):]
			n = v.child
		case *branchNode:
			if len(path) == 0 {
				return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
			}
			n = v.children[path[0]]
			path = path[1:]
		}
	}
}

// Proof is a membership proof: the encoded nodes on the path from the
// root to the key's leaf. The verifier re-hashes each node and follows
// the key's nibbles, so any splice or substitution is detected.
type Proof struct {
	Nodes [][]byte
}

// Prove produces a membership proof for key.
func (t *Trie) Prove(key []byte) (*Proof, error) {
	if _, err := t.Get(key); err != nil {
		return nil, err
	}
	p := &Proof{}
	n := t.root
	path := hashKey(key)
	for n != nil {
		w := wire.NewWriter(64)
		n.encode(w)
		p.Nodes = append(p.Nodes, append([]byte(nil), w.Bytes()...))
		switch v := n.(type) {
		case *leafNode:
			return p, nil
		case *extNode:
			path = path[len(v.prefix):]
			n = v.child
		case *branchNode:
			n = v.children[path[0]]
			path = path[1:]
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
}

// VerifyProof checks that key is bound to value in the trie whose root
// hash is root. It is a pure function for client-side verification.
func VerifyProof(root hashutil.Digest, key, value []byte, p *Proof) error {
	if p == nil || len(p.Nodes) == 0 {
		return fmt.Errorf("%w: empty proof", ErrBadProof)
	}
	path := hashKey(key)
	want := root
	for i, enc := range p.Nodes {
		if hashutil.Sum(enc) != want {
			return fmt.Errorf("%w: node %d hash mismatch", ErrBadProof, i)
		}
		r := wire.NewReader(enc)
		switch tag := r.Uint8(); tag {
		case tagLeaf:
			suffix := r.ReadBytes()
			val := r.ReadBytes()
			if err := r.Finish(); err != nil {
				return fmt.Errorf("%w: node %d: %v", ErrBadProof, i, err)
			}
			if !bytes.Equal(suffix, path) {
				return fmt.Errorf("%w: leaf suffix does not match key", ErrBadProof)
			}
			if !bytes.Equal(val, value) {
				return fmt.Errorf("%w: leaf value mismatch", ErrBadProof)
			}
			if i != len(p.Nodes)-1 {
				return fmt.Errorf("%w: leaf before end of proof", ErrBadProof)
			}
			return nil
		case tagExt:
			prefix := r.ReadBytes()
			child := r.Digest()
			if err := r.Finish(); err != nil {
				return fmt.Errorf("%w: node %d: %v", ErrBadProof, i, err)
			}
			if len(path) < len(prefix) || !bytes.Equal(path[:len(prefix)], prefix) {
				return fmt.Errorf("%w: extension prefix diverges from key", ErrBadProof)
			}
			path = path[len(prefix):]
			want = child
		case tagBranch:
			var children [16]hashutil.Digest
			for j := range children {
				children[j] = r.Digest()
			}
			if err := r.Finish(); err != nil {
				return fmt.Errorf("%w: node %d: %v", ErrBadProof, i, err)
			}
			if len(path) == 0 {
				return fmt.Errorf("%w: key exhausted at branch", ErrBadProof)
			}
			want = children[path[0]]
			if want.IsZero() {
				return fmt.Errorf("%w: branch has no child for nibble %d", ErrBadProof, path[0])
			}
			path = path[1:]
		default:
			return fmt.Errorf("%w: unknown node tag %d", ErrBadProof, tag)
		}
	}
	return fmt.Errorf("%w: proof ended before a leaf", ErrBadProof)
}

// Walk visits every key-value pair's value in unspecified order. It is
// used by audits that re-derive state commitments.
func (t *Trie) Walk(fn func(value []byte) error) error {
	return walk(t.root, fn)
}

func walk(n node, fn func([]byte) error) error {
	switch v := n.(type) {
	case nil:
		return nil
	case *leafNode:
		return fn(v.value)
	case *extNode:
		return walk(v.child, fn)
	case *branchNode:
		for _, c := range v.children {
			if c != nil {
				if err := walk(c, fn); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return nil
}
