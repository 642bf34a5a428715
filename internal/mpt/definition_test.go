package mpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/merkle/shrubs"
)

// The reference trie below is built from a sorted key set in one pass,
// with no persistence and no sharing, and hashes every node straight
// from the definition:
//
//	path(key)        = the 64 nibbles of SHA-256(key), high nibble first
//	leaf(suffix, v)  = SHA-256(1 ‖ uvarint|suffix| ‖ suffix ‖ uvarint|v| ‖ v)
//	ext(run, child)  = SHA-256(2 ‖ uvarint|run| ‖ run ‖ child)
//	branch(slots)    = the root of the binary tree over the 16 slot
//	                   digests, where an empty slot is 32 zero bytes and
//	                   a pair (l, r) is zero when both are, else
//	                   SHA-256(3 ‖ l ‖ r)

func defPath(key []byte) []byte {
	d := sha256.Sum256(key)
	out := make([]byte, 0, 64)
	for _, b := range d {
		out = append(out, b>>4, b&0x0F)
	}
	return out
}

func defHash(tag byte, parts ...[]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{tag})
	for _, p := range parts {
		h.Write(p)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func uvarint(n int) []byte { return binary.AppendUvarint(nil, uint64(n)) }

func defPair(l, r [32]byte) [32]byte {
	if l == ([32]byte{}) && r == ([32]byte{}) {
		return l
	}
	return defHash(3, l[:], r[:])
}

type defEntry struct{ path, value []byte }

// defNode is a reference node: its digest, and what a proof through it
// needs.
type defNode struct {
	dig   [32]byte
	run   int           // an extension's nibble count
	child *defNode      // an extension's child
	slots *[16]*defNode // a branch's children
}

// defBuild builds the subtree of es (sorted by path, sharing path[:depth]).
func defBuild(es []defEntry, depth int) *defNode {
	if len(es) == 1 {
		s, v := es[0].path[depth:], es[0].value
		return &defNode{dig: defHash(1, uvarint(len(s)), s, uvarint(len(v)), v)}
	}
	first, last := es[0].path, es[len(es)-1].path
	run := 0
	for first[depth+run] == last[depth+run] {
		run++
	}
	br := &defNode{slots: new([16]*defNode)}
	for lo := 0; lo < len(es); {
		nib := es[lo].path[depth+run]
		hi := lo
		for hi < len(es) && es[hi].path[depth+run] == nib {
			hi++
		}
		br.slots[nib] = defBuild(es[lo:hi], depth+run+1)
		lo = hi
	}
	level := br.levels()
	br.dig = level[4][0]
	if run == 0 {
		return br
	}
	r := first[depth : depth+run]
	return &defNode{dig: defHash(2, uvarint(run), r, br.dig[:]), run: run, child: br}
}

// levels folds a branch's 16 slot digests level by level: levels()[0]
// are the slots, levels()[4][0] the branch digest.
func (n *defNode) levels() [5][][32]byte {
	var out [5][][32]byte
	for _, c := range n.slots {
		var d [32]byte
		if c != nil {
			d = c.dig
		}
		out[0] = append(out[0], d)
	}
	for k := 1; k <= 4; k++ {
		for i := 0; i < len(out[k-1]); i += 2 {
			out[k] = append(out[k], defPair(out[k-1][i], out[k-1][i+1]))
		}
	}
	return out
}

// defTrie is the reference trie of a key set.
func defTrie(kv map[string][]byte) *defNode {
	if len(kv) == 0 {
		return nil
	}
	es := make([]defEntry, 0, len(kv))
	for k, v := range kv {
		es = append(es, defEntry{defPath([]byte(k)), v})
	}
	sort.Slice(es, func(i, j int) bool { return bytes.Compare(es[i].path, es[j].path) < 0 })
	return defBuild(es, 0)
}

// defProof walks key's path in the reference trie, writing the proof's
// steps as Proof documents them.
func defProof(n *defNode, key []byte) [][]byte {
	path := defPath(key)
	var steps [][]byte
	for {
		switch {
		case n.run > 0:
			steps = append(steps, []byte{0x80 | byte(n.run)})
			path, n = path[n.run:], n.child
		case n.slots != nil:
			nib := int(path[0])
			level := n.levels()
			step := []byte{0}
			for k := 0; k < 4; k++ {
				if sib := level[k][(nib>>k)^1]; sib != ([32]byte{}) {
					step[0] |= 1 << k
					step = append(step, sib[:]...)
				}
			}
			steps = append(steps, step)
			path, n = path[1:], n.slots[nib]
		default:
			return steps
		}
	}
}

// checkAgainstDefinition requires tr to hold exactly kv, with the
// reference trie's root and, for every key, its proof.
func checkAgainstDefinition(t *testing.T, what string, tr *Trie, kv map[string][]byte) {
	t.Helper()
	ref := defTrie(kv)
	var want hashutil.Digest
	if ref != nil {
		want = ref.dig
	}
	if tr.RootHash() != want || tr.Len() != len(kv) {
		t.Fatalf("%s: root %s, %d keys; the definition gives %s, %d keys", what, tr.RootHash().Short(), tr.Len(), want.Short(), len(kv))
	}
	for k, v := range kv {
		got, err := tr.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("%s: Get(%q) = %x, %v; want %x", what, k, got, err, v)
		}
		p, err := tr.Prove([]byte(k))
		if err != nil {
			t.Fatalf("%s: Prove(%q): %v", what, k, err)
		}
		if steps := defProof(ref, []byte(k)); fmt.Sprintf("%x", p.Nodes) != fmt.Sprintf("%x", steps) {
			t.Fatalf("%s: proof of %q is %x; the definition gives %x", what, k, p.Nodes, steps)
		}
		if err := VerifyProof(want, []byte(k), v, p); err != nil {
			t.Fatalf("%s: proof of %q: %v", what, k, err)
		}
	}
}

// version is one *Trie a sequence produced, with the key set it holds.
type version struct {
	trie *Trie
	kv   map[string][]byte
}

func clone(kv map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(kv))
	for k, v := range kv {
		out[k] = v
	}
	return out
}

// TestTrieMatchesDefinition: random insert and overwrite sequences, and
// the benchmark's 1 000-clue population, give the root and the proofs of
// the reference trie at every version — checked after the sequence
// ends, so a later Put that touched a shared node would show in every
// earlier version that holds it (the ledger proves at old versions).
func TestTrieMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, keys := range []int{1, 2, 3, 17, 64, 300} {
		var versions []version
		tr, kv := New(), map[string][]byte{}
		versions = append(versions, version{tr, clone(kv)})
		for op := 0; op < 120; op++ {
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			v := make([]byte, rng.Intn(40))
			rng.Read(v)
			tr, kv[k] = tr.Put([]byte(k), v), v
			versions = append(versions, version{tr, clone(kv)})
		}
		for i, ver := range versions {
			checkAgainstDefinition(t, fmt.Sprintf("%d keys, version %d", keys, i), ver.trie, ver.kv)
		}
	}

	// The 1 000-clue population: Zipf(1.1) appends, each writing the
	// clue's new Shrubs frontier; every 4 000th version is kept.
	zipf := rand.NewZipf(rng, 1.1, 1, 999)
	accs := map[string]*shrubs.Tree{}
	tr, kv := New(), map[string][]byte{}
	var versions []version
	for jsn := 0; jsn < 20_000; jsn++ {
		c := fmt.Sprintf("c%04d", zipf.Uint64())
		if jsn < 1000 {
			c = fmt.Sprintf("c%04d", jsn) // every clue exists
		}
		if accs[c] == nil {
			accs[c] = shrubs.New()
		}
		accs[c].Append(hashutil.Leaf([]byte(fmt.Sprint(jsn))))
		v := shrubs.EncodeFrontier(accs[c].Frontier())
		tr, kv[c] = tr.Put([]byte(c), v), v
		if jsn%4000 == 999 {
			versions = append(versions, version{tr, clone(kv)})
		}
	}
	for i, ver := range versions {
		checkAgainstDefinition(t, fmt.Sprintf("1 000 clues, kept version %d", i), ver.trie, ver.kv)
	}
}
