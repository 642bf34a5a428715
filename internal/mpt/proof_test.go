package mpt

import (
	"fmt"
	"math/bits"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

// clueTrie holds the 1 000 clue names c0000–c0999 of the benchmark's
// population, each bound to a value of its own.
func clueTrie() *Trie {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr = tr.Put([]byte(fmt.Sprintf("c%04d", i)), []byte(fmt.Sprintf("frontier-%d", i)))
	}
	return tr
}

// extKey returns a key of clueTrie whose path holds an extension step
// and a branch step with both a set and a clear mask bit.
func extKey(t testing.TB, tr *Trie) (key []byte, p *Proof) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		key = []byte(fmt.Sprintf("c%04d", i))
		p, err := tr.Prove(key)
		if err != nil {
			t.Fatal(err)
		}
		var ext, partial bool
		for _, s := range p.Nodes {
			ext = ext || s[0]&stepExt != 0
			partial = partial || (s[0]&stepExt == 0 && s[0] != 0x0F)
		}
		if ext && partial {
			return key, p
		}
	}
	t.Fatal("no clue path has an extension and a partial branch")
	return nil, nil
}

func encodeProof(p *Proof) []byte {
	w := wire.NewWriter(512)
	p.Encode(w)
	return w.Bytes()
}

// decodeVerify is what a client does with a shipped path: decode it
// (nothing may trail) and fold it to the root.
func decodeVerify(root hashutil.Digest, key, value, enc []byte) error {
	r := wire.NewReader(enc)
	p, err := DecodeProof(r)
	if err != nil {
		return err
	}
	if err := r.Finish(); err != nil {
		return err
	}
	return VerifyProof(root, key, value, p)
}

// TestProofMutationSoundness: every single-byte flip, every truncation
// and every one-byte insertion of an encoded path is refused, as are a
// wrong key, a wrong value, a sibling moved to another level, a flipped
// mask bit and steps dropped or swapped.
func TestProofMutationSoundness(t *testing.T) {
	tr := clueTrie()
	root := tr.RootHash()
	key, p := extKey(t, tr)
	value, _ := tr.Get(key)
	enc := encodeProof(p)
	if err := decodeVerify(root, key, value, enc); err != nil {
		t.Fatal(err)
	}
	refuse := func(what string, key, value, enc []byte) {
		t.Helper()
		if err := decodeVerify(root, key, value, enc); err == nil {
			t.Fatalf("%s accepted", what)
		}
	}
	mut := make([]byte, len(enc))
	for i := range enc {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			copy(mut, enc)
			mut[i] ^= mask
			refuse(fmt.Sprintf("byte %d ^ %#02x", i, mask), key, value, mut)
		}
		refuse(fmt.Sprintf("truncation to %d bytes", i), key, value, enc[:i])
	}
	for i := 0; i <= len(enc); i++ {
		for _, b := range []byte{0x00, 0x01, 0x81, 0xFF} {
			ext := append(append(append([]byte(nil), enc[:i]...), b), enc[i:]...)
			refuse(fmt.Sprintf("byte %#02x inserted at %d", b, i), key, value, ext)
		}
	}

	refuse("another clue's key", []byte("c1000"), value, enc)
	refuse("a wrong value", key, []byte("frontier-x"), enc)
	refuse("an empty value", key, nil, enc)

	steps := func(edit func(nodes [][]byte) [][]byte) []byte {
		nodes := make([][]byte, len(p.Nodes))
		for i, s := range p.Nodes {
			nodes[i] = append([]byte(nil), s...)
		}
		return encodeProof(&Proof{Nodes: edit(nodes)})
	}
	for i, s := range p.Nodes {
		if s[0]&stepExt != 0 {
			refuse(fmt.Sprintf("extension %d dropped", i), key, value, steps(func(n [][]byte) [][]byte {
				return append(n[:i], n[i+1:]...)
			}))
			for _, run := range []byte{1, 2, 3} {
				if run != s[0]&^stepExt {
					refuse(fmt.Sprintf("extension %d of %d nibbles", i, run), key, value, steps(func(n [][]byte) [][]byte {
						n[i][0] = stepExt | run
						return n
					}))
				}
			}
			continue
		}
		mask := s[0]
		for k := 0; k < 4; k++ {
			// A flipped mask bit, with the step's length kept right: a
			// shipped sibling dropped, or one made up.
			refuse(fmt.Sprintf("branch %d, mask bit %d flipped", i, k), key, value, steps(func(n [][]byte) [][]byte {
				at := 1 + bits.OnesCount8(mask&(1<<k-1))*hashutil.Size
				if mask>>k&1 != 0 {
					n[i] = append(n[i][:at], n[i][at+hashutil.Size:]...)
				} else {
					made := hashutil.Leaf([]byte("made up"))
					n[i] = append(n[i][:at], append(made[:], n[i][at:]...)...)
				}
				n[i][0] ^= 1 << k
				return n
			}))
			// An empty sibling shipped: the same fold, a second encoding.
			if mask>>k&1 == 0 {
				refuse(fmt.Sprintf("branch %d, empty sibling shipped at level %d", i, k), key, value, steps(func(n [][]byte) [][]byte {
					at := 1 + bits.OnesCount8(mask&(1<<k-1))*hashutil.Size
					n[i] = append(n[i][:at], append(make([]byte, hashutil.Size), n[i][at:]...)...)
					n[i][0] |= 1 << k
					return n
				}))
			}
			// A sibling moved to another level: the digest order and the
			// count stay, the level it is folded at changes.
			for j := 0; j < 4; j++ {
				if mask>>k&1 != 0 && mask>>j&1 == 0 {
					refuse(fmt.Sprintf("branch %d, sibling moved from level %d to %d", i, k, j), key, value, steps(func(n [][]byte) [][]byte {
						n[i][0] ^= 1<<k | 1<<j
						return n
					}))
				}
			}
		}
		if i+1 < len(p.Nodes) {
			refuse(fmt.Sprintf("steps %d and %d swapped", i, i+1), key, value, steps(func(n [][]byte) [][]byte {
				n[i], n[i+1] = n[i+1], n[i]
				return n
			}))
		}
	}
}

// FuzzDecodeProof: the path decoder never panics, a proof it accepts
// survives an encode and decode unchanged, and folding one never panics.
func FuzzDecodeProof(f *testing.F) {
	tr := clueTrie()
	key, p := extKey(f, tr)
	f.Add(encodeProof(p))
	for _, k := range []string{"c0000", "c0500", "c0999"} {
		p, err := tr.Prove([]byte(k))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeProof(p))
	}
	f.Add([]byte{1, 0x80 | 63})
	f.Add([]byte{2, 0x0F})
	root := tr.RootHash()
	f.Fuzz(func(t *testing.T, b []byte) {
		r := wire.NewReader(b)
		p, err := DecodeProof(r)
		if err != nil {
			return
		}
		again, err := DecodeProof(wire.NewReader(encodeProof(p)))
		if err != nil || fmt.Sprintf("%x", again.Nodes) != fmt.Sprintf("%x", p.Nodes) {
			t.Fatalf("decoded %x from %x; its encoding decodes to %v, %v", p.Nodes, b, again, err)
		}
		_ = VerifyProof(root, key, []byte("v"), p)
	})
}
