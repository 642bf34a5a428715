package sig

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"ledgerdb/internal/hashutil"
)

// triple is one (key, digest, signature) input to Verify.
type triple struct {
	pk PublicKey
	d  hashutil.Digest
	sg Signature
}

func signedTriple(seed, msg string) triple {
	kp := GenerateDeterministic(seed)
	d := hashutil.Sum([]byte(msg))
	return triple{kp.Public(), d, kp.MustSign(d)}
}

func (tr triple) verify(m *Memo) error { return m.Verify(tr.pk, tr.d, tr.sg) }

func TestMemoNilVerifiesFromScratch(t *testing.T) {
	good := signedTriple("memo-nil", "m")
	bad := good
	bad.sg[5] ^= 1
	var m *Memo
	if err := good.verify(m); err != nil {
		t.Fatalf("nil memo rejected a valid signature: %v", err)
	}
	if err := bad.verify(m); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("nil memo on a bad signature: %v", err)
	}
	if h, ms := m.Stats(); h != 0 || ms != 0 {
		t.Fatalf("nil memo stats = %d/%d", h, ms)
	}
}

// TestMemoNeverStoresFailures: a triple that fails keeps failing and
// keeps running ECDSA, before and after its valid sibling is memoised.
func TestMemoNeverStoresFailures(t *testing.T) {
	good := signedTriple("memo-fail", "m")
	bad := good
	bad.sg[40] ^= 0x80
	m := new(Memo)
	for i := 0; i < 3; i++ {
		if err := bad.verify(m); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("round %d: bad triple: %v", i, err)
		}
	}
	if h, ms := m.Stats(); h != 0 || ms != 3 {
		t.Fatalf("after 3 bad verifies: hits %d misses %d, want 0/3", h, ms)
	}
	if len(m.cur)+len(m.old) != 0 {
		t.Fatal("a failed verification was stored")
	}
	if err := good.verify(m); err != nil {
		t.Fatal(err)
	}
	if err := good.verify(m); err != nil {
		t.Fatal(err)
	}
	if h, ms := m.Stats(); h != 1 || ms != 4 {
		t.Fatalf("good twice: hits %d misses %d, want 1/4", h, ms)
	}
	if err := bad.verify(m); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("bad triple after its sibling was memoised: %v", err)
	}
	if h, _ := m.Stats(); h != 1 {
		t.Fatalf("bad triple hit the memo (hits %d)", h)
	}
}

// TestMemoKeyCoversWholeTriple: with (pk, d, sg) memoised, changing any
// one component — to another valid value or by any single bit — never
// hits.
func TestMemoKeyCoversWholeTriple(t *testing.T) {
	base := signedTriple("memo-key", "m")
	m := new(Memo)
	if err := base.verify(m); err != nil {
		t.Fatal(err)
	}
	mustMiss := func(name string, tr triple) {
		t.Helper()
		h0, ms0 := m.Stats()
		err := tr.verify(m)
		h1, ms1 := m.Stats()
		if h1 != h0 || ms1 != ms0+1 {
			t.Fatalf("%s: hits %d→%d misses %d→%d; want a miss", name, h0, h1, ms0, ms1)
		}
		if err == nil {
			t.Fatalf("%s: verified", name)
		}
	}
	other := signedTriple("memo-key-other", "other")
	mustMiss("other key", triple{other.pk, base.d, base.sg})
	mustMiss("other digest", triple{base.pk, other.d, base.sg})
	mustMiss("other signature", triple{base.pk, base.d, other.sg})
	for bit := 0; bit < 8*len(base.pk); bit++ {
		tr := base
		tr.pk[bit/8] ^= 1 << (bit % 8)
		mustMiss("key bit", tr)
	}
	for bit := 0; bit < 8*len(base.d); bit++ {
		tr := base
		tr.d[bit/8] ^= 1 << (bit % 8)
		mustMiss("digest bit", tr)
	}
	for bit := 0; bit < 8*len(base.sg); bit++ {
		tr := base
		tr.sg[bit/8] ^= 1 << (bit % 8)
		mustMiss("signature bit", tr)
	}
	if err := base.verify(m); err != nil {
		t.Fatal(err)
	}
	if h, _ := m.Stats(); h != 1 {
		t.Fatalf("the memoised triple itself: hits %d, want 1", h)
	}
}

func syntheticKey(i int) hashutil.Digest {
	var k hashutil.Digest
	binary.BigEndian.PutUint64(k[:], uint64(i))
	return k
}

// TestMemoBoundedAndPromotes drives the eviction directly (48 Ki real
// signatures would only slow the same check down): the entry count
// never passes two generations, a key looked up at least once per
// generation survives any number of rotations, and an idle one ages out.
func TestMemoBoundedAndPromotes(t *testing.T) {
	m := new(Memo)
	hot, idle := syntheticKey(-1), syntheticKey(-2)
	m.insertLocked(hot)
	m.insertLocked(idle)
	for i := 0; i < 3*2*memoGen; i++ {
		m.insertLocked(syntheticKey(i))
		if n := len(m.cur) + len(m.old); n > 2*memoGen {
			t.Fatalf("after %d inserts the memo holds %d entries, bound %d", i+1, n, 2*memoGen)
		}
		if i%(memoGen/2) == 0 && !m.seen(hot) {
			t.Fatalf("hot key evicted after %d inserts", i+1)
		}
	}
	if m.seen(idle) {
		t.Fatal("idle key survived six generations")
	}
}

// TestMemoConcurrent hammers one memo from many goroutines with a mix
// of valid and invalid triples; run under -race. Every verdict must
// equal the from-scratch verdict.
func TestMemoConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 40
	var triples []triple
	for i := 0; i < 6; i++ {
		tr := signedTriple("memo-conc", string(rune('a'+i)))
		if i%3 == 2 {
			tr.sg[7] ^= 1
		}
		triples = append(triples, tr)
	}
	m := new(Memo)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(triples)
				got, want := triples[i].verify(m) == nil, i%3 != 2
				if got != want {
					t.Errorf("triple %d: memo verdict %t, want %t", i, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if h, ms := m.Stats(); h+ms != goroutines*rounds {
		t.Fatalf("hits %d + misses %d != %d lookups", h, ms, goroutines*rounds)
	}
}
