// Package sig implements the digital-signature layer behind LedgerDB's
// non-repudiation (who) factor: ECDSA P-256 key pairs, detached signatures
// over digests, and the multi-signature sets required by the purge and
// occult mutation prerequisites (§III-A2, §III-A3 of the paper).
//
// The threat model (§II-B) assumes ECDSA and SHA-256 are sound and that
// every participant's public key is certified by a CA; package ca layers
// that certification on top of the raw keys defined here.
package sig

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/wire"
)

// Errors returned by this package.
var (
	ErrBadSignature = errors.New("sig: signature verification failed")
	ErrBadKey       = errors.New("sig: malformed key encoding")
)

var curve = elliptic.P256()

// coordLen is the byte length of one curve coordinate (32 for P-256).
const coordLen = 32

// PublicKey is a compact, comparable encoding of an ECDSA P-256 public
// key: the X and Y coordinates, big-endian, zero-padded. Being an array it
// can key maps, which the ledger's member registry relies on.
type PublicKey [2 * coordLen]byte

// IsZero reports whether the key is unset.
func (pk PublicKey) IsZero() bool { return pk == PublicKey{} }

// Fingerprint returns the SHA-256 digest of the encoded key; it is the
// stable member identifier used in journals and multisig sets.
func (pk PublicKey) Fingerprint() hashutil.Digest { return hashutil.Sum(pk[:]) }

// String returns a short hex fingerprint for logs.
func (pk PublicKey) String() string { return pk.Fingerprint().Short() }

// Hex returns the full hex encoding, for transport in config and CLIs.
func (pk PublicKey) Hex() string { return hex.EncodeToString(pk[:]) }

// ParsePublicKey decodes a full hex public key.
func ParsePublicKey(s string) (PublicKey, error) {
	var pk PublicKey
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(pk) {
		return pk, fmt.Errorf("%w: want %d hex bytes", ErrBadKey, len(pk))
	}
	copy(pk[:], b)
	return pk, nil
}

func (pk PublicKey) toECDSA() (*ecdsa.PublicKey, error) {
	x := new(big.Int).SetBytes(pk[:coordLen])
	y := new(big.Int).SetBytes(pk[coordLen:])
	if !curve.IsOnCurve(x, y) {
		return nil, fmt.Errorf("%w: point not on curve", ErrBadKey)
	}
	return &ecdsa.PublicKey{Curve: curve, X: x, Y: y}, nil
}

// Signature is a detached ECDSA signature (r ‖ s, each 32 bytes,
// big-endian, zero-padded).
type Signature [2 * coordLen]byte

// IsZero reports whether the signature is unset.
func (s Signature) IsZero() bool { return s == Signature{} }

// KeyPair holds a private key and its compact public encoding.
type KeyPair struct {
	pub  PublicKey
	priv *ecdsa.PrivateKey
}

// Generate creates a fresh P-256 key pair from crypto/rand.
func Generate() (*KeyPair, error) { return generateFrom(rand.Reader) }

// GenerateDeterministic derives a key pair from a seed string. It exists
// for tests and benchmarks that need stable identities across runs; it
// must never be used for production keys.
//
// It builds the private scalar directly from a hash chain over the seed:
// ecdsa.GenerateKey cannot be used here because the standard library
// deliberately randomizes how it consumes a caller-supplied reader.
func GenerateDeterministic(seed string) *KeyPair {
	r := newSeedReader(seed)
	n := curve.Params().N
	buf := make([]byte, coordLen)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			panic(err) // the seeded stream never errors
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() == 0 || d.Cmp(n) >= 0 {
			continue // out of range: draw again
		}
		priv := &ecdsa.PrivateKey{D: d}
		priv.PublicKey.Curve = curve
		priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(buf)
		var pub PublicKey
		priv.PublicKey.X.FillBytes(pub[:coordLen])
		priv.PublicKey.Y.FillBytes(pub[coordLen:])
		return &KeyPair{pub: pub, priv: priv}
	}
}

func generateFrom(r io.Reader) (*KeyPair, error) {
	priv, err := ecdsa.GenerateKey(curve, r)
	if err != nil {
		return nil, fmt.Errorf("sig: generate key: %w", err)
	}
	var pub PublicKey
	priv.PublicKey.X.FillBytes(pub[:coordLen])
	priv.PublicKey.Y.FillBytes(pub[coordLen:])
	return &KeyPair{pub: pub, priv: priv}, nil
}

// Public returns the compact public key.
func (kp *KeyPair) Public() PublicKey { return kp.pub }

// signs and verifies count the ECDSA operations this process has run.
// A P-256 operation is the unit every latency in this system is made of
// (a cold verify is the measured floor of each reply), so "how many did
// that request cost" is the count tests and the bench harness pin.
var signs, verifies atomic.Uint64

// OpCounts returns how many ECDSA signatures this process has made and
// how many it has checked (memo hits run no ECDSA and do not count).
// Callers compare two readings.
func OpCounts() (signed, verified uint64) { return signs.Load(), verifies.Load() }

// Sign produces a detached signature over a 32-byte digest.
func (kp *KeyPair) Sign(digest hashutil.Digest) (Signature, error) {
	signs.Add(1)
	r, s, err := ecdsa.Sign(rand.Reader, kp.priv, digest[:])
	if err != nil {
		return Signature{}, fmt.Errorf("sig: sign: %w", err)
	}
	var out Signature
	r.FillBytes(out[:coordLen])
	s.FillBytes(out[coordLen:])
	return out, nil
}

// MustSign is Sign for contexts where entropy failure is fatal anyway
// (benchmark setup, examples). It panics on error.
func (kp *KeyPair) MustSign(digest hashutil.Digest) Signature {
	s, err := kp.Sign(digest)
	if err != nil {
		panic(err)
	}
	return s
}

// Verify checks a detached signature over a digest against a public key.
// It returns nil on success and ErrBadSignature (possibly wrapped) on any
// failure, including a malformed key.
func Verify(pk PublicKey, digest hashutil.Digest, sg Signature) error {
	verifies.Add(1)
	pub, err := pk.toECDSA()
	if err != nil {
		return err
	}
	r := new(big.Int).SetBytes(sg[:coordLen])
	s := new(big.Int).SetBytes(sg[coordLen:])
	if !ecdsa.Verify(pub, digest[:], r, s) {
		return ErrBadSignature
	}
	return nil
}

// seedReader is a deterministic byte stream derived from a seed by hash
// chaining. Only GenerateDeterministic uses it.
type seedReader struct {
	state [sha256.Size]byte
	buf   []byte
}

func newSeedReader(seed string) *seedReader {
	r := &seedReader{state: sha256.Sum256([]byte("ledgerdb/sig/seed/" + seed))}
	return r
}

func (r *seedReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			r.state = sha256.Sum256(r.state[:])
			r.buf = append(r.buf[:0], r.state[:]...)
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// EncodePublicKey appends a public key to a wire writer.
func EncodePublicKey(w *wire.Writer, pk PublicKey) { w.Raw(pk[:]) }

// DecodePublicKey reads a public key from a wire reader.
func DecodePublicKey(r *wire.Reader) PublicKey {
	var pk PublicKey
	b := r.Raw(len(pk))
	if b != nil {
		copy(pk[:], b)
	}
	return pk
}

// EncodeSignature appends a signature to a wire writer.
func EncodeSignature(w *wire.Writer, sg Signature) { w.Raw(sg[:]) }

// DecodeSignature reads a signature from a wire reader.
func DecodeSignature(r *wire.Reader) Signature {
	var sg Signature
	b := r.Raw(len(sg))
	if b != nil {
		copy(sg[:], b)
	}
	return sg
}
