package shard

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/merkle/accumulator"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// Head is one shard's folded accumulator head: which shard, how many
// journals the fold covers, and the shard's fam root at exactly that
// count. Its leaf digest is what the global accumulator accumulates, so
// the shard's *identity* is bound into the global root — a proof from
// shard 3 cannot be replayed as shard 5's even if their roots collide
// operationally (restored backup, cloned shard).
type Head struct {
	Shard uint32
	Size  uint64 // journals covered; 0 = shard present but empty
	Root  hashutil.Digest
}

// Leaf returns the domain-separated accumulator leaf for this head.
func (h Head) Leaf() hashutil.Digest {
	w := wire.NewWriter(64)
	w.String("ledgerdb/shard-head/v1")
	w.Uint32(h.Shard)
	w.Uvarint(h.Size)
	w.Digest(h.Root)
	return hashutil.Sum(w.Bytes())
}

// Encode appends the head to a wire writer.
func (h Head) Encode(w *wire.Writer) {
	w.Uint32(h.Shard)
	w.Uvarint(h.Size)
	w.Digest(h.Root)
}

// DecodeHead reads a head from a wire reader.
func DecodeHead(r *wire.Reader) Head {
	return Head{Shard: r.Uint32(), Size: r.Uvarint(), Root: r.Digest()}
}

// GlobalState is the coordinator-signed top-level LedgerInfo: one root
// over all shard head-leaves at a fold epoch. It deliberately signs only
// the accumulator root, not the heads — proofs ship the head preimage
// plus an O(log N) accumulator path, keeping the state constant-size no
// matter how many shards the deployment grows.
type GlobalState struct {
	URI       string
	Epoch     uint64 // fold counter, strictly increasing per coordinator
	Shards    uint32
	Root      hashutil.Digest // accumulator root over the shard head-leaves
	Timestamp int64
	CoordPK   sig.PublicKey
	CoordSig  sig.Signature
}

func (g *GlobalState) signedDigest() hashutil.Digest {
	w := wire.NewWriter(160)
	w.String("ledgerdb/global-state/v1")
	w.String(g.URI)
	w.Uvarint(g.Epoch)
	w.Uint32(g.Shards)
	w.Digest(g.Root)
	w.Int64(g.Timestamp)
	sig.EncodePublicKey(w, g.CoordPK)
	return hashutil.Sum(w.Bytes())
}

// Digest returns the signed digest (for T-Ledger anchoring of folds).
func (g *GlobalState) Digest() hashutil.Digest { return g.signedDigest() }

func (g *GlobalState) sign(kp *sig.KeyPair) error {
	g.CoordPK = kp.Public()
	sg, err := kp.Sign(g.signedDigest())
	if err != nil {
		return err
	}
	g.CoordSig = sg
	return nil
}

// Verifier is a client's trust root for cross-shard proofs: the pinned
// coordinator key plus an optional memo of signatures it has already
// checked. It mirrors ledger.Verifier: one verifier body per shape, and
// the package-level functions are the same bodies with a nil memo.
type Verifier struct {
	Coordinator sig.PublicKey
	Memo        *sig.Memo // nil verifies every signature from scratch
}

// Verify checks the coordinator signature on the global state.
func (g *GlobalState) Verify(coord sig.PublicKey) error {
	return Verifier{Coordinator: coord}.VerifyGlobalState(g)
}

// VerifyGlobalState checks the coordinator signature on a global state.
func (v Verifier) VerifyGlobalState(g *GlobalState) error {
	if g.CoordPK != v.Coordinator {
		return fmt.Errorf("%w: state signed by %s, want %s", journal.ErrBadSignature, g.CoordPK, v.Coordinator)
	}
	if err := v.Memo.Verify(g.CoordPK, g.signedDigest(), g.CoordSig); err != nil {
		return fmt.Errorf("%w: global state: %v", journal.ErrBadSignature, err)
	}
	return nil
}

// Encode serializes the global state.
func (g *GlobalState) Encode(w *wire.Writer) {
	w.String(g.URI)
	w.Uvarint(g.Epoch)
	w.Uint32(g.Shards)
	w.Digest(g.Root)
	w.Int64(g.Timestamp)
	sig.EncodePublicKey(w, g.CoordPK)
	sig.EncodeSignature(w, g.CoordSig)
}

// EncodeBytes serializes the global state as a standalone message (the
// /v1/global endpoint body).
func (g *GlobalState) EncodeBytes() []byte {
	w := wire.NewWriter(256)
	g.Encode(w)
	return w.Bytes()
}

// DecodeGlobalStateBytes parses a standalone global state, rejecting
// trailing bytes.
func DecodeGlobalStateBytes(b []byte) (*GlobalState, error) {
	r := wire.NewReader(b)
	g, err := DecodeGlobalState(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// DecodeGlobalState parses a global state.
func DecodeGlobalState(r *wire.Reader) (*GlobalState, error) {
	g := &GlobalState{
		URI:       r.String(),
		Epoch:     r.Uvarint(),
		Shards:    r.Uint32(),
		Root:      r.Digest(),
		Timestamp: r.Int64(),
		CoordPK:   sig.DecodePublicKey(r),
		CoordSig:  sig.DecodeSignature(r),
	}
	return g, r.Err()
}

// GlobalProof is the single cross-shard proof path for one record:
//
//	record ──fam path──▶ shard fam root (Head.Root)
//	Head.Leaf() ──accumulator path──▶ GlobalState.Root (signed)
//
// The trusted datum is the coordinator's signature; everything else is
// recomputed by the verifier.
type GlobalProof struct {
	Head   Head               // the folded head of the record's shard
	Acc    *accumulator.Proof // Head.Leaf() → Global.Root
	Record *ledger.RecordProof
	Global *GlobalState
}

// VerifyGlobal is the pure client-side check of a cross-shard proof: the
// coordinator signature over the global state, the head-leaf's membership
// in the signed global root at the signed shard count, then the record's
// fam path to the head's shard root (which re-verifies π_c and the
// payload digest). Returns the decoded record on success.
func VerifyGlobal(p *GlobalProof, coord sig.PublicKey) (*journal.Record, error) {
	return Verifier{Coordinator: coord}.VerifyGlobal(p)
}

// VerifyGlobal is the package-level VerifyGlobal under v.
func (v Verifier) VerifyGlobal(p *GlobalProof) (*journal.Record, error) {
	if p == nil || p.Acc == nil || p.Record == nil || p.Global == nil {
		return nil, fmt.Errorf("%w: incomplete proof", ErrBadProof)
	}
	if err := v.VerifyGlobalState(p.Global); err != nil {
		return nil, err
	}
	if p.Acc.TreeSize != uint64(p.Global.Shards) {
		return nil, fmt.Errorf("%w: accumulator over %d leaves, state signs %d shards", ErrBadProof, p.Acc.TreeSize, p.Global.Shards)
	}
	if p.Acc.Index != uint64(p.Head.Shard) {
		return nil, fmt.Errorf("%w: head for shard %d proven at leaf %d", ErrBadProof, p.Head.Shard, p.Acc.Index)
	}
	if err := accumulator.Verify(p.Head.Leaf(), p.Acc, p.Global.Root); err != nil {
		return nil, fmt.Errorf("%w: anchor tree: %v", ErrBadProof, err)
	}
	if p.Head.Size == 0 {
		return nil, fmt.Errorf("%w: empty shard head cannot cover a record", ErrBadProof)
	}
	rec, err := ledger.Verifier{Memo: v.Memo}.VerifyRecordAtRoot(p.Record.RecordBytes, p.Record.Payload, p.Record.Fam, p.Head.Size, p.Head.Root)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d: %v", ErrBadProof, p.Head.Shard, err)
	}
	return rec, nil
}

// EncodeBytes serializes a global proof for transport.
func (p *GlobalProof) EncodeBytes() []byte {
	w := wire.NewWriter(1024)
	p.Head.Encode(w)
	p.Acc.Encode(w)
	w.WriteBytes(p.Record.RecordBytes)
	w.WriteBytes(p.Record.Payload)
	p.Record.Fam.Encode(w)
	p.Global.Encode(w)
	return w.Bytes()
}

// DecodeGlobalProof parses a transported global proof.
func DecodeGlobalProof(b []byte) (*GlobalProof, error) {
	r := wire.NewReader(b)
	p := &GlobalProof{Head: DecodeHead(r)}
	ap, err := accumulator.DecodeProof(r)
	if err != nil {
		return nil, err
	}
	p.Acc = ap
	rp := &ledger.RecordProof{RecordBytes: r.BytesCopy()}
	if payload := r.BytesCopy(); len(payload) > 0 {
		rp.Payload = payload
	}
	fp, err := fam.DecodeBatchProof(r)
	if err != nil {
		return nil, err
	}
	rp.Fam = fp
	p.Record = rp
	g, err := DecodeGlobalState(r)
	if err != nil {
		return nil, err
	}
	p.Global = g
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}
