package ledger

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// BlockHeader is the per-block LedgerInfo of Figure 2: it snapshots the
// journal accumulator (fam) root, the CM-Tree1 clue root, and the
// world-state root at the block boundary, and chains to the previous
// block by hash.
type BlockHeader struct {
	Height      uint64
	Prev        hashutil.Digest
	FirstJSN    uint64
	Count       uint64
	Timestamp   int64
	JournalRoot hashutil.Digest // fam root after the block's last journal
	ClueRoot    hashutil.Digest // CM-Tree1 root
	StateRoot   hashutil.Digest // world-state MPT root
}

// Encode serializes the header for the block stream and for hashing.
func (h *BlockHeader) Encode(w *wire.Writer) {
	w.String("ledgerdb/block/v1")
	w.Uvarint(h.Height)
	w.Digest(h.Prev)
	w.Uvarint(h.FirstJSN)
	w.Uvarint(h.Count)
	w.Int64(h.Timestamp)
	w.Digest(h.JournalRoot)
	w.Digest(h.ClueRoot)
	w.Digest(h.StateRoot)
}

// EncodeBytes is Encode into a fresh buffer.
func (h *BlockHeader) EncodeBytes() []byte {
	w := wire.NewWriter(160)
	h.Encode(w)
	return w.Bytes()
}

// Hash returns the block-hash.
func (h *BlockHeader) Hash() hashutil.Digest { return hashutil.Block(h.EncodeBytes()) }

// DecodeBlockHeader parses a block-stream record.
func DecodeBlockHeader(b []byte) (*BlockHeader, error) {
	r := wire.NewReader(b)
	if v := r.String(); v != "ledgerdb/block/v1" {
		return nil, fmt.Errorf("%w: bad block version %q", journal.ErrDecode, v)
	}
	h := &BlockHeader{
		Height:      r.Uvarint(),
		Prev:        r.Digest(),
		FirstJSN:    r.Uvarint(),
		Count:       r.Uvarint(),
		Timestamp:   r.Int64(),
		JournalRoot: r.Digest(),
		ClueRoot:    r.Digest(),
		StateRoot:   r.Digest(),
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return h, nil
}

// SignedState is the LSP-signed live LedgerInfo handed to clients as the
// trusted datum for verification (the role QLDB's "digest" plays, but
// covering all three accumulators).
type SignedState struct {
	URI         string
	JSN         uint64 // journals committed (next jsn)
	JournalRoot hashutil.Digest
	ClueRoot    hashutil.Digest
	StateRoot   hashutil.Digest
	ClueCount   uint64          // live clue names committed in ClueSetRoot
	ClueSetRoot hashutil.Digest // sorted clue-set (absence tree) root
	Timestamp   int64
	LSPPK       sig.PublicKey
	LSPSig      sig.Signature
}

func (s *SignedState) signedDigest() hashutil.Digest {
	w := wire.NewWriter(224)
	w.String("ledgerdb/state/v2")
	w.String(s.URI)
	w.Uvarint(s.JSN)
	w.Digest(s.JournalRoot)
	w.Digest(s.ClueRoot)
	w.Digest(s.StateRoot)
	w.Uvarint(s.ClueCount)
	w.Digest(s.ClueSetRoot)
	w.Int64(s.Timestamp)
	sig.EncodePublicKey(w, s.LSPPK)
	return hashutil.Sum(w.Bytes())
}

// Digest returns the state digest submitted to the TSA / T-Ledger for
// when verification: it binds every accumulator root at this instant.
func (s *SignedState) Digest() hashutil.Digest { return s.signedDigest() }

// sign signs the state as kp and returns the digest it signed.
func (s *SignedState) sign(kp *sig.KeyPair) (hashutil.Digest, error) {
	s.LSPPK = kp.Public()
	d := s.signedDigest()
	sg, err := kp.Sign(d)
	if err != nil {
		return hashutil.Zero, err
	}
	s.LSPSig = sg
	return d, nil
}

// Verify checks the LSP signature on the state.
func (s *SignedState) Verify(lsp sig.PublicKey) error {
	return Verifier{LSP: lsp}.VerifySignedState(s)
}

// VerifySignedState checks the LSP signature on a state.
func (v Verifier) VerifySignedState(s *SignedState) error {
	if s.LSPPK != v.LSP {
		return fmt.Errorf("%w: state signed by %s, want %s", journal.ErrBadSignature, s.LSPPK, v.LSP)
	}
	if err := v.Memo.Verify(s.LSPPK, s.signedDigest(), s.LSPSig); err != nil {
		return fmt.Errorf("%w: state: %v", journal.ErrBadSignature, err)
	}
	return nil
}

// Encode serializes the signed state.
func (s *SignedState) Encode(w *wire.Writer) {
	w.String(s.URI)
	w.Uvarint(s.JSN)
	w.Digest(s.JournalRoot)
	w.Digest(s.ClueRoot)
	w.Digest(s.StateRoot)
	w.Uvarint(s.ClueCount)
	w.Digest(s.ClueSetRoot)
	w.Int64(s.Timestamp)
	sig.EncodePublicKey(w, s.LSPPK)
	sig.EncodeSignature(w, s.LSPSig)
}

// DecodeSignedState parses a signed state.
func DecodeSignedState(r *wire.Reader) (*SignedState, error) {
	return decodeSignedState(r, r.String())
}

// decodeSignedState parses the rest of a signed state whose URI has
// been read.
func decodeSignedState(r *wire.Reader, uri string) (*SignedState, error) {
	s := &SignedState{
		URI:         uri,
		JSN:         r.Uvarint(),
		JournalRoot: r.Digest(),
		ClueRoot:    r.Digest(),
		StateRoot:   r.Digest(),
		ClueCount:   r.Uvarint(),
		ClueSetRoot: r.Digest(),
		Timestamp:   r.Int64(),
		LSPPK:       sig.DecodePublicKey(r),
		LSPSig:      sig.DecodeSignature(r),
	}
	return s, r.Err()
}
