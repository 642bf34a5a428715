// Package journal defines the on-ledger record types of Figure 2 and the
// three-phase signing objects of §III-C: client requests (π_c), journal
// entries with their tx-hashes, LSP receipts (π_s), and the TSA time
// attestations (π_t) that become time journals.
//
// Everything here has a deterministic wire encoding (package wire) so
// that every digest — request-hash, tx-hash, block-hash — is reproducible
// by any external verifier from raw bytes.
package journal

import (
	"errors"
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// Type discriminates journal records (§V audits dispatch on it).
type Type uint8

// Journal types.
const (
	TypeNormal Type = iota + 1
	TypePurge       // records a purge mutation (§III-A2)
	TypeOccult      // records an occult mutation (§III-A3)
	TypeTime        // records a TSA time attestation (§III-B)
	TypeGenesis
	TypePseudoGenesis // replaces the genesis after a purge
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeNormal:
		return "normal"
	case TypePurge:
		return "purge"
	case TypeOccult:
		return "occult"
	case TypeTime:
		return "time"
	case TypeGenesis:
		return "genesis"
	case TypePseudoGenesis:
		return "pseudo-genesis"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Errors returned by this package.
var (
	ErrBadRequest   = errors.New("journal: malformed client request")
	ErrBadSignature = errors.New("journal: signature verification failed")
	ErrDecode       = errors.New("journal: record decoding failed")
)

// Request is what a ledger client submits: the transaction payload plus
// metadata, signed by the client's secret key. The signature over the
// request-hash is the client's non-repudiation proof π_c.
type Request struct {
	LedgerURI string
	Type      Type
	Clues     []string // business lineage labels (§IV); may be empty
	StateKey  []byte   // optional world-state key this tx updates
	Payload   []byte
	Nonce     uint64
	ClientPK  sig.PublicKey
	ClientSig sig.Signature // π_c over Hash()
	// CoSigners holds additional parties' signatures over the same
	// request-hash (multi-signed journals; see cosign.go).
	CoSigners []CoSignature
}

// encodeSigned writes the fields covered by the request-hash (everything
// except the signature).
func (r *Request) encodeSigned(w *wire.Writer) {
	w.String("ledgerdb/request/v1")
	w.String(r.LedgerURI)
	w.Uint8(uint8(r.Type))
	w.Uvarint(uint64(len(r.Clues)))
	for _, c := range r.Clues {
		w.String(c)
	}
	w.WriteBytes(r.StateKey)
	w.WriteBytes(r.Payload)
	w.Uvarint(r.Nonce)
	sig.EncodePublicKey(w, r.ClientPK)
}

// Hash returns the request-hash: the digest the client signs.
func (r *Request) Hash() hashutil.Digest {
	w := wire.GetWriter()
	r.encodeSigned(w)
	d := hashutil.Sum(w.Bytes())
	wire.PutWriter(w)
	return d
}

// Sign computes π_c with the client's key pair and stamps the request.
func (r *Request) Sign(kp *sig.KeyPair) error {
	r.ClientPK = kp.Public()
	s, err := kp.Sign(r.Hash())
	if err != nil {
		return err
	}
	r.ClientSig = s
	return nil
}

// VerifySig checks π_c. It does not check certification; the ledger's
// member registry does that.
func (r *Request) VerifySig() error {
	return r.VerifySigAt(r.Hash())
}

// VerifySigAt checks π_c against a request-hash the caller has already
// computed, so hot paths that need the hash for other purposes (admission
// dedup, co-signer checks) hash the request exactly once.
func (r *Request) VerifySigAt(h hashutil.Digest) error {
	if err := sig.Verify(r.ClientPK, h, r.ClientSig); err != nil {
		return fmt.Errorf("%w: π_c: %v", ErrBadSignature, err)
	}
	return nil
}

// Validate performs structural checks before the ledger accepts the
// request, then verifies π_c.
func (r *Request) Validate() error {
	if err := r.ValidateShape(); err != nil {
		return err
	}
	return r.VerifySig()
}

// ValidateShape runs Validate's structural checks without the trailing
// signature verification. The ledger's pipelined admission uses it so
// that π_c is verified exactly once (by VerifyAllSigs).
func (r *Request) ValidateShape() error {
	if r.LedgerURI == "" {
		return fmt.Errorf("%w: empty ledger URI", ErrBadRequest)
	}
	if r.Type == 0 {
		return fmt.Errorf("%w: missing type", ErrBadRequest)
	}
	if len(r.Payload) == 0 && r.Type == TypeNormal {
		return fmt.Errorf("%w: empty payload", ErrBadRequest)
	}
	for _, c := range r.Clues {
		if c == "" {
			return fmt.Errorf("%w: empty clue", ErrBadRequest)
		}
		// A clue is addressed as one URL path segment
		// (/v1/clue/<name>/proof), and HTTP removes dot segments however
		// they are escaped: these two names could be appended but never
		// proven remotely.
		if c == "." || c == ".." {
			return fmt.Errorf("%w: clue %q is not addressable", ErrBadRequest, c)
		}
	}
	return nil
}

// Encode serializes the full request (including signatures) for
// transport to the ledger proxy.
func (r *Request) Encode(w *wire.Writer) {
	r.encodeSigned(w)
	sig.EncodeSignature(w, r.ClientSig)
	encodeCoSigners(w, r.CoSigners)
}

// EncodeBytes is Encode into a fresh buffer.
func (r *Request) EncodeBytes() []byte {
	w := wire.NewWriter(192 + len(r.Payload))
	r.Encode(w)
	return w.Bytes()
}

// DecodeRequest parses a transported request. Signatures are not
// verified; the ledger's Append does that.
func DecodeRequest(b []byte) (*Request, error) {
	rd := wire.NewReader(b)
	r := &Request{}
	if v := rd.String(); v != "ledgerdb/request/v1" {
		return nil, fmt.Errorf("%w: bad request version %q", ErrDecode, v)
	}
	r.LedgerURI = rd.String()
	r.Type = Type(rd.Uint8())
	n := rd.Uvarint()
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if n > 1024 {
		return nil, fmt.Errorf("%w: %d clues", ErrDecode, n)
	}
	for i := uint64(0); i < n; i++ {
		r.Clues = append(r.Clues, rd.String())
	}
	r.StateKey = rd.BytesCopy()
	r.Payload = rd.BytesCopy()
	r.Nonce = rd.Uvarint()
	r.ClientPK = sig.DecodePublicKey(rd)
	r.ClientSig = sig.DecodeSignature(rd)
	cs, err := decodeCoSigners(rd)
	if err != nil {
		return nil, err
	}
	r.CoSigners = cs
	if err := rd.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return r, nil
}

// Record is a committed journal entry (the JournalInfo of Figure 2). The
// raw payload lives in shared blob storage; the record carries only its
// digest, which is what makes occult erasure (§III-A3, Protocol 2)
// possible without breaking the hash chain.
type Record struct {
	JSN           uint64
	Type          Type
	Timestamp     int64 // LSP commit clock
	RequestHash   hashutil.Digest
	PayloadDigest hashutil.Digest
	PayloadSize   uint64
	Clues         []string
	StateKey      []byte
	ClientPK      sig.PublicKey
	ClientSig     sig.Signature
	CoSigners     []CoSignature
	Occulted      bool // the occult bit (bitmap index in the paper)
	// Extra carries type-specific data: the encoded purge/occult/time
	// descriptor. It is covered by the tx-hash.
	Extra []byte
}

// hashedFields writes every field covered by the tx-hash. The occult bit
// is deliberately excluded: occulting a journal must not change its
// tx-hash, or the accumulator built before the occult would break
// (Protocol 2 replaces the payload, not the digest).
func (rec *Record) hashedFields(w *wire.Writer) {
	w.String("ledgerdb/journal/v1")
	w.Uvarint(rec.JSN)
	w.Uint8(uint8(rec.Type))
	w.Int64(rec.Timestamp)
	w.Digest(rec.RequestHash)
	w.Digest(rec.PayloadDigest)
	w.Uvarint(rec.PayloadSize)
	w.Uvarint(uint64(len(rec.Clues)))
	for _, c := range rec.Clues {
		w.String(c)
	}
	w.WriteBytes(rec.StateKey)
	sig.EncodePublicKey(w, rec.ClientPK)
	sig.EncodeSignature(w, rec.ClientSig)
	encodeCoSigners(w, rec.CoSigners)
	w.WriteBytes(rec.Extra)
}

// TxHash returns the journal digest accumulated into fam and CM-Tree2.
func (rec *Record) TxHash() hashutil.Digest {
	w := wire.GetWriter()
	rec.hashedFields(w)
	d := hashutil.Journal(w.Bytes())
	wire.PutWriter(w)
	return d
}

// Encode serializes the full record for the journal stream.
func (rec *Record) Encode(w *wire.Writer) {
	rec.hashedFields(w)
	w.Bool(rec.Occulted)
}

// EncodeBytes is Encode into a fresh buffer.
func (rec *Record) EncodeBytes() []byte {
	w := wire.NewWriter(192)
	rec.Encode(w)
	return w.Bytes()
}

// DecodeRecord parses a journal-stream record.
func DecodeRecord(b []byte) (*Record, error) {
	r := wire.NewReader(b)
	rec := &Record{}
	if v := r.String(); v != "ledgerdb/journal/v1" {
		return nil, fmt.Errorf("%w: bad version %q", ErrDecode, v)
	}
	rec.JSN = r.Uvarint()
	rec.Type = Type(r.Uint8())
	rec.Timestamp = r.Int64()
	rec.RequestHash = r.Digest()
	rec.PayloadDigest = r.Digest()
	rec.PayloadSize = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1024 {
		return nil, fmt.Errorf("%w: %d clues", ErrDecode, n)
	}
	for i := uint64(0); i < n; i++ {
		rec.Clues = append(rec.Clues, r.String())
	}
	rec.StateKey = r.BytesCopy()
	rec.ClientPK = sig.DecodePublicKey(r)
	rec.ClientSig = sig.DecodeSignature(r)
	cs, err := decodeCoSigners(r)
	if err != nil {
		return nil, err
	}
	rec.CoSigners = cs
	rec.Extra = r.BytesCopy()
	rec.Occulted = r.Bool()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return rec, nil
}

// Receipt is the LSP's signed commitment confirmation (π_s of Figure 1).
// The client keeps it externally: during an audit it pins the LSP to the
// journal content and position it acknowledged.
type Receipt struct {
	JSN         uint64
	RequestHash hashutil.Digest
	TxHash      hashutil.Digest
	BlockHeight uint64          // block that will contain / contains the journal
	BlockHash   hashutil.Digest // zero until the block is cut
	Timestamp   int64
	LSPPK       sig.PublicKey
	LSPSig      sig.Signature

	// Group commit: when GroupHashes is non-empty the receipt comes from
	// the staged pipeline and π_s covers the whole jsn-dense commit group
	// at once — the signed digest binds the group's first jsn and every
	// tx-hash in it, and TxHash must equal GroupHashes[GroupIndex]. The
	// journal's own jsn, request hash, and timestamp stay bound through
	// TxHash; BlockHeight/BlockHash are advisory here and are pinned
	// during audit, not by π_s.
	GroupHashes []hashutil.Digest
	GroupIndex  uint64
}

func (rc *Receipt) signedDigest() hashutil.Digest {
	w := wire.GetWriter()
	if len(rc.GroupHashes) > 0 {
		w.String("ledgerdb/receipt/group/v1")
		w.Uvarint(rc.JSN - rc.GroupIndex) // first jsn of the commit group
		w.Uvarint(uint64(len(rc.GroupHashes)))
		for _, h := range rc.GroupHashes {
			w.Digest(h)
		}
	} else {
		w.String("ledgerdb/receipt/v1")
		w.Uvarint(rc.JSN)
		w.Digest(rc.RequestHash)
		w.Digest(rc.TxHash)
		w.Uvarint(rc.BlockHeight)
		w.Digest(rc.BlockHash)
		w.Int64(rc.Timestamp)
	}
	sig.EncodePublicKey(w, rc.LSPPK)
	d := hashutil.Sum(w.Bytes())
	wire.PutWriter(w)
	return d
}

// Sign stamps the receipt with the LSP's signature π_s.
func (rc *Receipt) Sign(kp *sig.KeyPair) error {
	rc.LSPPK = kp.Public()
	s, err := kp.Sign(rc.signedDigest())
	if err != nil {
		return err
	}
	rc.LSPSig = s
	return nil
}

// Verify checks π_s against the expected LSP key. For a group-commit
// receipt it additionally checks the journal's membership in the signed
// group: TxHash must sit at GroupIndex of GroupHashes, and the group's
// first jsn (JSN - GroupIndex) is part of the signed digest, so moving
// the receipt to another position or jsn breaks the signature.
func (rc *Receipt) Verify(lsp sig.PublicKey) error {
	if rc.LSPPK != lsp {
		return fmt.Errorf("%w: receipt signed by %s, want LSP %s", ErrBadSignature, rc.LSPPK, lsp)
	}
	if len(rc.GroupHashes) > 0 {
		if rc.GroupIndex >= uint64(len(rc.GroupHashes)) {
			return fmt.Errorf("%w: group index %d outside group of %d", ErrBadSignature, rc.GroupIndex, len(rc.GroupHashes))
		}
		if rc.GroupIndex > rc.JSN {
			return fmt.Errorf("%w: group index %d exceeds jsn %d", ErrBadSignature, rc.GroupIndex, rc.JSN)
		}
		if rc.TxHash != rc.GroupHashes[rc.GroupIndex] {
			return fmt.Errorf("%w: tx-hash not at position %d of the signed group", ErrBadSignature, rc.GroupIndex)
		}
	}
	if err := sig.Verify(rc.LSPPK, rc.signedDigest(), rc.LSPSig); err != nil {
		return fmt.Errorf("%w: π_s: %v", ErrBadSignature, err)
	}
	return nil
}

// Encode serializes the receipt.
func (rc *Receipt) Encode(w *wire.Writer) {
	w.Uvarint(rc.JSN)
	w.Digest(rc.RequestHash)
	w.Digest(rc.TxHash)
	w.Uvarint(rc.BlockHeight)
	w.Digest(rc.BlockHash)
	w.Int64(rc.Timestamp)
	sig.EncodePublicKey(w, rc.LSPPK)
	sig.EncodeSignature(w, rc.LSPSig)
	w.Uvarint(uint64(len(rc.GroupHashes)))
	for _, h := range rc.GroupHashes {
		w.Digest(h)
	}
	w.Uvarint(rc.GroupIndex)
}

// DecodeReceipt parses a receipt.
func DecodeReceipt(r *wire.Reader) (*Receipt, error) {
	rc := &Receipt{
		JSN:         r.Uvarint(),
		RequestHash: r.Digest(),
		TxHash:      r.Digest(),
		BlockHeight: r.Uvarint(),
		BlockHash:   r.Digest(),
		Timestamp:   r.Int64(),
		LSPPK:       sig.DecodePublicKey(r),
		LSPSig:      sig.DecodeSignature(r),
	}
	if n := r.Uvarint(); n > 0 {
		if n > uint64(r.Remaining())/hashutil.Size {
			return nil, fmt.Errorf("%w: group of %d hashes exceeds payload", ErrDecode, n)
		}
		rc.GroupHashes = make([]hashutil.Digest, n)
		for i := range rc.GroupHashes {
			rc.GroupHashes[i] = r.Digest()
		}
	}
	rc.GroupIndex = r.Uvarint()
	return rc, r.Err()
}

// TimeAttestation is a TSA endorsement (π_t): the TSA's signature over a
// (digest, timestamp) pair, per Protocol 3 step 1.
type TimeAttestation struct {
	Digest    hashutil.Digest // the ledger state digest submitted
	Timestamp int64           // the TSA's universal clock
	TSAPK     sig.PublicKey
	TSASig    sig.Signature
}

// SignedDigest is the digest the TSA signs.
func (ta *TimeAttestation) SignedDigest() hashutil.Digest {
	w := wire.GetWriter()
	w.String("ledgerdb/tsa/v1")
	w.Digest(ta.Digest)
	w.Int64(ta.Timestamp)
	sig.EncodePublicKey(w, ta.TSAPK)
	d := hashutil.Sum(w.Bytes())
	wire.PutWriter(w)
	return d
}

// Verify checks the TSA's signature.
func (ta *TimeAttestation) Verify() error {
	if err := sig.Verify(ta.TSAPK, ta.SignedDigest(), ta.TSASig); err != nil {
		return fmt.Errorf("%w: π_t: %v", ErrBadSignature, err)
	}
	return nil
}

// Encode serializes the attestation (it becomes a time journal's Extra).
func (ta *TimeAttestation) Encode(w *wire.Writer) {
	w.Digest(ta.Digest)
	w.Int64(ta.Timestamp)
	sig.EncodePublicKey(w, ta.TSAPK)
	sig.EncodeSignature(w, ta.TSASig)
}

// EncodeBytes is Encode into a fresh buffer.
func (ta *TimeAttestation) EncodeBytes() []byte {
	w := wire.NewWriter(160)
	ta.Encode(w)
	return w.Bytes()
}

// DecodeTimeAttestation parses an attestation.
func DecodeTimeAttestation(b []byte) (*TimeAttestation, error) {
	r := wire.NewReader(b)
	ta := &TimeAttestation{
		Digest:    r.Digest(),
		Timestamp: r.Int64(),
		TSAPK:     sig.DecodePublicKey(r),
		TSASig:    sig.DecodeSignature(r),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return ta, nil
}
