package journal

import (
	"errors"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

func testRequest(t *testing.T) (*Request, *sig.KeyPair) {
	t.Helper()
	kp := sig.GenerateDeterministic("client")
	req := &Request{
		LedgerURI: "ledger://test",
		Type:      TypeNormal,
		Clues:     []string{"dci-001"},
		StateKey:  []byte("account/alice"),
		Payload:   []byte("hello ledger"),
		Nonce:     7,
	}
	if err := req.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return req, kp
}

func TestRequestSignValidate(t *testing.T) {
	req, _ := testRequest(t)
	if err := req.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRequestHashBindsFields(t *testing.T) {
	req, kp := testRequest(t)
	base := req.Hash()
	mut := *req
	mut.Payload = []byte("hello ledgeR")
	if mut.Hash() == base {
		t.Fatal("payload not bound")
	}
	mut = *req
	mut.Nonce++
	if mut.Hash() == base {
		t.Fatal("nonce not bound")
	}
	mut = *req
	mut.Clues = []string{"dci-002"}
	if mut.Hash() == base {
		t.Fatal("clues not bound")
	}
	mut = *req
	mut.ClientPK = sig.GenerateDeterministic("other").Public()
	if mut.Hash() == base {
		t.Fatal("client pk not bound")
	}
	_ = kp
}

func TestValidateRejectsTamperedRequest(t *testing.T) {
	req, _ := testRequest(t)
	req.Payload = []byte("tampered after signing")
	if err := req.Validate(); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestValidateStructuralErrors(t *testing.T) {
	kp := sig.GenerateDeterministic("c")
	cases := []Request{
		{Type: TypeNormal, Payload: []byte("x")},                                             // no URI
		{LedgerURI: "l", Payload: []byte("x")},                                               // no type
		{LedgerURI: "l", Type: TypeNormal},                                                   // no payload
		{LedgerURI: "l", Type: TypeNormal, Payload: []byte("x"), Clues: []string{""}},        // empty clue
		{LedgerURI: "l", Type: TypeNormal, Payload: []byte("x"), Clues: []string{"."}},       // dot segment
		{LedgerURI: "l", Type: TypeNormal, Payload: []byte("x"), Clues: []string{"a", ".."}}, // dot segment
	}
	for i := range cases {
		if err := cases[i].Sign(kp); err != nil {
			t.Fatal(err)
		}
		if err := cases[i].Validate(); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("case %d: err = %v, want ErrBadRequest", i, err)
		}
	}
}

func TestCoSigners(t *testing.T) {
	req, _ := testRequest(t)
	for i := 0; i < 3; i++ {
		if err := req.CoSign(sig.GenerateDeterministic(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := req.VerifyAllSigs(); err != nil {
		t.Fatalf("VerifyAllSigs: %v", err)
	}
	req.CoSigners[1].Sig[0] ^= 1
	if err := req.VerifyAllSigs(); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func recordFrom(t *testing.T, req *Request, jsn uint64) *Record {
	t.Helper()
	return &Record{
		JSN:           jsn,
		Type:          req.Type,
		Timestamp:     12345,
		RequestHash:   req.Hash(),
		PayloadDigest: hashutil.Sum(req.Payload),
		PayloadSize:   uint64(len(req.Payload)),
		Clues:         req.Clues,
		StateKey:      req.StateKey,
		ClientPK:      req.ClientPK,
		ClientSig:     req.ClientSig,
		CoSigners:     req.CoSigners,
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	req, _ := testRequest(t)
	if err := req.CoSign(sig.GenerateDeterministic("co")); err != nil {
		t.Fatal(err)
	}
	rec := recordFrom(t, req, 42)
	rec.Extra = []byte("extra-bytes")
	got, err := DecodeRecord(rec.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.JSN != 42 || got.Type != TypeNormal || got.Timestamp != 12345 {
		t.Fatalf("fields wrong: %+v", got)
	}
	if got.TxHash() != rec.TxHash() {
		t.Fatal("tx-hash changed across encode/decode")
	}
	if len(got.Clues) != 1 || got.Clues[0] != "dci-001" {
		t.Fatalf("clues = %v", got.Clues)
	}
	if len(got.CoSigners) != 1 {
		t.Fatalf("cosigners = %d", len(got.CoSigners))
	}
	if string(got.Extra) != "extra-bytes" {
		t.Fatalf("extra = %q", got.Extra)
	}
	if err := VerifyRecordSigs(got); err != nil {
		t.Fatalf("VerifyRecordSigs: %v", err)
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte("nonsense")); err == nil {
		t.Fatal("garbage decoded")
	}
	req, _ := testRequest(t)
	rec := recordFrom(t, req, 1)
	enc := rec.EncodeBytes()
	if _, err := DecodeRecord(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated record decoded")
	}
	if _, err := DecodeRecord(append(enc, 0x00)); err == nil {
		t.Fatal("record with trailing bytes decoded")
	}
}

func TestTxHashExcludesOccultBit(t *testing.T) {
	// Protocol 2 requires that occulting does not change the tx-hash.
	req, _ := testRequest(t)
	rec := recordFrom(t, req, 9)
	base := rec.TxHash()
	rec.Occulted = true
	if rec.TxHash() != base {
		t.Fatal("occult bit changed tx-hash")
	}
}

func TestTxHashBindsEverythingElse(t *testing.T) {
	req, _ := testRequest(t)
	rec := recordFrom(t, req, 9)
	base := rec.TxHash()
	mut := *rec
	mut.JSN++
	if mut.TxHash() == base {
		t.Fatal("jsn not bound")
	}
	mut = *rec
	mut.PayloadDigest = hashutil.Leaf([]byte("other"))
	if mut.TxHash() == base {
		t.Fatal("payload digest not bound")
	}
	mut = *rec
	mut.Timestamp++
	if mut.TxHash() == base {
		t.Fatal("timestamp not bound")
	}
	mut = *rec
	mut.Extra = []byte("x")
	if mut.TxHash() == base {
		t.Fatal("extra not bound")
	}
}

func TestReceiptSignVerify(t *testing.T) {
	lsp := sig.GenerateDeterministic("lsp")
	rc := &Receipt{
		JSN:         3,
		RequestHash: hashutil.Leaf([]byte("rq")),
		TxHash:      hashutil.Leaf([]byte("tx")),
		BlockHeight: 1,
		Timestamp:   999,
	}
	if err := rc.Sign(lsp); err != nil {
		t.Fatal(err)
	}
	if err := rc.Verify(lsp.Public()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Repudiation attempt: LSP claims a different tx-hash afterwards.
	rc.TxHash = hashutil.Leaf([]byte("other"))
	if err := rc.Verify(lsp.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestReceiptVerifyRejectsWrongLSP(t *testing.T) {
	lsp := sig.GenerateDeterministic("lsp")
	evil := sig.GenerateDeterministic("evil")
	rc := &Receipt{JSN: 1}
	if err := rc.Sign(evil); err != nil {
		t.Fatal(err)
	}
	if err := rc.Verify(lsp.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestReceiptWireRoundTrip(t *testing.T) {
	lsp := sig.GenerateDeterministic("lsp")
	rc := &Receipt{JSN: 5, TxHash: hashutil.Leaf([]byte("tx")), Timestamp: 1}
	if err := rc.Sign(lsp); err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(0)
	rc.Encode(w)
	got, err := DecodeReceipt(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(lsp.Public()); err != nil {
		t.Fatalf("decoded receipt rejected: %v", err)
	}
}

func TestTimeAttestation(t *testing.T) {
	tsa := sig.GenerateDeterministic("tsa")
	ta := &TimeAttestation{
		Digest:    hashutil.Leaf([]byte("ledger-state")),
		Timestamp: 1600000000,
		TSAPK:     tsa.Public(),
	}
	ta.TSASig = tsa.MustSign(ta.SignedDigest())
	if err := ta.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	got, err := DecodeTimeAttestation(ta.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("decoded attestation rejected: %v", err)
	}
	// Tampering with the timestamp (threat-B) breaks π_t.
	got.Timestamp++
	if err := got.Verify(); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeNormal: "normal", TypePurge: "purge", TypeOccult: "occult",
		TypeTime: "time", TypeGenesis: "genesis", TypePseudoGenesis: "pseudo-genesis",
		Type(77): "type(77)",
	} {
		if typ.String() != want {
			t.Fatalf("Type(%d) = %q, want %q", typ, typ.String(), want)
		}
	}
}
