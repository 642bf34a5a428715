package ledger

// Verified rich queries. The sidecar index (internal/index) answers
// by-clue-prefix, by-time-range, and by-signer lookups, but it is pure
// cache: a QueryResult never asks the client to trust it. Matches ship
// as an ExistenceProofBatch (each record proven into the signed fam
// root, so the client re-checks the match predicate against PROVEN
// record content — a tampered index entry fails verification, it is
// never silently served), and an empty prefix reply ships an
// AbsenceProof against the signed clue-set root. Empty time/signer
// replies carry no completeness proof — the ledger commits to the clue
// set, not to time or signer sortings — and VerifyQueryResult documents
// that asymmetry rather than papering over it.

import (
	"fmt"
	"strings"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// QueryKind selects an index projection.
type QueryKind uint8

const (
	QueryByPrefix QueryKind = 1 // clues with a given prefix
	QueryByTime   QueryKind = 2 // commit timestamp in [From, To)
	QueryBySigner QueryKind = 3 // records signed by a client key
)

// String names the kind for CLI and error text.
func (k QueryKind) String() string {
	switch k {
	case QueryByPrefix:
		return "prefix"
	case QueryByTime:
		return "time"
	case QueryBySigner:
		return "signer"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Query is one rich-read request. Exactly the fields for its Kind are
// meaningful; the struct is comparable so a verifier can bind a result
// to the query it actually issued.
type Query struct {
	Kind        QueryKind
	Prefix      string        // QueryByPrefix: clue prefix ("" matches all)
	From, To    int64         // QueryByTime: commit timestamps in [From, To)
	Signer      sig.PublicKey // QueryBySigner
	Limit       uint64        // max matches returned; 0 or >MaxProofBatch clamps to MaxProofBatch
	WithPayload bool          // include payload bytes in the proof batch
}

// Validate rejects structurally meaningless queries before any index
// work.
func (q Query) Validate() error {
	switch q.Kind {
	case QueryByPrefix:
	case QueryByTime:
		if q.From >= q.To {
			return fmt.Errorf("%w: empty time range [%d,%d)", journal.ErrBadRequest, q.From, q.To)
		}
	case QueryBySigner:
		if q.Signer == (sig.PublicKey{}) {
			return fmt.Errorf("%w: zero signer key", journal.ErrBadRequest)
		}
	default:
		return fmt.Errorf("%w: unknown query kind %d", journal.ErrBadRequest, q.Kind)
	}
	return nil
}

// EffectiveLimit is the match cap after clamping.
func (q Query) EffectiveLimit() uint64 {
	if q.Limit == 0 || q.Limit > MaxProofBatch {
		return MaxProofBatch
	}
	return q.Limit
}

// Matches reports whether a (proven) record satisfies the query
// predicate. This is the client's defense against a tampered index:
// the record content comes out of an existence proof, so a jsn the
// index wrongly mapped to this query fails here.
func (q Query) Matches(rec *journal.Record) bool {
	switch q.Kind {
	case QueryByPrefix:
		for _, c := range rec.Clues {
			if strings.HasPrefix(c, q.Prefix) {
				return true
			}
		}
		return false
	case QueryByTime:
		return rec.Timestamp >= q.From && rec.Timestamp < q.To
	case QueryBySigner:
		return rec.ClientPK == q.Signer
	}
	return false
}

// QueryResult is the verifiable reply: proven matches, or a proven
// absence for an empty prefix reply.
type QueryResult struct {
	Query     Query
	Truncated bool                 // more matches existed than Limit
	Batch     *ExistenceProofBatch // nil when no records matched
	Absence   *AbsenceProof        // set on empty QueryByPrefix replies
}

// VerifyQueryResult checks a query result offline against the LSP
// public key and the query the CLIENT issued (never the echoed one
// alone — the echo must match, binding the result to the request).
// It returns the proven records in ascending jsn order.
//
// What is proven: every returned record exists in the ledger, is
// client-signed, and satisfies q's predicate; an empty prefix reply
// proves NO live clue matches. What is not: completeness of non-empty
// replies, and emptiness of time/signer replies — the signed state
// commits to the clue set, not to time or signer orderings.
func VerifyQueryResult(lsp sig.PublicKey, q Query, res *QueryResult) ([]*journal.Record, error) {
	return Verifier{LSP: lsp}.VerifyQueryResult(q, res)
}

// VerifyQueryResult is the package-level VerifyQueryResult under v.
func (v Verifier) VerifyQueryResult(q Query, res *QueryResult) ([]*journal.Record, error) {
	if res == nil {
		return nil, fmt.Errorf("%w: nil query result", ErrVerify)
	}
	if res.Query != q {
		return nil, fmt.Errorf("%w: result echoes query %v, issued %v", ErrVerify, res.Query.Kind, q.Kind)
	}
	if res.Batch == nil {
		if q.Kind == QueryByPrefix {
			if res.Absence == nil {
				return nil, fmt.Errorf("%w: empty prefix reply without absence proof", ErrVerify)
			}
			if !res.Absence.Prefix || res.Absence.Name != q.Prefix {
				return nil, fmt.Errorf("%w: absence proof is for %q, query prefix %q", ErrVerify, res.Absence.Name, q.Prefix)
			}
			if err := v.VerifyAbsence(res.Absence); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	if uint64(len(res.Batch.Items)) > q.EffectiveLimit() {
		return nil, fmt.Errorf("%w: %d matches exceed requested limit %d", ErrVerify, len(res.Batch.Items), q.EffectiveLimit())
	}
	recs, err := v.VerifyExistenceBatch(res.Batch)
	if err != nil {
		return nil, err
	}
	prev := uint64(0)
	for i, rec := range recs {
		if i > 0 && rec.JSN <= prev {
			return nil, fmt.Errorf("%w: match %d out of order (jsn %d after %d)", ErrVerify, i, rec.JSN, prev)
		}
		prev = rec.JSN
		if !q.Matches(rec) {
			return nil, fmt.Errorf("%w: proven record %d does not satisfy the %s query — index served a non-match", ErrVerify, rec.JSN, q.Kind)
		}
	}
	return recs, nil
}

// Encode serializes a query.
func (q Query) Encode(w *wire.Writer) {
	w.Uint8(uint8(q.Kind))
	w.String(q.Prefix)
	w.Int64(q.From)
	w.Int64(q.To)
	sig.EncodePublicKey(w, q.Signer)
	w.Uvarint(q.Limit)
	w.Bool(q.WithPayload)
}

// EncodeBytes is Encode into a fresh buffer.
func (q Query) EncodeBytes() []byte {
	w := wire.NewWriter(128)
	q.Encode(w)
	return w.Bytes()
}

// DecodeQueryFrom parses a query, leaving trailing bytes to the caller.
func DecodeQueryFrom(r *wire.Reader) (Query, error) {
	q := Query{
		Kind:   QueryKind(r.Uint8()),
		Prefix: r.String(),
		From:   r.Int64(),
		To:     r.Int64(),
		Signer: sig.DecodePublicKey(r),
		Limit:  r.Uvarint(),
	}
	q.WithPayload = r.Bool()
	return q, r.Err()
}

// DecodeQuery parses a transported query.
func DecodeQuery(b []byte) (Query, error) {
	r := wire.NewReader(b)
	q, err := DecodeQueryFrom(r)
	if err != nil {
		return q, err
	}
	return q, r.Finish()
}

// EncodeBytes serializes a query result for transport. The proof batch
// and absence proof nest as length-prefixed blobs so their own codecs
// (with their Finish checks) stay the single source of truth.
func (res *QueryResult) EncodeBytes() []byte {
	w := wire.NewWriter(4096)
	res.Query.Encode(w)
	w.Bool(res.Truncated)
	if res.Batch != nil {
		w.WriteBytes(res.Batch.EncodeBytes())
	} else {
		w.WriteBytes(nil)
	}
	if res.Absence != nil {
		w.WriteBytes(res.Absence.EncodeBytes())
	} else {
		w.WriteBytes(nil)
	}
	return w.Bytes()
}

// DecodeQueryResult parses a transported query result.
func DecodeQueryResult(raw []byte) (*QueryResult, error) {
	r := wire.NewReader(raw)
	q, err := DecodeQueryFrom(r)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Query: q, Truncated: r.Bool()}
	batchBytes := r.ReadBytes()
	absBytes := r.ReadBytes()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if len(batchBytes) > 0 {
		b, err := DecodeExistenceProofBatch(batchBytes)
		if err != nil {
			return nil, err
		}
		res.Batch = b
	}
	if len(absBytes) > 0 {
		a, err := DecodeAbsenceProof(absBytes)
		if err != nil {
			return nil, err
		}
		res.Absence = a
	}
	return res, nil
}
