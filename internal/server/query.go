// The verified rich-query surface: GET /v1/query serves
// prefix/time/signer reads out of the sidecar index with
// proof-carrying results, GET /v1/absence serves the ledger's
// authenticated "no such clue". Query parameters, not JSON bodies —
// both reads are cacheable GETs a curl example can exercise.
package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
)

// queryFromURL builds a ledger.Query from request parameters:
//
//	kind=prefix [&prefix=P]                — clues starting with P
//	kind=time   &from=T1 &to=T2           — commit timestamps in [T1,T2)
//	kind=signer &signer=<hex public key>  — records signed by a key
//
// plus limit=N and payload=1 on any kind. The router uses the same
// parser, so the two surfaces cannot drift.
func queryFromURL(v url.Values) (ledger.Query, error) {
	var q ledger.Query
	switch kind := v.Get("kind"); kind {
	case "prefix":
		q.Kind = ledger.QueryByPrefix
		q.Prefix = v.Get("prefix")
	case "time":
		q.Kind = ledger.QueryByTime
		var err error
		if q.From, err = strconv.ParseInt(v.Get("from"), 10, 64); err != nil {
			return q, fmt.Errorf("%w: from: %v", journal.ErrBadRequest, err)
		}
		if q.To, err = strconv.ParseInt(v.Get("to"), 10, 64); err != nil {
			return q, fmt.Errorf("%w: to: %v", journal.ErrBadRequest, err)
		}
	case "signer":
		q.Kind = ledger.QueryBySigner
		pk, err := sig.ParsePublicKey(v.Get("signer"))
		if err != nil {
			return q, fmt.Errorf("%w: signer: %v", journal.ErrBadRequest, err)
		}
		q.Signer = pk
	default:
		return q, fmt.Errorf("%w: kind %q (want prefix|time|signer)", journal.ErrBadRequest, kind)
	}
	if s := v.Get("limit"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return q, fmt.Errorf("%w: limit: %v", journal.ErrBadRequest, err)
		}
		q.Limit = n
	}
	q.WithPayload = v.Get("payload") == "1"
	return q, q.Validate()
}

// absenceFromURL parses /v1/absence parameters: clue=<name>, plus
// prefix=1 to ask about the whole prefix. An empty clue is only
// meaningful as a prefix (it asks "is the ledger clue-empty?").
func absenceFromURL(v url.Values) (name string, prefix bool, err error) {
	name, prefix = v.Get("clue"), v.Get("prefix") == "1"
	if name == "" && !prefix {
		return "", false, fmt.Errorf("%w: missing clue", journal.ErrBadRequest)
	}
	return name, prefix, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	q, err := queryFromURL(r.URL.Query())
	if err != nil {
		return nil, err
	}
	res, err := s.query(q)
	if err != nil {
		return nil, err
	}
	return &Envelope{Result: b64(res.EncodeBytes())}, nil
}

func (s *Server) handleAbsence(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	name, prefix, err := absenceFromURL(r.URL.Query())
	if err != nil {
		return nil, err
	}
	ap, err := s.Ledger.ProveAbsence(name, prefix)
	if err != nil {
		return nil, err
	}
	return &Envelope{Result: b64(ap.EncodeBytes())}, nil
}
