// Rich-query client surface: proof-carrying prefix/time/signer reads
// and authenticated absence. Every reply is re-verified locally against
// the pinned LSP key before it is returned — the server's index is
// cache, the proofs are the product, and a tampered reply surfaces as
// TamperError with evidence, exactly like the point-read paths.
package client

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/shard"
)

// queryPath renders a query as /v1/query parameters (the server's
// queryFromURL is the inverse).
func queryPath(q ledger.Query) string {
	v := url.Values{}
	switch q.Kind {
	case ledger.QueryByPrefix:
		v.Set("kind", "prefix")
		if q.Prefix != "" {
			v.Set("prefix", q.Prefix)
		}
	case ledger.QueryByTime:
		v.Set("kind", "time")
		v.Set("from", strconv.FormatInt(q.From, 10))
		v.Set("to", strconv.FormatInt(q.To, 10))
	case ledger.QueryBySigner:
		v.Set("kind", "signer")
		v.Set("signer", q.Signer.Hex())
	}
	if q.Limit != 0 {
		v.Set("limit", strconv.FormatUint(q.Limit, 10))
	}
	if q.WithPayload {
		v.Set("payload", "1")
	}
	return "/v1/query?" + v.Encode()
}

// absencePath renders an absence request as /v1/absence parameters.
func absencePath(name string, prefix bool) string {
	v := url.Values{}
	v.Set("clue", name)
	if prefix {
		v.Set("prefix", "1")
	}
	return "/v1/absence?" + v.Encode()
}

// decodeVerifiedResult decodes one QueryResult blob, puts back the
// records the reply left out because the request named them as held,
// and runs the full offline verification against the issued query. The
// result comes back whole, as a server that held nothing back would
// have sent it.
func (c *Client) decodeVerifiedResult(rep *reply, enc string, q ledger.Query, held *heldSet, named namedTrust) ([]*journal.Record, *ledger.QueryResult, int, error) {
	raw, err := rep.blob(enc, "query result")
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := ledger.DecodeQueryResult(raw)
	if err != nil {
		return nil, nil, 0, rep.tamper("query result decode", err)
	}
	var filled int
	if res.Batch != nil {
		c.held.saw(res.Batch.Slot)
		if filled, err = res.Batch.Fill(held.get); err != nil {
			return nil, nil, 0, rep.tamper("query held records", err)
		}
		if err := res.Batch.FillState(named.state); err != nil {
			return nil, nil, 0, rep.tamper("query state slot", err)
		}
	}
	recs, err := c.verifier().VerifyQueryResult(q, res)
	if err != nil {
		return nil, nil, 0, rep.tamper("query result verification", err)
	}
	return recs, res, filled, nil
}

// queryHeld issues q naming the matches of its last verified answer the
// client still holds, and verifies a single-service reply, filing its
// records for the next time. A sharded reply (a router, which never
// leaves records out) is handed back unverified with a nil result.
func (c *Client) queryHeld(q ledger.Query) (*reply, []*journal.Record, *ledger.QueryResult, error) {
	c.shared()
	path := queryPath(q)
	key := "query\x00" + path
	held := c.held.named(c.BaseURL, key)
	named := c.held.snapshot(c.trustKey())
	rep, err := c.call("GET", path+held.param()+named.params(false), nil)
	if err != nil || rep.env.Results != nil {
		return rep, nil, nil, err
	}
	recs, res, filled, err := c.decodeVerifiedResult(rep, rep.env.Result, q, held, named)
	if err != nil {
		return nil, nil, nil, err
	}
	if res.Batch != nil {
		raws := make([][]byte, len(res.Batch.Items))
		for i := range res.Batch.Items {
			raws[i] = res.Batch.Items[i].RecordBytes
		}
		c.held.remember(c.BaseURL, key, raws, recs, filled)
		c.held.learn(c.trustKey(), res.Batch.State, nil, nil)
	}
	return rep, recs, res, nil
}

// Query runs a verified rich read against a single ledger service (or
// one shard) and returns the proof-carrying result. It implements the
// router's ShardBackend read path. Use QueryRecords for the decoded
// records, or against a router.
func (c *Client) Query(q ledger.Query) (*ledger.QueryResult, error) {
	_, _, res, err := c.queryHeld(q)
	if err == nil && res == nil {
		err = fmt.Errorf("%w: sharded reply to single-shard query (use QueryRecords)", ErrHTTP)
	}
	return res, err
}

// QueryRecords runs a verified rich read against either a single
// service or a sharded router, returning the proven records. Sharded
// replies carry one independently verified result per shard; records
// come back grouped by shard index, ascending jsn within each.
func (c *Client) QueryRecords(q ledger.Query) ([]*journal.Record, error) {
	rep, recs, res, err := c.queryHeld(q)
	if err != nil || res != nil {
		return recs, err
	}
	if len(rep.env.Results) != rep.env.Shards {
		return nil, rep.tamper("query coverage",
			fmt.Errorf("%w: %d shard results for %d shards", ledger.ErrVerify, len(rep.env.Results), rep.env.Shards))
	}
	shards := make([]int, 0, len(rep.env.Results))
	for key := range rep.env.Results {
		i, err := strconv.Atoi(key)
		if err != nil || i < 0 || i >= rep.env.Shards {
			return nil, rep.tamper("query shard key", fmt.Errorf("%w: shard key %q", ErrHTTP, key))
		}
		shards = append(shards, i)
	}
	sort.Ints(shards)
	var out []*journal.Record
	for _, i := range shards {
		recs, _, _, err := c.decodeVerifiedResult(rep, rep.env.Results[strconv.Itoa(i)], q, &heldSet{}, namedTrust{})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// decodeVerifiedAbsence decodes one AbsenceProof blob, verifies it
// against the pinned LSP key, and binds it to the issued question.
func (c *Client) decodeVerifiedAbsence(rep *reply, enc, name string, prefix bool) (*ledger.AbsenceProof, error) {
	raw, err := rep.blob(enc, "absence proof")
	if err != nil {
		return nil, err
	}
	ap, err := ledger.DecodeAbsenceProof(raw)
	if err != nil {
		return nil, rep.tamper("absence proof decode", err)
	}
	if ap.Name != name || ap.Prefix != prefix {
		return nil, rep.tamper("absence proof binding",
			fmt.Errorf("%w: proof answers (%q, prefix=%t), asked (%q, prefix=%t)", ledger.ErrVerify, ap.Name, ap.Prefix, name, prefix))
	}
	if err := c.verifier().VerifyAbsence(ap); err != nil {
		return nil, rep.tamper("absence proof verification", err)
	}
	return ap, nil
}

// ProveAbsence fetches and verifies an authenticated absence from a
// single ledger service (or one shard). It implements the router's
// ShardBackend read path; ErrPresent surfaces as the 409 APIError.
func (c *Client) ProveAbsence(name string, prefix bool) (*ledger.AbsenceProof, error) {
	rep, err := c.call("GET", absencePath(name, prefix), nil)
	if err != nil {
		return nil, err
	}
	if rep.env.Results != nil {
		return nil, fmt.Errorf("%w: sharded reply to single-shard absence (use VerifyAbsence)", ErrHTTP)
	}
	return c.decodeVerifiedAbsence(rep, rep.env.Result, name, prefix)
}

// VerifyAbsence establishes, against either a single service or a
// sharded router, that no live clue equals name (or starts with it
// when prefix). The returned proofs — one per shard — are what a
// skeptical third party re-verifies offline. For sharded prefix
// absence every shard must prove its own clue set clean; for an exact
// clue the client recomputes the partitioner route locally, so a
// malicious router cannot point the question at a shard that never
// owned the clue.
func (c *Client) VerifyAbsence(name string, prefix bool) ([]*ledger.AbsenceProof, error) {
	rep, err := c.call("GET", absencePath(name, prefix), nil)
	if err != nil {
		return nil, err
	}
	if rep.env.Results == nil {
		if rep.env.Shard != nil && rep.env.Shards > 1 {
			part, err := shard.NewPartitioner(rep.env.Shards)
			if err != nil {
				return nil, err
			}
			if want := part.ShardOfClue(name); want != *rep.env.Shard {
				return nil, rep.tamper("absence shard binding",
					fmt.Errorf("%w: clue %q routes to shard %d, proof came from %d", ledger.ErrVerify, name, want, *rep.env.Shard))
			}
		}
		ap, err := c.decodeVerifiedAbsence(rep, rep.env.Result, name, prefix)
		if err != nil {
			return nil, err
		}
		return []*ledger.AbsenceProof{ap}, nil
	}
	if len(rep.env.Results) != rep.env.Shards {
		return nil, rep.tamper("absence coverage",
			fmt.Errorf("%w: %d shard proofs for %d shards", ledger.ErrVerify, len(rep.env.Results), rep.env.Shards))
	}
	proofs := make([]*ledger.AbsenceProof, 0, rep.env.Shards)
	for i := 0; i < rep.env.Shards; i++ {
		enc, ok := rep.env.Results[strconv.Itoa(i)]
		if !ok {
			return nil, rep.tamper("absence coverage",
				fmt.Errorf("%w: shard %d missing from absence reply", ledger.ErrVerify, i))
		}
		ap, err := c.decodeVerifiedAbsence(rep, enc, name, prefix)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		proofs = append(proofs, ap)
	}
	return proofs, nil
}

// IsPresent reports whether an absence request failed because the clue
// is live (the server's 409).
func IsPresent(err error) bool {
	var api *APIError
	return errors.As(err, &api) && api.Status == 409
}
