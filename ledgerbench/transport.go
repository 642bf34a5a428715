package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// newKeepAliveTransport returns a transport that holds exactly one
// keep-alive connection: one per closed-loop client, as a ledger member
// would.
func newKeepAliveTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
	}
}

// countingTransport adds up response body bytes. It is the one
// instrument that stays on in untraced runs: resp_bytes_per_op cannot
// be read off a chunked response without looking at the body.
type countingTransport struct {
	inner http.RoundTripper
	bytes atomic.Uint64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Uint64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(uint64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{resp.Body, &t.bytes}
	return resp, nil
}

// tamperTransport flips bits of the first signed blob in every reply.
// A client call made through it must end in a TamperError; if it does
// not, verification is off and every number the run would print is
// meaningless (the tamper gate).
type tamperTransport struct {
	inner   http.RoundTripper
	flipped int // replies altered
}

// blobFields are the envelope fields that carry signed wire blobs, with
// the position the gate tampers at. Receipts are hit inside the request
// hash (bytes 8 and 9 follow the <= 8-byte jsn varint): a group-commit
// receipt's block hash is advisory and deliberately not covered by pi_s,
// so a flip in the middle could be legitimately accepted. Proofs and
// query results are hit in the middle.
//
// The gate flips one bit in each of TWO adjacent bytes. Every encoded
// journal record ends in its occult flag, a whole byte that the tx-hash
// leaves out by design (occulting must not change the digest the
// accumulators hold), so a reply whose single flipped byte happens to be
// that flag verifies, rightly: about one clue proof in 300, and it
// failed one calibration run in 600 gates. The flag is one byte between
// two covered ones, so of two adjacent bytes at least one is covered.
var blobFields = []struct {
	name string
	pos  func(n int) int
}{
	{"receipt", func(int) int { return 8 }},
	{"receipts", func(int) int { return 8 }},
	{"proof", func(n int) int { return n / 2 }},
	{"result", func(n int) int { return n / 2 }},
	{"results", func(n int) int { return n / 2 }},
}

func flipB64(enc string, pos func(int) int) (string, error) {
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return "", err
	}
	p := pos(len(raw))
	if p+1 >= len(raw) {
		return "", fmt.Errorf("blob of %d bytes too short to flip bytes %d and %d", len(raw), p, p+1)
	}
	raw[p] ^= 0x01
	raw[p+1] ^= 0x01
	return base64.StdEncoding.EncodeToString(raw), nil
}

func (t *tamperTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var env map[string]json.RawMessage
	if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &env) == nil {
		for _, f := range blobFields {
			raw, ok := env[f.name]
			if !ok {
				continue
			}
			var one string
			var many map[string]string
			switch {
			case json.Unmarshal(raw, &one) == nil:
				if one, err = flipB64(one, f.pos); err != nil {
					return nil, err
				}
				env[f.name], _ = json.Marshal(one) // a string always marshals
			case json.Unmarshal(raw, &many) == nil && len(many) > 0:
				keys := make([]string, 0, len(many))
				for k := range many {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if many[keys[0]], err = flipB64(many[keys[0]], f.pos); err != nil {
					return nil, err
				}
				env[f.name], _ = json.Marshal(many) // a string map always marshals
			default:
				continue
			}
			body, _ = json.Marshal(env) // re-marshal of what just unmarshalled
			t.flipped++
			break
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	resp.TransferEncoding = nil
	return resp, nil
}
