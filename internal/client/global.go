// Cross-shard client surface: forwarding pre-signed requests (the
// router's backend path) and verifying records against the
// coordinator-signed global root. The coordinator key is pinned the
// same way the LSP key is — a distrusted router cannot fake a global
// state or proof.
package client

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/url"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// SubmitRequestReplay forwards an already-signed request under ctx,
// verifying the returned receipt against the pinned LSP key and that it
// acknowledges the request (acknowledges), and reports whether the
// service answered from its dedup window (a retry, here or upstream, of
// an append that had already committed). The router uses this per
// shard and passes the marker on; it is also the path for relaying a
// request signed by someone other than this client's Key, so its π_c
// is not filed in the verified-signature memo and its record is not
// held.
func (c *Client) SubmitRequestReplay(ctx context.Context, req *journal.Request) (*journal.Receipt, bool, error) {
	rep, receipt, _, err := c.WithContext(ctx).submitRequest(req, req.Hash())
	if err != nil {
		return nil, false, err
	}
	return receipt, rep.replay, nil
}

// submitRequest sends a signed request whose request-hash is h and
// verifies the receipt: its π_s, and that it acknowledges this request.
// It returns the record the receipt acknowledges, rebuilt from req.
func (c *Client) submitRequest(req *journal.Request, h hashutil.Digest) (*reply, *journal.Receipt, *journal.Record, error) {
	rep, err := c.callIdem("POST", "/v1/append", map[string]string{
		"request": base64.StdEncoding.EncodeToString(req.EncodeBytes()),
	}, journal.RequestKey(h))
	if err != nil {
		return nil, nil, nil, err
	}
	raw, err := rep.blob(rep.env.Receipt, "receipt")
	if err != nil {
		return nil, nil, nil, err
	}
	receipt, err := journal.DecodeReceipt(wire.NewReader(raw))
	if err != nil {
		return nil, nil, nil, rep.tamper("receipt decode", err)
	}
	if err := receipt.Verify(c.LSP); err != nil {
		return nil, nil, nil, rep.tamper("receipt signature", err)
	}
	rec := ownRecord(req, h)
	if receipt.RequestHash != h || !acknowledges(rec, receipt.JSN, receipt.Timestamp, receipt.TxHash) {
		return nil, nil, nil, rep.tamper("receipt request binding", unbound(receipt.JSN))
	}
	return rep, receipt, rec, nil
}

// ownRecord is the record a receipt acknowledges for req, whose
// request-hash is h, before the commit gives it a jsn and a timestamp:
// everything in it comes from the request the client signed, and a
// normal journal carries no Extra.
func ownRecord(req *journal.Request, h hashutil.Digest) *journal.Record {
	return &journal.Record{
		Type:          req.Type,
		RequestHash:   h,
		PayloadDigest: hashutil.Sum(req.Payload),
		PayloadSize:   uint64(len(req.Payload)),
		Clues:         req.Clues,
		StateKey:      req.StateKey,
		ClientPK:      req.ClientPK,
		ClientSig:     req.ClientSig,
		CoSigners:     req.CoSigners,
	}
}

// acknowledges places rec at jsn and commit time ts and reports whether
// its tx-hash is tx: whether π_s over tx at that position acknowledges
// the request rec was rebuilt from. A group or batch receipt signs only
// tx-hashes and the first jsn, so this is what binds the request, and
// the commit time, to it.
func acknowledges(rec *journal.Record, jsn uint64, ts int64, tx hashutil.Digest) bool {
	rec.JSN, rec.Timestamp = jsn, ts
	return rec.TxHash() == tx
}

// unbound is the error for a receipt that acknowledges, at jsn, a
// record other than the one the submitted request makes.
func unbound(jsn uint64) error {
	return fmt.Errorf("%w: receipt at jsn %d acknowledges another record than the request", journal.ErrBadSignature, jsn)
}

// bindBatch checks that a batch receipt at first (commit time ts, tx-hashes
// tx) acknowledges reqs, whose request-hashes are hashes: reqs[i] at jsn
// first+i. It returns the rebuilt records.
func bindBatch(reqs []*journal.Request, hashes []hashutil.Digest, first uint64, ts int64, tx []hashutil.Digest) ([]*journal.Record, error) {
	if len(tx) != len(reqs) {
		return nil, fmt.Errorf("%w: batch receipt covers %d journals, submitted %d", journal.ErrBadSignature, len(tx), len(reqs))
	}
	recs := make([]*journal.Record, len(reqs))
	for i, req := range reqs {
		recs[i] = ownRecord(req, hashes[i])
		if !acknowledges(recs[i], first+uint64(i), ts, tx[i]) {
			return nil, unbound(first + uint64(i))
		}
	}
	return recs, nil
}

// bindShards is bindBatch for a batch a router split by shard. Each
// shard's sub-batch keeps submission order, so the requests a shard's
// receipt acknowledges are a subsequence of reqs, found by one forward
// scan; a request is acknowledged at most once.
func bindShards(reqs []*journal.Request, hashes []hashutil.Digest, receipts map[int]*ledger.BatchReceipt, tx map[int][]hashutil.Digest) error {
	recs := make([]*journal.Record, len(reqs))
	for i, req := range reqs {
		recs[i] = ownRecord(req, hashes[i])
	}
	taken := make([]bool, len(reqs))
	for s, br := range receipts {
		next := 0
		for k, t := range tx[s] {
			jsn := br.FirstJSN + uint64(k)
			for next < len(reqs) && (taken[next] || !acknowledges(recs[next], jsn, br.Timestamp, t)) {
				next++
			}
			if next == len(reqs) {
				return unbound(jsn)
			}
			taken[next] = true
			next++
		}
	}
	return nil
}

// SubmitBatchReplay is SubmitRequestReplay for a pre-signed batch: it
// verifies the batch receipt and its binding to the requests
// (bindBatch), and returns it with the committed tx-hashes.
func (c *Client) SubmitBatchReplay(ctx context.Context, reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error) {
	br, txHashes, _, replay, err := c.WithContext(ctx).submitBatch(reqs, requestHashes(reqs))
	return br, txHashes, replay, err
}

func requestHashes(reqs []*journal.Request) []hashutil.Digest {
	hashes := make([]hashutil.Digest, len(reqs))
	for i, req := range reqs {
		hashes[i] = req.Hash()
	}
	return hashes
}

// submitBatch sends signed requests whose request-hashes are hashes and
// verifies the batch receipt of a single-node service (batchReceipt).
func (c *Client) submitBatch(reqs []*journal.Request, hashes []hashutil.Digest) (*ledger.BatchReceipt, []hashutil.Digest, []*journal.Record, bool, error) {
	rep, err := c.postBatch(reqs, hashes)
	if err != nil {
		return nil, nil, nil, false, err
	}
	br, txHashes, recs, err := c.batchReceipt(rep, reqs, hashes)
	return br, txHashes, recs, rep.replay, err
}

// batchReceipt decodes and verifies the one batch receipt of a
// single-node reply to reqs and binds it to them (bindBatch), returning
// the rebuilt records.
func (c *Client) batchReceipt(rep *reply, reqs []*journal.Request, hashes []hashutil.Digest) (*ledger.BatchReceipt, []hashutil.Digest, []*journal.Record, error) {
	raw, err := rep.blob(rep.env.Receipt, "batch receipt")
	if err != nil {
		return nil, nil, nil, err
	}
	br, txHashes, err := c.decodeBatchReceipt(rep, raw)
	if err != nil {
		return nil, nil, nil, err
	}
	recs, err := bindBatch(reqs, hashes, br.FirstJSN, br.Timestamp, txHashes)
	if err != nil {
		return nil, nil, nil, rep.tamper("batch receipt request binding", err)
	}
	return br, txHashes, recs, nil
}

// postBatch sends signed requests to /v1/append-batch under the
// idempotency key their request-hashes derive.
func (c *Client) postBatch(reqs []*journal.Request, hashes []hashutil.Digest) (*reply, error) {
	encoded := make([]string, len(reqs))
	for i, req := range reqs {
		encoded[i] = base64.StdEncoding.EncodeToString(req.EncodeBytes())
	}
	return c.callIdem("POST", "/v1/append-batch", map[string]any{"requests": encoded}, journal.BatchRequestKey(hashes))
}

// decodeBatchReceipt parses and LSP-verifies one batch-receipt wire blob
// (the shared layout of /v1/append-batch and the router's per-shard
// receipts).
func (c *Client) decodeBatchReceipt(rep *reply, raw []byte) (*ledger.BatchReceipt, []hashutil.Digest, error) {
	r := wire.NewReader(raw)
	br := &ledger.BatchReceipt{
		FirstJSN:  r.Uvarint(),
		Count:     r.Uvarint(),
		BatchHash: r.Digest(),
		Timestamp: r.Int64(),
		LSPPK:     sig.DecodePublicKey(r),
		LSPSig:    sig.DecodeSignature(r),
	}
	// Count is the server's word until the signature below is checked:
	// a reply cannot hold more digests than it has bytes left.
	if br.Count > uint64(r.Remaining()/hashutil.Size) {
		return nil, nil, rep.tamper("batch receipt decode", fmt.Errorf("%d tx-hashes in %d bytes", br.Count, r.Remaining()))
	}
	txHashes := make([]hashutil.Digest, 0, br.Count)
	for i := uint64(0); i < br.Count; i++ {
		txHashes = append(txHashes, r.Digest())
		if r.Err() != nil {
			return nil, nil, rep.tamper("batch receipt decode", r.Err())
		}
	}
	if err := r.Finish(); err != nil {
		return nil, nil, rep.tamper("batch receipt decode", err)
	}
	if err := br.Verify(c.LSP, txHashes); err != nil {
		return nil, nil, rep.tamper("batch receipt signature", err)
	}
	return br, txHashes, nil
}

// AppendRouted is Append against a sharded router: it also returns the
// shard index the request landed on, which VerifyExistenceGlobal needs
// (receipts carry shard-local jsns). Against a single-node service the
// shard is 0, and the client holds the record it rebuilt (held.go), so
// a later read of it gets a placeholder.
func (c *Client) AppendRouted(payload []byte, clues ...string) (int, *journal.Receipt, error) {
	req := &journal.Request{
		LedgerURI: c.URI,
		Type:      journal.TypeNormal,
		Clues:     clues,
		Payload:   payload,
		Nonce:     c.nextNonce(),
	}
	h, err := req.SignHash(c.Key)
	if err != nil {
		return 0, nil, err
	}
	c.memo.Signed(sig.Check{PK: req.ClientPK, Digest: h, Sig: req.ClientSig})
	rep, receipt, rec, err := c.submitRequest(req, h)
	if err != nil {
		return 0, nil, err
	}
	if rep.env.Shard != nil {
		return *rep.env.Shard, receipt, nil
	}
	c.held.file(c.BaseURL, rec)
	return 0, receipt, nil
}

// AppendBatchSharded signs and submits a batch through the router's
// fan-out, returning each shard's verified batch receipt and tx-hashes
// keyed by shard index. The client checks that the shards' receipts
// cover exactly the submitted count — a router cannot silently drop a
// sub-batch — and acknowledge its requests (bindShards). Against a
// single-node service it holds the rebuilt records, as AppendBatch does.
func (c *Client) AppendBatchSharded(payloads [][]byte, clues [][]string) (map[int]*ledger.BatchReceipt, map[int][]hashutil.Digest, error) {
	reqs, reqHashes, err := c.signBatch(payloads, clues)
	if err != nil {
		return nil, nil, err
	}
	rep, err := c.postBatch(reqs, reqHashes)
	if err != nil {
		return nil, nil, err
	}
	if rep.env.Receipts == nil {
		// A single-node service answered with one receipt; present it as
		// shard 0 so callers are topology-agnostic.
		br, tx, recs, err := c.batchReceipt(rep, reqs, reqHashes)
		if err != nil {
			return nil, nil, err
		}
		c.held.file(c.BaseURL, recs...)
		return map[int]*ledger.BatchReceipt{0: br}, map[int][]hashutil.Digest{0: tx}, nil
	}
	receipts := make(map[int]*ledger.BatchReceipt, len(rep.env.Receipts))
	hashes := make(map[int][]hashutil.Digest, len(rep.env.Receipts))
	var covered uint64
	for key, enc := range rep.env.Receipts {
		var shardIdx int
		if _, err := fmt.Sscanf(key, "%d", &shardIdx); err != nil {
			return nil, nil, rep.tamper("batch receipt shard key", fmt.Errorf("%w: shard key %q", ErrHTTP, key))
		}
		raw, err := rep.blob(enc, "batch receipt")
		if err != nil {
			return nil, nil, err
		}
		br, tx, err := c.decodeBatchReceipt(rep, raw)
		if err != nil {
			return nil, nil, err
		}
		receipts[shardIdx] = br
		hashes[shardIdx] = tx
		covered += br.Count
	}
	if covered != uint64(len(payloads)) {
		return nil, nil, rep.tamper("batch coverage",
			fmt.Errorf("%w: receipts cover %d journals, submitted %d", ledger.ErrVerify, covered, len(payloads)))
	}
	if err := bindShards(reqs, reqHashes, receipts, hashes); err != nil {
		return nil, nil, rep.tamper("batch receipt request binding", err)
	}
	return receipts, hashes, nil
}

// globalVerifier is verifier for the cross-shard trust root.
func (c *Client) globalVerifier() shard.Verifier {
	c.shared()
	return shard.Verifier{Coordinator: c.Coordinator, Memo: c.memo}
}

// GlobalState fetches the coordinator-signed cross-shard state and
// verifies it against the pinned Coordinator key.
func (c *Client) GlobalState() (*shard.GlobalState, error) {
	rep, err := c.call("GET", "/v1/global", nil)
	if err != nil {
		return nil, err
	}
	raw, err := rep.blob(rep.env.Global, "global state")
	if err != nil {
		return nil, err
	}
	g, err := shard.DecodeGlobalStateBytes(raw)
	if err != nil {
		return nil, rep.tamper("global state decode", err)
	}
	if err := c.globalVerifier().VerifyGlobalState(g); err != nil {
		return nil, rep.tamper("global state signature", err)
	}
	return g, nil
}

// VerifyExistenceGlobal runs the full cross-shard verification for one
// record: fetch the global proof and locally check the chain record →
// shard fam root → coordinator-signed global root. Only the pinned
// Coordinator key is trusted — the shard's own signed state never
// enters the check.
func (c *Client) VerifyExistenceGlobal(shardIdx int, jsn uint64, withPayload bool) (*journal.Record, []byte, error) {
	path := fmt.Sprintf("/v1/proof-global/%d/%d", shardIdx, jsn)
	if withPayload {
		path += "?payload=1"
	}
	rep, err := c.call("GET", path, nil)
	if err != nil {
		return nil, nil, err
	}
	raw, err := rep.blob(rep.env.Proof, "global proof")
	if err != nil {
		return nil, nil, err
	}
	p, err := shard.DecodeGlobalProof(raw)
	if err != nil {
		return nil, nil, rep.tamper("global proof decode", err)
	}
	rec, err := c.globalVerifier().VerifyGlobal(p)
	if err != nil {
		return nil, nil, rep.tamper("global proof verification", err)
	}
	if rec.JSN != jsn || int(p.Head.Shard) != shardIdx {
		return nil, nil, rep.tamper("global proof binding",
			fmt.Errorf("%w: proof is for shard %d jsn %d, want shard %d jsn %d",
				ledger.ErrVerify, p.Head.Shard, rec.JSN, shardIdx, jsn))
	}
	return rec, p.Record.Payload, nil
}

// ShardOf asks the router which shard owns a clue (and how many shards
// the topology has), so shard-local reads can go to the owning service.
func (c *Client) ShardOf(clue string) (shardIdx, shards int, err error) {
	rep, err := c.call("GET", "/v1/shard-of?clue="+url.QueryEscape(clue), nil)
	if err != nil {
		return 0, 0, err
	}
	if rep.env.Shard == nil {
		return 0, 0, rep.tamper("shard-of shape", fmt.Errorf("%w: missing shard index", ErrHTTP))
	}
	return *rep.env.Shard, rep.env.Shards, nil
}

// DiscoverCoordinator fetches the router's advertised coordinator key.
// Trust-on-first-use, same caveats as DiscoverLSP.
func (c *Client) DiscoverCoordinator() (sig.PublicKey, error) {
	rep, err := c.call("GET", "/v1/info", nil)
	if err != nil {
		return sig.PublicKey{}, err
	}
	return sig.ParsePublicKey(rep.env.CoordKey)
}
