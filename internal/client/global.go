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

// SubmitRequest forwards an already-signed request, verifying the
// returned receipt against the pinned LSP key and the request hash. The
// router uses this per shard; it is also the path for relaying a
// request signed by someone other than this client's Key.
func (c *Client) SubmitRequest(req *journal.Request) (*journal.Receipt, error) {
	_, receipt, err := c.submitRequest(req)
	return receipt, err
}

// SubmitRequestReplay is SubmitRequest under ctx that also reports
// whether the service answered from its dedup window (a retry, here or
// upstream, of an append that had already committed). The router
// forwards under its own request's context and passes the marker on.
func (c *Client) SubmitRequestReplay(ctx context.Context, req *journal.Request) (*journal.Receipt, bool, error) {
	rep, receipt, err := c.WithContext(ctx).submitRequest(req)
	if err != nil {
		return nil, false, err
	}
	return receipt, rep.replay, nil
}

func (c *Client) submitRequest(req *journal.Request) (*reply, *journal.Receipt, error) {
	rep, err := c.callIdem("POST", "/v1/append", map[string]string{
		"request": base64.StdEncoding.EncodeToString(req.EncodeBytes()),
	}, journal.RequestKey(req.Hash()))
	if err != nil {
		return nil, nil, err
	}
	raw, err := rep.blob(rep.env.Receipt, "receipt")
	if err != nil {
		return nil, nil, err
	}
	receipt, err := journal.DecodeReceipt(wire.NewReader(raw))
	if err != nil {
		return nil, nil, rep.tamper("receipt decode", err)
	}
	if err := receipt.Verify(c.LSP); err != nil {
		return nil, nil, rep.tamper("receipt signature", err)
	}
	if receipt.RequestHash != req.Hash() {
		return nil, nil, rep.tamper("receipt request binding",
			fmt.Errorf("%w: receipt acknowledges a different request", journal.ErrBadSignature))
	}
	return rep, receipt, nil
}

// SubmitBatch forwards a pre-signed batch, verifying the batch receipt
// and returning it with the committed tx-hashes.
func (c *Client) SubmitBatch(reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, error) {
	br, txHashes, _, err := c.submitBatch(reqs)
	return br, txHashes, err
}

// SubmitBatchReplay is SubmitRequestReplay for a batch.
func (c *Client) SubmitBatchReplay(ctx context.Context, reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error) {
	return c.WithContext(ctx).submitBatch(reqs)
}

func (c *Client) submitBatch(reqs []*journal.Request) (*ledger.BatchReceipt, []hashutil.Digest, bool, error) {
	encoded := make([]string, len(reqs))
	reqHashes := make([]hashutil.Digest, len(reqs))
	for i, req := range reqs {
		encoded[i] = base64.StdEncoding.EncodeToString(req.EncodeBytes())
		reqHashes[i] = req.Hash()
	}
	rep, err := c.callIdem("POST", "/v1/append-batch", map[string]any{"requests": encoded}, journal.BatchRequestKey(reqHashes))
	if err != nil {
		return nil, nil, false, err
	}
	raw, err := rep.blob(rep.env.Receipt, "batch receipt")
	if err != nil {
		return nil, nil, false, err
	}
	br, txHashes, err := c.decodeBatchReceipt(rep, raw)
	return br, txHashes, rep.replay, err
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
// shard is 0.
func (c *Client) AppendRouted(payload []byte, clues ...string) (int, *journal.Receipt, error) {
	req := &journal.Request{
		LedgerURI: c.URI,
		Type:      journal.TypeNormal,
		Clues:     clues,
		Payload:   payload,
		Nonce:     c.nextNonce(),
	}
	if err := req.Sign(c.Key); err != nil {
		return 0, nil, err
	}
	rep, receipt, err := c.submitRequest(req)
	if err != nil {
		return 0, nil, err
	}
	shardIdx := 0
	if rep.env.Shard != nil {
		shardIdx = *rep.env.Shard
	}
	return shardIdx, receipt, nil
}

// AppendBatchSharded signs and submits a batch through the router's
// fan-out, returning each shard's verified batch receipt and tx-hashes
// keyed by shard index. The client checks that the shards' receipts
// cover exactly the submitted count — a router cannot silently drop a
// sub-batch.
func (c *Client) AppendBatchSharded(payloads [][]byte, clues [][]string) (map[int]*ledger.BatchReceipt, map[int][]hashutil.Digest, error) {
	if clues != nil && len(clues) != len(payloads) {
		return nil, nil, fmt.Errorf("%w: %d clue sets for %d payloads", journal.ErrBadRequest, len(clues), len(payloads))
	}
	encoded := make([]string, len(payloads))
	reqHashes := make([]hashutil.Digest, len(payloads))
	for i, p := range payloads {
		req := &journal.Request{
			LedgerURI: c.URI,
			Type:      journal.TypeNormal,
			Payload:   p,
			Nonce:     c.nextNonce(),
		}
		if clues != nil {
			req.Clues = clues[i]
		}
		if err := req.Sign(c.Key); err != nil {
			return nil, nil, err
		}
		encoded[i] = base64.StdEncoding.EncodeToString(req.EncodeBytes())
		reqHashes[i] = req.Hash()
	}
	rep, err := c.callIdem("POST", "/v1/append-batch", map[string]any{"requests": encoded}, journal.BatchRequestKey(reqHashes))
	if err != nil {
		return nil, nil, err
	}
	if rep.env.Receipts == nil {
		// A single-node service answered with one receipt; present it as
		// shard 0 so callers are topology-agnostic.
		raw, err := rep.blob(rep.env.Receipt, "batch receipt")
		if err != nil {
			return nil, nil, err
		}
		br, tx, err := c.decodeBatchReceipt(rep, raw)
		if err != nil {
			return nil, nil, err
		}
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
