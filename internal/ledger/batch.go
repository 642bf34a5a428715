package ledger

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements batched ingestion — the write path behind the
// LedgerDB throughput headline (§II-C: "its system throughput is
// significantly higher (exceeding 300,000 TPS)"). Two costs dominate a
// single Append: the client's π_c verification and the LSP's π_s
// signature. A batch verifies all request signatures in parallel outside
// the commit lock, commits as one pipeline unit, and signs ONE receipt
// covering every journal in the batch.

// BatchReceipt is the LSP's signed acknowledgement of a contiguous batch
// of journals: the jsn range plus a digest binding every tx-hash in
// order. Any member holding it can later prove what the LSP committed
// to for any journal in the range (given the batch's tx-hash list).
type BatchReceipt struct {
	FirstJSN  uint64
	Count     uint64
	BatchHash hashutil.Digest // Concat of the batch's tx-hashes, in order
	Timestamp int64
	LSPPK     sig.PublicKey
	LSPSig    sig.Signature
}

// BatchDigest computes the digest a batch receipt commits to.
func BatchDigest(txHashes []hashutil.Digest) hashutil.Digest {
	return hashutil.Concat(txHashes...)
}

func (br *BatchReceipt) signedDigest() hashutil.Digest {
	w := wire.GetWriter()
	w.String("ledgerdb/batch-receipt/v1")
	w.Uvarint(br.FirstJSN)
	w.Uvarint(br.Count)
	w.Digest(br.BatchHash)
	w.Int64(br.Timestamp)
	sig.EncodePublicKey(w, br.LSPPK)
	d := hashutil.Sum(w.Bytes())
	wire.PutWriter(w)
	return d
}

func (br *BatchReceipt) sign(kp *sig.KeyPair) error {
	br.LSPPK = kp.Public()
	s, err := kp.Sign(br.signedDigest())
	if err != nil {
		return err
	}
	br.LSPSig = s
	return nil
}

// Verify checks π_s on the batch receipt and, when txHashes is non-nil,
// that they reproduce the committed batch hash.
func (br *BatchReceipt) Verify(lsp sig.PublicKey, txHashes []hashutil.Digest) error {
	if br.LSPPK != lsp {
		return fmt.Errorf("%w: batch receipt signed by %s, want %s", journal.ErrBadSignature, br.LSPPK, lsp)
	}
	if err := sig.Verify(br.LSPPK, br.signedDigest(), br.LSPSig); err != nil {
		return fmt.Errorf("%w: batch π_s: %v", journal.ErrBadSignature, err)
	}
	if txHashes != nil {
		if uint64(len(txHashes)) != br.Count {
			return fmt.Errorf("%w: %d tx-hashes for batch of %d", journal.ErrBadSignature, len(txHashes), br.Count)
		}
		if BatchDigest(txHashes) != br.BatchHash {
			return fmt.Errorf("%w: batch hash mismatch", journal.ErrBadSignature)
		}
	}
	return nil
}

// AppendBatch validates and commits a batch of normal journals. Stage 1
// fans admission (request signatures, digesting, blob writes) across
// CPUs before any lock is taken; the whole batch then rides the pipeline
// as one unit, and one signed BatchReceipt covers it. All-or-nothing:
// any invalid request rejects the entire batch before anything is
// committed.
func (l *Ledger) AppendBatch(reqs []*journal.Request) (*BatchReceipt, []hashutil.Digest, error) {
	if err := l.writable(); err != nil {
		return nil, nil, err
	}
	if len(reqs) == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", journal.ErrBadRequest)
	}
	adms, err := l.admitBatch(reqs)
	if err != nil {
		return nil, nil, err
	}
	unit, err := l.sequence(adms, true)
	if err != nil {
		return nil, nil, err
	}
	<-unit.done
	if unit.err != nil {
		return nil, nil, unit.err
	}
	if err := unit.br.sign(l.cfg.LSP); err != nil {
		return nil, nil, err
	}
	return unit.br, unit.txHashes, nil
}
