package ledger

import (
	"fmt"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements offline proof bundles: a self-contained artifact
// proving one journal's existence (and, when the ledger has been
// two-way pegged, its when bound) that verifies with ZERO network
// access — only the pinned LSP public key, and optionally a pinned TSA
// key. A bundle exported before a partition, a purge, or the service's
// disappearance keeps proving the record forever: ubiquitous
// verification taken to its limit, where the verifier needs nothing but
// bytes and keys.

// bundleMagic domain-separates the bundle encoding.
const bundleMagic = "ledgerdb/bundle/v1"

// maxBundleBytes caps each variable-length bundle field at decode time.
const maxBundleBytes = 1 << 26

// ProofBundle is the self-contained artifact. The record's existence
// anchors to State.JournalRoot through Fam. When a time chain is
// present, TimeRecordBytes is a time journal committed after the
// record, TimeFam anchors it to the same State, and TimeProof folds the
// record into the attestation's digest — the fam root over exactly the
// journals preceding the time journal — which a TSA signed at a known
// wall-clock instant. Together they bound the record's commit time from
// above without trusting the LSP's clock (Protocol 3's when factor).
type ProofBundle struct {
	URI         string
	RecordBytes []byte
	Payload     []byte // optional; nil for occulted or digest-only bundles
	Fam         *fam.Proof
	State       *SignedState

	// Optional when-chain (all three present or all three nil).
	TimeRecordBytes []byte
	TimeFam         *fam.Proof
	TimeProof       *fam.Proof
}

// ExportBundle builds an offline bundle for jsn. On a primary it
// anchors to a freshly signed live state; on a follower it anchors to
// the newest primary-signed checkpoint (the record must be covered by
// it). The time chain is attached when a time journal exists between
// the record and the anchoring state; bundles without one still prove
// existence, just not commit-time.
func (l *Ledger) ExportBundle(jsn uint64, withPayload bool) (*ProofBundle, error) {
	l.mu.RLock()
	if jsn >= l.nextJSN {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, l.nextJSN)
	}
	if jsn < l.base {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d", ErrPurged, jsn)
	}
	st, err := l.frontierStateLocked(jsn)
	if err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	b := &ProofBundle{URI: l.cfg.URI, State: st}
	if b.Fam, err = l.fam.ProveAt(jsn, st.JSN); err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	// The earliest time journal after the record gives the tightest
	// upper bound on its commit time. Scan is bounded by the live
	// prefix; bundles are an export-time operation, not a hot path.
	var timeJSN uint64
	var timeRaw []byte
	scanErr := l.journals.Iterate(jsn+1, func(tj uint64, raw []byte) error {
		if tj >= st.JSN {
			return errStopIterate
		}
		rec, derr := journal.DecodeRecord(raw)
		if derr != nil {
			return derr
		}
		if rec.Type != journal.TypeTime {
			return nil
		}
		timeJSN = tj
		timeRaw = append([]byte(nil), raw...)
		return errStopIterate
	})
	if scanErr != nil && scanErr != errStopIterate {
		l.mu.RUnlock()
		return nil, scanErr
	}
	if timeRaw != nil {
		b.TimeRecordBytes = timeRaw
		if b.TimeFam, err = l.fam.ProveAt(timeJSN, st.JSN); err != nil {
			l.mu.RUnlock()
			return nil, err
		}
		// The attestation's digest is the fam root over [0, timeJSN) —
		// AnchorTimeWith holds the commit lock across the pegging round,
		// so the root at size timeJSN is exactly what the TSA signed.
		if b.TimeProof, err = l.fam.ProveAt(jsn, timeJSN); err != nil {
			l.mu.RUnlock()
			return nil, err
		}
	}
	occ := l.occulted[jsn]
	l.mu.RUnlock()

	raw, err := l.readJournalBytes(jsn)
	if err != nil {
		return nil, err
	}
	b.RecordBytes = raw
	if withPayload && !occ {
		if b.Payload, err = l.proofPayload(raw); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// VerifyBundle is the pure offline check: no ledger, no network, no
// clock. lsp is the pinned signing key of the ledger (the primary's,
// for bundles exported from a follower — they are the same key).
// tsaKeys optionally pins the acceptable TSA keys; empty means any key
// whose signature verifies (trust-on-export). Returns the decoded
// record and, when a time chain is present, the verified attestation
// whose Timestamp upper-bounds the record's commit time.
func VerifyBundle(b *ProofBundle, lsp sig.PublicKey, tsaKeys []sig.PublicKey) (*journal.Record, *journal.TimeAttestation, error) {
	return Verifier{LSP: lsp}.VerifyBundle(b, tsaKeys)
}

// VerifyBundle is the package-level VerifyBundle under v. The TSA
// attestation is checked from scratch either way: a client meets each
// one once.
func (v Verifier) VerifyBundle(b *ProofBundle, tsaKeys []sig.PublicKey) (*journal.Record, *journal.TimeAttestation, error) {
	if b == nil || b.State == nil || b.Fam == nil {
		return nil, nil, fmt.Errorf("%w: incomplete bundle", ErrVerify)
	}
	if b.URI != b.State.URI {
		return nil, nil, fmt.Errorf("%w: bundle for %q carries state of %q", ErrVerify, b.URI, b.State.URI)
	}
	if err := v.VerifySignedState(b.State); err != nil {
		return nil, nil, err
	}
	rec, err := v.verifyExistenceItem(b.RecordBytes, b.Payload, b.Fam, nil, b.State.JournalRoot)
	if err != nil {
		return nil, nil, err
	}
	if b.TimeRecordBytes == nil {
		if b.TimeFam != nil || b.TimeProof != nil {
			return nil, nil, fmt.Errorf("%w: time proofs without a time journal", ErrVerify)
		}
		return rec, nil, nil
	}
	if b.TimeFam == nil || b.TimeProof == nil {
		return nil, nil, fmt.Errorf("%w: incomplete time chain", ErrVerify)
	}
	trec, err := v.verifyExistenceItem(b.TimeRecordBytes, nil, b.TimeFam, nil, b.State.JournalRoot)
	if err != nil {
		return nil, nil, fmt.Errorf("time journal: %w", err)
	}
	if trec.Type != journal.TypeTime {
		return nil, nil, fmt.Errorf("%w: when-chain journal %d is %s, not a time journal", ErrVerify, trec.JSN, trec.Type)
	}
	if rec.JSN >= trec.JSN {
		return nil, nil, fmt.Errorf("%w: time journal %d does not postdate record %d", ErrVerify, trec.JSN, rec.JSN)
	}
	ta, err := journal.DecodeTimeAttestation(trec.Extra)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: attestation: %v", ErrVerify, err)
	}
	if err := ta.Verify(); err != nil {
		return nil, nil, err
	}
	if len(tsaKeys) > 0 {
		ok := false
		for _, pk := range tsaKeys {
			if ta.TSAPK == pk {
				ok = true
				break
			}
		}
		if !ok {
			return nil, nil, fmt.Errorf("%w: attestation signed by unpinned TSA key", ErrVerify)
		}
	}
	// The record folds into the digest the TSA signed, so the record
	// existed when the TSA's clock read ta.Timestamp.
	if b.TimeProof.Index != rec.JSN {
		return nil, nil, fmt.Errorf("%w: when proof is for journal %d, record is %d", ErrVerify, b.TimeProof.Index, rec.JSN)
	}
	if err := fam.Verify(rec.TxHash(), b.TimeProof, ta.Digest); err != nil {
		return nil, nil, fmt.Errorf("%w: when: %v", ErrVerify, err)
	}
	return rec, ta, nil
}

// EncodeBytes serializes the bundle for storage or transport.
func (b *ProofBundle) EncodeBytes() []byte {
	w := wire.NewWriter(4096)
	w.String(bundleMagic)
	w.String(b.URI)
	w.WriteBytes(b.RecordBytes)
	w.WriteBytes(b.Payload)
	b.Fam.Encode(w)
	b.State.Encode(w)
	w.Bool(b.TimeRecordBytes != nil)
	if b.TimeRecordBytes != nil {
		w.WriteBytes(b.TimeRecordBytes)
		b.TimeFam.Encode(w)
		b.TimeProof.Encode(w)
	}
	return w.Bytes()
}

// DecodeProofBundle parses a serialized bundle, enforcing the decoder
// caps and consuming the input exactly. Callers must still VerifyBundle.
func DecodeProofBundle(raw []byte) (*ProofBundle, error) {
	if len(raw) > maxBundleBytes {
		return nil, fmt.Errorf("%w: bundle of %d bytes", ErrVerify, len(raw))
	}
	r := wire.NewReader(raw)
	if magic := r.String(); magic != bundleMagic {
		return nil, fmt.Errorf("%w: bad bundle magic %q", ErrVerify, magic)
	}
	b := &ProofBundle{URI: r.String(), RecordBytes: r.BytesCopy()}
	if payload := r.BytesCopy(); len(payload) > 0 {
		b.Payload = payload
	}
	fp, err := fam.DecodeProof(r)
	if err != nil {
		return nil, err
	}
	b.Fam = fp
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	b.State = st
	hasTime := r.Bool()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if hasTime {
		b.TimeRecordBytes = r.BytesCopy()
		if b.TimeFam, err = fam.DecodeProof(r); err != nil {
			return nil, err
		}
		if b.TimeProof, err = fam.DecodeProof(r); err != nil {
			return nil, err
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}
