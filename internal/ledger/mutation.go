package ledger

import (
	"fmt"
	"slices"
	"sort"

	"ledgerdb/internal/ca"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements the verifiable mutations of §III-A2 and §III-A3:
// purge (erase a journal prefix behind a pseudo genesis, Prerequisite 1 /
// Protocol 1) and occult (hide a single journal's payload while retaining
// its digest, Prerequisite 2 / Protocol 2).

// PurgeDescriptor describes a purge: erase journals [0, Point) except the
// listed survivors, which move to the survival stream.
type PurgeDescriptor struct {
	URI       string
	Point     uint64   // first jsn that remains
	Survivors []uint64 // milestone journals preserved (§III-A2)
	// ErasePayloads physically deletes the purged payload blobs. When
	// false, only journal records are truncated (the paper's
	// "erasure is not allowed" option retains fam entirely; here the
	// digest stream is retained in both cases).
	ErasePayloads bool
	// EraseFamNodes additionally releases the fam cell storage of epochs
	// fully below the purge point (§III-A2's purge-aligned erasure: "the
	// nodes to be retained are all latter nodes ... all left nodes on
	// this path can be erased"). Purged journals then become unprovable
	// from the live tree; the retained digest stream still lets auditors
	// re-derive every root.
	EraseFamNodes bool
}

// Digest is what every purge signer signs.
func (d *PurgeDescriptor) Digest() hashutil.Digest {
	w := wire.NewWriter(64)
	w.String("ledgerdb/purge/v1")
	w.String(d.URI)
	w.Uvarint(d.Point)
	w.Uvarint(uint64(len(d.Survivors)))
	for _, s := range d.Survivors {
		w.Uvarint(s)
	}
	w.Bool(d.ErasePayloads)
	w.Bool(d.EraseFamNodes)
	return hashutil.Sum(w.Bytes())
}

func (d *PurgeDescriptor) encode(w *wire.Writer) {
	w.String(d.URI)
	w.Uvarint(d.Point)
	w.Uvarint(uint64(len(d.Survivors)))
	for _, s := range d.Survivors {
		w.Uvarint(s)
	}
	w.Bool(d.ErasePayloads)
	w.Bool(d.EraseFamNodes)
}

func decodePurgeDescriptor(r *wire.Reader) (*PurgeDescriptor, error) {
	d := &PurgeDescriptor{URI: r.String(), Point: r.Uvarint()}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d survivors", journal.ErrDecode, n)
	}
	for i := uint64(0); i < n; i++ {
		d.Survivors = append(d.Survivors, r.Uvarint())
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	d.ErasePayloads = r.Bool()
	d.EraseFamNodes = r.Bool()
	return d, r.Err()
}

// OccultDescriptor describes an occult: hide the payload of one journal.
type OccultDescriptor struct {
	URI   string
	JSN   uint64
	Async bool // delay physical erasure to the reorganization utility
}

// Digest is what the DBA and regulator sign.
func (d *OccultDescriptor) Digest() hashutil.Digest {
	w := wire.NewWriter(48)
	w.String("ledgerdb/occult/v1")
	w.String(d.URI)
	w.Uvarint(d.JSN)
	w.Bool(d.Async)
	return hashutil.Sum(w.Bytes())
}

func (d *OccultDescriptor) encode(w *wire.Writer) {
	w.String(d.URI)
	w.Uvarint(d.JSN)
	w.Bool(d.Async)
}

func decodeOccultDescriptor(r *wire.Reader) (*OccultDescriptor, error) {
	d := &OccultDescriptor{URI: r.String(), JSN: r.Uvarint(), Async: r.Bool()}
	return d, r.Err()
}

// EncodeBytes serializes the descriptor for transport (admin API).
func (d *PurgeDescriptor) EncodeBytes() []byte {
	w := wire.NewWriter(64)
	d.encode(w)
	return w.Bytes()
}

// DecodePurgeDescriptor parses a transported purge descriptor.
func DecodePurgeDescriptor(b []byte) (*PurgeDescriptor, error) {
	r := wire.NewReader(b)
	d, err := decodePurgeDescriptor(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return d, nil
}

// EncodeBytes serializes the descriptor for transport (admin API).
func (d *OccultDescriptor) EncodeBytes() []byte {
	w := wire.NewWriter(48)
	d.encode(w)
	return w.Bytes()
}

// DecodeOccultDescriptor parses a transported occult descriptor.
func DecodeOccultDescriptor(b []byte) (*OccultDescriptor, error) {
	r := wire.NewReader(b)
	d, err := decodeOccultDescriptor(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return d, nil
}

// PurgeExtra is the decoded Extra of a purge journal.
type PurgeExtra struct {
	Desc *PurgeDescriptor
	Sigs *sig.MultiSig
}

// OccultExtra is the decoded Extra of an occult journal.
type OccultExtra struct {
	Desc *OccultDescriptor
	Sigs *sig.MultiSig
}

func encodeWithSigs(enc func(*wire.Writer), ms *sig.MultiSig) []byte {
	w := wire.NewWriter(256)
	enc(w)
	ms.Encode(w)
	return w.Bytes()
}

// DecodePurgeExtra parses a purge journal's Extra for audits.
func DecodePurgeExtra(b []byte) (*PurgeExtra, error) {
	r := wire.NewReader(b)
	d, err := decodePurgeDescriptor(r)
	if err != nil {
		return nil, err
	}
	ms, err := sig.DecodeMultiSig(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &PurgeExtra{Desc: d, Sigs: ms}, nil
}

// DecodeOccultExtra parses an occult journal's Extra for audits.
func DecodeOccultExtra(b []byte) (*OccultExtra, error) {
	r := wire.NewReader(b)
	d, err := decodeOccultDescriptor(r)
	if err != nil {
		return nil, err
	}
	ms, err := sig.DecodeMultiSig(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &OccultExtra{Desc: d, Sigs: ms}, nil
}

// RequiredPurgeSigners returns the signer set Prerequisite 1 demands for
// a purge at point: the DBA plus every member whose first journal
// precedes the point.
func (l *Ledger) RequiredPurgeSigners(point uint64) []sig.PublicKey {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.requiredPurgeSignersLocked(point)
}

func (l *Ledger) requiredPurgeSignersLocked(point uint64) []sig.PublicKey {
	req := []sig.PublicKey{l.cfg.DBA}
	var members []sig.PublicKey
	for pk, first := range l.firstSeen {
		if first < point && pk != l.cfg.DBA && pk != l.LSPPublic() {
			members = append(members, pk)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		a, b := members[i], members[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return append(req, members...)
}

// Purge executes §III-A2: gather-checked multi-signatures (Prerequisite
// 1), survivor preservation, a purge journal doubly linked with a fresh
// pseudo genesis, and physical truncation of the journal prefix. The
// digest stream is retained so fam proofs keep working (Protocol 1 +
// "we only need digest but not raw payload").
func (l *Ledger) Purge(desc *PurgeDescriptor, ms *sig.MultiSig) (*journal.Receipt, error) {
	if err := l.writable(); err != nil {
		return nil, err
	}
	if desc.URI != l.cfg.URI {
		return nil, fmt.Errorf("%w: descriptor for %q", ErrNotPermitted, desc.URI)
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	if desc.Point <= l.base {
		return nil, fmt.Errorf("%w: purge point %d at or below base %d", ErrNotPermitted, desc.Point, l.base)
	}
	if desc.Point >= l.nextJSN {
		return nil, fmt.Errorf("%w: purge point %d beyond ledger size %d", ErrNotPermitted, desc.Point, l.nextJSN)
	}
	if err := ms.VerifyAll(desc.Digest(), l.requiredPurgeSignersLocked(desc.Point)); err != nil {
		return nil, fmt.Errorf("%w: prerequisite 1: %v", ErrNotPermitted, err)
	}
	// Preserve survivors before anything is destroyed.
	for _, s := range desc.Survivors {
		if s >= desc.Point {
			return nil, fmt.Errorf("%w: survivor %d is not being purged", ErrNotPermitted, s)
		}
		raw, err := l.journals.Read(s)
		if err != nil {
			return nil, fmt.Errorf("ledger: survivor %d: %w", s, err)
		}
		if _, err := l.survival.Append(raw); err != nil {
			return nil, err
		}
	}
	// The purge journal itself, recorded on ledger (signed by the LSP,
	// carrying the descriptor and the gathered multi-signatures).
	req := &journal.Request{LedgerURI: l.cfg.URI, Type: journal.TypePurge, Payload: []byte("purge")}
	if err := req.Sign(l.cfg.LSP); err != nil {
		return nil, err
	}
	receipt, err := l.appendLocked(req, encodeWithSigs(desc.encode, ms))
	if err != nil {
		return nil, err
	}
	// The pseudo genesis, doubly linked with the purge journal (its Extra
	// names the purge jsn; the snapshot lets recovery and audits proceed
	// without the purged records).
	snap := l.snapshotLocked(desc.Point, receipt.JSN)
	greq := &journal.Request{LedgerURI: l.cfg.URI, Type: journal.TypePseudoGenesis, Payload: []byte("pseudo-genesis")}
	if err := greq.Sign(l.cfg.LSP); err != nil {
		return nil, err
	}
	if _, err := l.appendLocked(greq, snap); err != nil {
		return nil, err
	}
	// The purge decision point: survivor copies, the purge journal, and
	// the pseudo genesis must all be durable before anything is destroyed
	// (DESIGN.md §4.4). A crash before this flush leaves the purge
	// undecided (an inert purge journal at worst); a crash after it is
	// rolled forward by recovery via the same completePurgeLocked.
	if err := l.syncCommitLocked(); err != nil {
		return nil, err
	}
	if err := l.completePurgeLocked(desc); err != nil {
		return nil, err
	}
	return receipt, nil
}

// Occult executes §III-A3: hide one journal's payload under DBA +
// regulator multi-signatures (Prerequisite 2). The journal's digest stays
// on ledger, so subsequent verification treats the retained hash as the
// original journal (Protocol 2). Async occults defer physical erasure to
// Reorganize.
func (l *Ledger) Occult(desc *OccultDescriptor, ms *sig.MultiSig) (*journal.Receipt, error) {
	if err := l.writable(); err != nil {
		return nil, err
	}
	if desc.URI != l.cfg.URI {
		return nil, fmt.Errorf("%w: descriptor for %q", ErrNotPermitted, desc.URI)
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	rec, err := l.getJournalLocked(desc.JSN)
	if err != nil {
		return nil, err
	}
	if rec.Type != journal.TypeNormal {
		return nil, fmt.Errorf("%w: cannot occult %s journal %d", ErrNotPermitted, rec.Type, desc.JSN)
	}
	if l.occulted[desc.JSN] {
		return nil, fmt.Errorf("%w: journal %d already occulted", ErrNotPermitted, desc.JSN)
	}
	if err := l.checkOccultSigners(desc, ms); err != nil {
		return nil, err
	}
	req := &journal.Request{LedgerURI: l.cfg.URI, Type: journal.TypeOccult, Payload: []byte("occult")}
	if err := req.Sign(l.cfg.LSP); err != nil {
		return nil, err
	}
	receipt, err := l.appendLocked(req, encodeWithSigs(desc.encode, ms))
	if err != nil {
		return nil, err
	}
	// The occult journal must be durable before its payload is erased:
	// otherwise a crash could lose the authorization while the payload
	// is already gone (DESIGN.md §4.4).
	if err := l.syncCommitLocked(); err != nil {
		return nil, err
	}
	l.occulted[desc.JSN] = true
	l.invalidateProofsLocked() // the occult bitmap changes what served records carry
	if desc.Async {
		l.eraseQueue = append(l.eraseQueue, desc.JSN)
	} else if err := l.erasePayloadLocked(desc.JSN); err != nil {
		return nil, err
	}
	return receipt, nil
}

// checkOccultSigners enforces Prerequisite 2: DBA plus a certified
// regulator (when a registry is configured).
func (l *Ledger) checkOccultSigners(desc *OccultDescriptor, ms *sig.MultiSig) error {
	if err := ms.VerifyAll(desc.Digest(), []sig.PublicKey{l.cfg.DBA}); err != nil {
		return fmt.Errorf("%w: prerequisite 2: %v", ErrNotPermitted, err)
	}
	if l.cfg.Registry == nil {
		return nil
	}
	for _, pk := range ms.Signers() {
		if l.cfg.Registry.Check(pk, ca.RoleRegulator) == nil {
			return nil
		}
	}
	return fmt.Errorf("%w: prerequisite 2: no regulator signature", ErrNotPermitted)
}

// erasePayloadLocked deletes the payload blobs of the given journals,
// respecting content-address sharing, in one batched Delete (the payload
// log rewrites each touched segment once per call). On failure nothing
// is settled: the reference counts are restored, so a repeat run decides
// the same erasures.
func (l *Ledger) erasePayloadLocked(jsns ...uint64) (err error) {
	var released, erase []hashutil.Digest
	defer func() {
		if err != nil {
			for _, d := range released {
				l.payloadRefs[d]++
			}
		}
	}()
	for _, jsn := range jsns {
		raw, err := l.journals.Read(jsn)
		if err != nil {
			return err
		}
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return err
		}
		if l.payloadRefs[rec.PayloadDigest] > 0 {
			l.payloadRefs[rec.PayloadDigest]--
			released = append(released, rec.PayloadDigest)
		}
		if l.payloadRefs[rec.PayloadDigest] == 0 {
			erase = append(erase, rec.PayloadDigest)
		}
	}
	return l.cfg.Blobs.Delete(erase...)
}

// OccultClue occults every normal journal recorded under a clue — the
// "occult by clue" case §III-A3 calls common. One multisig over the
// clue-level descriptor authorizes the whole batch; the erasures are
// queued asynchronously (the recommended mode for batch occults, since
// other operators may still hold references) and performed by
// Reorganize. It returns the jsns occulted.
func (l *Ledger) OccultClue(clue string, ms *sig.MultiSig) ([]uint64, error) {
	if err := l.writable(); err != nil {
		return nil, err
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	jsns, err := l.clues.JSNs(clue)
	if err != nil {
		return nil, fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	desc := &OccultClueDescriptor{URI: l.cfg.URI, Clue: clue}
	if err := ms.VerifyAll(desc.Digest(), []sig.PublicKey{l.cfg.DBA}); err != nil {
		return nil, fmt.Errorf("%w: prerequisite 2: %v", ErrNotPermitted, err)
	}
	if l.cfg.Registry != nil {
		ok := false
		for _, pk := range ms.Signers() {
			if l.cfg.Registry.Check(pk, ca.RoleRegulator) == nil {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("%w: prerequisite 2: no regulator signature", ErrNotPermitted)
		}
	}
	var hidden []uint64
	for _, jsn := range jsns {
		if jsn < l.base || l.occulted[jsn] {
			continue
		}
		rec, err := l.getJournalLocked(jsn)
		if err != nil || rec.Type != journal.TypeNormal {
			continue
		}
		hidden = append(hidden, jsn)
	}
	if len(hidden) == 0 {
		return nil, fmt.Errorf("%w: clue %q has no occultable journals", ErrNotPermitted, clue)
	}
	req := &journal.Request{LedgerURI: l.cfg.URI, Type: journal.TypeOccult, Payload: []byte("occult-clue")}
	if err := req.Sign(l.cfg.LSP); err != nil {
		return nil, err
	}
	w := wire.NewWriter(256)
	desc.encode(w)
	w.Uvarint(uint64(len(hidden)))
	for _, jsn := range hidden {
		w.Uvarint(jsn)
	}
	ms.Encode(w)
	if _, err := l.appendLocked(req, w.Bytes()); err != nil {
		return nil, err
	}
	// Same decision-before-erasure ordering as Occult; the erasures are
	// queued, but the queue only survives a crash through this journal.
	if err := l.syncCommitLocked(); err != nil {
		return nil, err
	}
	for _, jsn := range hidden {
		l.occulted[jsn] = true
		l.eraseQueue = append(l.eraseQueue, jsn)
	}
	l.invalidateProofsLocked()
	return hidden, nil
}

// OccultClueDescriptor describes a clue-level occult.
type OccultClueDescriptor struct {
	URI  string
	Clue string
}

// Digest is what the DBA and regulator sign for a clue-level occult.
func (d *OccultClueDescriptor) Digest() hashutil.Digest {
	w := wire.NewWriter(64)
	w.String("ledgerdb/occult-clue/v1")
	w.String(d.URI)
	w.String(d.Clue)
	return hashutil.Sum(w.Bytes())
}

func (d *OccultClueDescriptor) encode(w *wire.Writer) {
	w.String("clue") // discriminates from single-jsn occult extras
	w.String(d.URI)
	w.String(d.Clue)
}

// OccultClueExtra is the decoded Extra of a clue-level occult journal.
type OccultClueExtra struct {
	Desc *OccultClueDescriptor
	JSNs []uint64
	Sigs *sig.MultiSig
}

// DecodeOccultClueExtra parses a clue-level occult journal's Extra.
func DecodeOccultClueExtra(b []byte) (*OccultClueExtra, error) {
	r := wire.NewReader(b)
	if tag := r.String(); tag != "clue" {
		return nil, fmt.Errorf("%w: not a clue-level occult (tag %q)", journal.ErrDecode, tag)
	}
	e := &OccultClueExtra{Desc: &OccultClueDescriptor{URI: r.String(), Clue: r.String()}}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("%w: %d occulted jsns", journal.ErrDecode, n)
	}
	for i := uint64(0); i < n; i++ {
		e.JSNs = append(e.JSNs, r.Uvarint())
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	ms, err := sig.DecodeMultiSig(r)
	if err != nil {
		return nil, err
	}
	e.Sigs = ms
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return e, nil
}

// Reorganize runs the "data reorganization utility during system idle
// batch": it physically erases the payloads of asynchronously occulted
// journals. It returns the number of payloads erased.
func (l *Ledger) Reorganize() (int, error) {
	if err := l.writable(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A purge may have truncated the journal out from under its queued
	// erasure; the purge path already settled that payload's fate (erased
	// or retained with the rest of the purged prefix).
	l.eraseQueue = slices.DeleteFunc(l.eraseQueue, func(jsn uint64) bool { return jsn < l.base })
	if err := l.erasePayloadLocked(l.eraseQueue...); err != nil {
		return 0, err
	}
	n := len(l.eraseQueue)
	l.eraseQueue = l.eraseQueue[:0]
	l.invalidateProofsLocked()
	return n, nil
}

// PendingErasures reports the async occult backlog.
func (l *Ledger) PendingErasures() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.eraseQueue)
}

// Survivors returns the records preserved in the survival stream, oldest
// first. These remain retrievable and verifiable after purges ("keep
// historical block trades only").
func (l *Ledger) Survivors() ([]*journal.Record, error) {
	// The survival stream is append-only and internally synchronized, so
	// the ledger lock only pins the endpoint: decode runs outside mu and
	// an in-flight purge's survivors surface on the next call.
	l.mu.RLock()
	end := l.survival.Len()
	l.mu.RUnlock()
	var out []*journal.Record
	err := l.survival.Iterate(0, func(seq uint64, raw []byte) error {
		if seq >= end {
			return errStopIterate
		}
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err == errStopIterate {
		err = nil
	}
	return out, err
}
