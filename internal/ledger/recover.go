package ledger

import (
	"fmt"
	"slices"
	"sort"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements crash/restart recovery and the pseudo-genesis
// snapshot that makes recovery work across purges. The paper's pseudo
// genesis "replicates the data on genesis, as well as snapshot states of
// the designated purge point (e.g., clue and membership status)"; here
// the snapshot carries the clue index, world-state entries, and member
// first-appearance map, all of which would otherwise be lost with the
// truncated journal prefix.

// snapshotLocked encodes the pseudo-genesis snapshot at a purge.
func (l *Ledger) snapshotLocked(point, purgeJSN uint64) []byte {
	w := wire.NewWriter(4096)
	w.String("ledgerdb/pseudogenesis/v1")
	w.Uvarint(point)
	w.Uvarint(purgeJSN)

	// Clue index: every clue's ordered jsn list (digests are recoverable
	// from the digest stream).
	type clueEntry struct {
		name string
		jsns []uint64
	}
	var clues []clueEntry
	for _, name := range l.clueNamesLocked() {
		jsns, err := l.clues.JSNs(name)
		if err != nil {
			continue
		}
		clues = append(clues, clueEntry{name, jsns})
	}
	w.Uvarint(uint64(len(clues)))
	for _, c := range clues {
		w.String(c.name)
		w.Uvarint(uint64(len(c.jsns)))
		for _, j := range c.jsns {
			w.Uvarint(j)
		}
	}

	// World-state entries.
	type stateEntry struct {
		key    []byte
		jsn    uint64
		digest hashutil.Digest
	}
	var states []stateEntry
	for key, v := range l.stateIndex {
		states = append(states, stateEntry{[]byte(key), v.jsn, v.digest})
	}
	sort.Slice(states, func(i, j int) bool { return string(states[i].key) < string(states[j].key) })
	w.Uvarint(uint64(len(states)))
	for _, s := range states {
		w.WriteBytes(s.key)
		w.Uvarint(s.jsn)
		w.Digest(s.digest)
	}

	// Membership status.
	type member struct {
		pk    sig.PublicKey
		first uint64
	}
	var members []member
	for pk, first := range l.firstSeen {
		members = append(members, member{pk, first})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].first < members[j].first })
	w.Uvarint(uint64(len(members)))
	for _, m := range members {
		sig.EncodePublicKey(w, m.pk)
		w.Uvarint(m.first)
	}
	return w.Bytes()
}

// PseudoGenesisInfo is the decoded snapshot, used by recovery and audits.
type PseudoGenesisInfo struct {
	Point    uint64 // first unpurged jsn
	PurgeJSN uint64 // the doubly-linked purge journal
	Clues    map[string][]uint64
	States   map[string]struct {
		JSN    uint64
		Digest hashutil.Digest
	}
	Members map[sig.PublicKey]uint64
}

// DecodePseudoGenesis parses a pseudo-genesis journal's Extra.
func DecodePseudoGenesis(b []byte) (*PseudoGenesisInfo, error) {
	r := wire.NewReader(b)
	if v := r.String(); v != "ledgerdb/pseudogenesis/v1" {
		return nil, fmt.Errorf("%w: bad pseudo-genesis version %q", journal.ErrDecode, v)
	}
	info := &PseudoGenesisInfo{
		Point:    r.Uvarint(),
		PurgeJSN: r.Uvarint(),
		Clues:    make(map[string][]uint64),
		States: make(map[string]struct {
			JSN    uint64
			Digest hashutil.Digest
		}),
		Members: make(map[sig.PublicKey]uint64),
	}
	nc := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := uint64(0); i < nc; i++ {
		name := r.String()
		nj := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		jsns := make([]uint64, 0, nj)
		for j := uint64(0); j < nj; j++ {
			jsns = append(jsns, r.Uvarint())
		}
		info.Clues[name] = jsns
	}
	ns := r.Uvarint()
	for i := uint64(0); i < ns && r.Err() == nil; i++ {
		key := string(r.ReadBytes())
		info.States[key] = struct {
			JSN    uint64
			Digest hashutil.Digest
		}{r.Uvarint(), r.Digest()}
	}
	nm := r.Uvarint()
	for i := uint64(0); i < nm && r.Err() == nil; i++ {
		pk := sig.DecodePublicKey(r)
		info.Members[pk] = r.Uvarint()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return info, nil
}

// recover rebuilds in-memory state from the streams after a restart.
// Open has already reconciled the streams onto one durable prefix
// (reconcileStreams); any block header covering trimmed records is
// dropped here, where headers are decoded anyway.
func (l *Ledger) recover() error {
	// The digest stream is complete history: it sizes the fam tree and
	// the jsn counter.
	if err := l.digests.Iterate(0, func(_ uint64, raw []byte) error {
		var d hashutil.Digest
		if len(raw) != hashutil.Size {
			return fmt.Errorf("ledger: digest stream record of %d bytes", len(raw))
		}
		copy(d[:], raw)
		l.fam.Append(d)
		return nil
	}); err != nil {
		return err
	}
	l.nextJSN = l.digests.Len()
	l.base = l.journals.Base()

	// Rebuild block headers, dropping any header past the reconciled
	// prefix. The sync order (blocks last) makes a durable header that
	// covers undurable records impossible, but a trimmed journal tail can
	// orphan headers that were themselves unsynced.
	trim := false
	var trimAt uint64
	if err := l.blocks.Iterate(0, func(seq uint64, raw []byte) error {
		h, err := DecodeBlockHeader(raw)
		if err != nil {
			return err
		}
		if h.FirstJSN+h.Count > l.nextJSN {
			trim, trimAt = true, seq
			return errStopIterate
		}
		l.headers = append(l.headers, h)
		return nil
	}); err != nil && err != errStopIterate {
		return err
	}
	if trim {
		if err := l.blocks.TruncateTail(trimAt); err != nil {
			return fmt.Errorf("ledger: reconcile block stream: %w", err)
		}
	}
	if n := len(l.headers); n > 0 {
		l.pendingCount = l.nextJSN - (l.headers[n-1].FirstJSN + l.headers[n-1].Count)
	} else {
		l.pendingCount = l.nextJSN
	}

	// If the ledger was purged, seed clue / state / membership data from
	// the most recent pseudo genesis before replaying live journals.
	var (
		redoErase []uint64  // synchronously occulted journals met by the replay
		purges    purgeScan // the newest purge journal met by seed and replay
	)
	replayFrom := l.base
	if l.base > 0 {
		info, jsn, err := l.findPseudoGenesis()
		if err != nil {
			return err
		}
		switch {
		case info != nil:
			if err := l.seedFromSnapshot(info, jsn, &redoErase, &purges); err != nil {
				return err
			}
			replayFrom = jsn + 1
		case l.cfg.ApplyOnly:
			// A follower that crashed mid-resync: the journal stream was
			// re-based at the primary's purge point but the pseudo
			// genesis had not replicated yet. Re-enter seeding — the
			// snapshot, when it arrives, covers this verbatim prefix —
			// and skip replay (projections for these records come from
			// the seed, exactly as on the primary).
			l.replica.seeding = true
			// Crashed during the digest fill: the journal stream is still
			// empty at its re-base point and there is nothing to replay.
			replayFrom = l.nextJSN
			if replayFrom < l.base {
				replayFrom = l.base
			}
		default:
			return fmt.Errorf("ledger: purged stream without pseudo genesis")
		}
	}

	if err := l.journals.Iterate(replayFrom, func(jsn uint64, raw []byte) error {
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return fmt.Errorf("ledger: journal %d: %w", jsn, err)
		}
		l.replayRecord(rec, &redoErase)
		return purges.observe(rec)
	}); err != nil {
		return err
	}

	// Roll interrupted occult erasures forward. A synchronous occult
	// erases the payload right after its journal is durable; a crash in
	// between leaves the occult decided and the bytes on disk. Erasing
	// again is a no-op for payloads already gone, and it settles the
	// reference counts the replay just rebuilt (which counted the occulted
	// journals themselves) exactly as the live path left them. (A journal
	// below the base was purged after its occult; the purge settled it.)
	redoErase = slices.DeleteFunc(redoErase, func(jsn uint64) bool { return jsn < l.base })
	if err := l.erasePayloadLocked(redoErase...); err != nil {
		return fmt.Errorf("ledger: roll occult erasure forward: %w", err)
	}

	// Roll an interrupted purge forward: if the purge decision (purge
	// journal + pseudo genesis) is on the durable prefix but the crash
	// hit before truncation/erasure finished, complete it now. The
	// replay above rebuilt payloadRefs over every live record, so the
	// idempotent completePurgeLocked converges on the decided state.
	if desc := purges.pending(l.base); desc != nil {
		if err := l.completePurgeLocked(desc); err != nil {
			return fmt.Errorf("ledger: roll purge forward: %w", err)
		}
	}
	return nil
}

// purgeScan follows a recovery pass over the live journals, in jsn
// order, to find a purge that was decided — purge journal and pseudo
// genesis both on the durable prefix — but whose destructive half did
// not finish before a crash. Only the newest purge journal counts, and
// only if the record right after it is the doubly-linked pseudo genesis
// naming it back: the decision point is the durability of both (they
// are synced together before any truncation), so a lone purge journal
// from a torn tail stays inert on the ledger forever.
type purgeScan struct {
	desc    *PurgeDescriptor // the newest purge journal's descriptor
	jsn     uint64           // and its jsn
	decided bool             // the record at jsn+1 is its pseudo genesis
}

func (p *purgeScan) observe(rec *journal.Record) error {
	switch {
	case rec.Type == journal.TypePurge:
		extra, err := DecodePurgeExtra(rec.Extra)
		if err != nil {
			return fmt.Errorf("ledger: purge journal %d: %w", rec.JSN, err)
		}
		p.desc, p.jsn, p.decided = extra.Desc, rec.JSN, false
	case rec.Type == journal.TypePseudoGenesis && p.desc != nil && rec.JSN == p.jsn+1:
		info, err := DecodePseudoGenesis(rec.Extra)
		p.decided = err == nil && info.PurgeJSN == p.jsn
	}
	return nil
}

// pending returns the decided purge that truncation has not yet reached
// (its point lies above base), or nil.
func (p *purgeScan) pending(base uint64) *PurgeDescriptor {
	if !p.decided || p.desc.Point <= base {
		return nil
	}
	return p.desc
}

// clueNamesLocked lists clue names for snapshot building.
func (l *Ledger) clueNamesLocked() []string { return l.clues.Names() }

// findPseudoGenesis scans the live journals for the latest pseudo
// genesis. A nil info with nil error means none exists — fatal for a
// primary recovering a purged stream, expected for a follower reopening
// mid-resync (the caller decides).
func (l *Ledger) findPseudoGenesis() (*PseudoGenesisInfo, uint64, error) {
	var found *PseudoGenesisInfo
	var at uint64
	err := l.journals.Iterate(l.base, func(jsn uint64, raw []byte) error {
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return err
		}
		if rec.Type != journal.TypePseudoGenesis {
			return nil
		}
		info, err := DecodePseudoGenesis(rec.Extra)
		if err != nil {
			return err
		}
		found, at = info, jsn
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return found, at, nil
}

// seedFromSnapshot restores clue, state, and membership data covering
// everything up to (and including) the pseudo genesis journal. redoErase
// is replayOccult's; purges, when non-nil, observes the journals the
// seed reads.
func (l *Ledger) seedFromSnapshot(info *PseudoGenesisInfo, pseudoJSN uint64, redoErase *[]uint64, purges *purgeScan) error {
	type clueSeed struct {
		name string
		jsns []uint64
	}
	seeds := make([]clueSeed, 0, len(info.Clues))
	for name, jsns := range info.Clues {
		seeds = append(seeds, clueSeed{name, jsns})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].name < seeds[j].name })
	for _, s := range seeds {
		for _, jsn := range s.jsns {
			d, err := l.TxHash(jsn)
			if err != nil {
				return err
			}
			l.clues.Insert(s.name, jsn, d)
		}
	}
	for key, v := range info.States {
		l.state = l.state.Put([]byte(key), encodeStateValue(v.JSN, v.Digest))
		l.stateIndex[key] = stateIndexEntry{jsn: v.JSN, digest: v.Digest}
	}
	for pk, first := range info.Members {
		l.firstSeen[pk] = first
	}
	// Payload refs and occult bits for the live records up to the pseudo
	// genesis (the purge and pseudo-genesis journals themselves).
	err := l.journals.Iterate(l.base, func(jsn uint64, raw []byte) error {
		if jsn > pseudoJSN {
			return errStopIterate
		}
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return err
		}
		l.payloadRefs[rec.PayloadDigest]++
		l.replayOccult(rec, redoErase)
		if purges != nil {
			return purges.observe(rec)
		}
		return nil
	})
	if err == errStopIterate {
		return nil
	}
	return err
}

var errStopIterate = fmt.Errorf("ledger: stop iteration")

// replayRecord applies one live journal during recovery. Journals at or
// before the pseudo genesis are covered by the snapshot seed, so this is
// called only for strictly later records. redoErase is replayOccult's.
// The fam tree already holds every replayed journal's tx-hash (recovery
// fills it from the digest stream first, a follower appends it before
// replaying), so the clue lineage takes it from there.
func (l *Ledger) replayRecord(rec *journal.Record, redoErase *[]uint64) {
	if len(rec.Clues) > 0 {
		d, err := l.fam.Leaf(rec.JSN)
		if err != nil {
			d = rec.TxHash()
		}
		for _, c := range rec.Clues {
			if prevLast, existed := l.clues.Insert(c, rec.JSN, d); existed && prevLast < l.base {
				// Same resurrection rule as the live path
				// (applyRecordLocked): a fully-purged clue coming back to
				// life changes the committed live set without a name-set
				// version bump. Harmless during a fresh-start recovery
				// (nothing is cached yet); load-bearing for a replication
				// follower, where replay runs against a warm cache.
				l.clueSet.invalidate()
			}
		}
	}
	if len(rec.StateKey) > 0 {
		l.state = l.state.Put(rec.StateKey, encodeStateValue(rec.JSN, rec.PayloadDigest))
		l.stateIndex[string(rec.StateKey)] = stateIndexEntry{jsn: rec.JSN, digest: rec.PayloadDigest}
	}
	if _, ok := l.firstSeen[rec.ClientPK]; !ok {
		l.firstSeen[rec.ClientPK] = rec.JSN
	}
	l.payloadRefs[rec.PayloadDigest]++
	l.replayOccult(rec, redoErase)
}

// replayOccult re-applies an occult journal's bitmap effect (both the
// single-journal and the clue-level variants). Recovery passes redoErase
// to collect the synchronously occulted journals, whose erasure it runs
// again at its end; a follower replaying replicated records holds no
// payloads and passes nil.
func (l *Ledger) replayOccult(rec *journal.Record, redoErase *[]uint64) {
	if rec.Type != journal.TypeOccult {
		return
	}
	if extra, err := DecodeOccultExtra(rec.Extra); err == nil {
		l.occulted[extra.Desc.JSN] = true
		// Async erasures that had not run before the restart go back on
		// the queue; re-erasing an already-deleted blob is a no-op.
		if extra.Desc.Async {
			l.eraseQueue = append(l.eraseQueue, extra.Desc.JSN)
		} else if redoErase != nil {
			*redoErase = append(*redoErase, extra.Desc.JSN)
		}
		return
	}
	if extra, err := DecodeOccultClueExtra(rec.Extra); err == nil {
		for _, jsn := range extra.JSNs {
			l.occulted[jsn] = true
			l.eraseQueue = append(l.eraseQueue, jsn)
		}
	}
}
