package ledger

import (
	"fmt"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/streamfs"
)

// This file implements the commit-point durability discipline (DESIGN.md
// §4.4). The verification guarantees only hold for journals the ledger
// can still produce after a crash, so every commit point — genesis,
// block cut, purge decision, occult decision, time anchor — forces the
// streams to stable storage before the operation is acknowledged or any
// destructive step (truncation, payload erasure) runs.
//
// Sync order is part of the invariant:
//
//	payloads → survival → journals → digests → blocks
//
// Payloads become durable before any journal that names their digest
// (admission stores the payload before the request is sequenced, so every
// payload of an applied journal is already in the payload log when the
// flush starts); survivor copies before the purge journal that retires
// their originals; journal records before the digests that accumulate
// them; and block headers last, so a durable header always covers
// durable records. A journal stream that flushes on its own (segment
// seal, DiskOptions.SyncEvery) keeps the first rule through the barrier
// Open registers on it. Recovery (recover.go) exploits the converse: any
// stream suffix beyond the shortest of journals/digests is an
// unacknowledged tail and is reconciled away.

// syncCommitLocked flushes the payload log and all four streams in commit
// order. A failed flush latches l.failed: after a failed fsync nothing
// further can be trusted to reach disk, so the engine refuses writes
// until reopened (the reopen re-scans and the reconciliation trims the
// limbo suffix).
func (l *Ledger) syncCommitLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if err := l.cfg.Blobs.Sync(); err != nil {
		l.failed = fmt.Errorf("ledger: commit-point sync: %w", err)
		return l.failed
	}
	for _, s := range []streamfs.Stream{l.survival, l.journals, l.digests, l.blocks} {
		if err := s.Sync(); err != nil {
			l.failed = fmt.Errorf("ledger: commit-point sync: %w", err)
			return l.failed
		}
	}
	l.unsyncedApplied = 0
	return nil
}

// commitPointSyncLocked is the commit-point flush as seen from the
// apply path. Normally it syncs immediately; while the committer is
// applying a pipelined group (syncDeferred set), it only records that a
// commit point occurred so the group end can issue ONE coalesced sync
// spanning every commit point in the group. Deferral never weakens the
// contract: no unit's done channel closes — so no receipt or error is
// released to a submitter — until the group-end sync ran, which makes
// the whole group one commit point from the client's perspective.
func (l *Ledger) commitPointSyncLocked() error {
	if l.syncDeferred {
		if l.failed != nil {
			return l.failed
		}
		l.pendingCommitSync = true
		return nil
	}
	return l.syncCommitLocked()
}

// appliedSyncLocked is the Config.SyncEvery flush as seen from the apply
// path, with the same group deferral as commitPointSyncLocked.
func (l *Ledger) appliedSyncLocked() error {
	if l.syncDeferred {
		if l.failed != nil {
			return l.failed
		}
		l.pendingAppliedSync = true
		return nil
	}
	return l.syncAppliedLocked()
}

// flushDeferredSyncLocked issues the coalesced group-end sync: a full
// commit-order sync when any commit point fired inside the group, else
// the cheaper journal+digest sync when only SyncEvery fired, else
// nothing. Called by applyGroup with syncDeferred already cleared.
func (l *Ledger) flushDeferredSyncLocked() error {
	commit, applied := l.pendingCommitSync, l.pendingAppliedSync
	l.pendingCommitSync, l.pendingAppliedSync = false, false
	switch {
	case commit:
		return l.syncCommitLocked()
	case applied:
		return l.syncAppliedLocked()
	}
	return nil
}

// syncAppliedLocked is the cheaper Config.SyncEvery flush between commit
// points: payloads, then journal and digest streams only (no block was
// cut, the other streams did not move).
func (l *Ledger) syncAppliedLocked() error {
	if err := l.cfg.Blobs.Sync(); err != nil {
		l.failed = fmt.Errorf("ledger: record sync: %w", err)
		return l.failed
	}
	for _, s := range []streamfs.Stream{l.journals, l.digests} {
		if err := s.Sync(); err != nil {
			l.failed = fmt.Errorf("ledger: record sync: %w", err)
			return l.failed
		}
	}
	l.unsyncedApplied = 0
	return nil
}

// Sync forces everything committed so far to stable storage. It is the
// durability hook for embedders (and the crash harness): after it
// returns, a crash loses nothing acknowledged before the call.
func (l *Ledger) Sync() error {
	l.lockExclusive()
	defer l.unlockExclusive()
	return l.syncCommitLocked()
}

// reconcileStreams trims the journal, digest, and (if everything is
// gone) block streams onto one durable prefix at open time, before the
// recover-or-genesis decision. A crash between commit points may cut
// the streams at different lengths — everything past the last flush is
// unacknowledged, so the suffix beyond the shortest of journals/digests
// is dropped. Headers past the prefix are trimmed during recover, where
// they are decoded anyway.
func (l *Ledger) reconcileStreams() error {
	prefix := l.journals.Len()
	if d := l.digests.Len(); d < prefix {
		prefix = d
	}
	// A follower that crashed mid-resync holds a re-based (empty) journal
	// stream whose base runs ahead of the digest fill. Journal records
	// only ever apply after the fill has reached the base and synced, so
	// a prefix below the base implies an empty journal stream — nothing
	// to trim there.
	jcut := prefix
	if b := l.journals.Base(); jcut < b {
		jcut = b
	}
	if err := l.journals.TruncateTail(jcut); err != nil {
		return fmt.Errorf("ledger: reconcile journal stream: %w", err)
	}
	if err := l.digests.TruncateTail(prefix); err != nil {
		return fmt.Errorf("ledger: reconcile digest stream: %w", err)
	}
	if prefix == 0 {
		// Nothing survived: a fresh genesis will be written, so no block
		// header may linger (none should — blocks sync last).
		if err := l.blocks.TruncateTail(0); err != nil {
			return fmt.Errorf("ledger: reconcile block stream: %w", err)
		}
	}
	return nil
}

// completePurgeLocked performs the destructive half of a purge: payload
// erasure and journal-prefix truncation. It runs only after the purge
// journal and its pseudo genesis are durable (the purge "decision"), and
// it is idempotent — recovery calls it again to roll an interrupted
// purge forward. Blob deletes are no-ops for already-erased payloads,
// and the refcounts it decrements were rebuilt by the same process
// (Purge counts live records; recovery replay recounts them), so a
// re-run converges on the same state.
func (l *Ledger) completePurgeLocked(desc *PurgeDescriptor) error {
	if desc.ErasePayloads {
		survivors := make(map[uint64]bool, len(desc.Survivors))
		for _, s := range desc.Survivors {
			survivors[s] = true
		}
		// An occulted journal gave its payload reference up when its
		// erasure ran; only one still waiting in the async queue holds one.
		queued := make(map[uint64]bool, len(l.eraseQueue))
		for _, jsn := range l.eraseQueue {
			queued[jsn] = true
		}
		// One batched Delete: the payload log rewrites each segment it
		// touches once, however many of the purged journals lived in it.
		var erase []hashutil.Digest
		for jsn := l.base; jsn < desc.Point; jsn++ {
			if survivors[jsn] || l.occulted[jsn] && !queued[jsn] {
				continue
			}
			raw, err := l.journals.Read(jsn)
			if err != nil {
				continue
			}
			rec, err := journal.DecodeRecord(raw)
			if err != nil {
				continue
			}
			// Content-addressed blobs may be shared with live journals;
			// only unreferenced payloads are deleted.
			if l.payloadRefs[rec.PayloadDigest] > 0 {
				l.payloadRefs[rec.PayloadDigest]--
			}
			if l.payloadRefs[rec.PayloadDigest] == 0 {
				erase = append(erase, rec.PayloadDigest)
			}
		}
		if err := l.cfg.Blobs.Delete(erase...); err != nil {
			return err
		}
	}
	if err := l.journals.Truncate(desc.Point); err != nil {
		return err
	}
	l.base = desc.Point
	if desc.EraseFamNodes {
		l.fam.PruneBelow(desc.Point)
	}
	l.invalidateProofsLocked() // the truncated prefix changes what proofs may reflect
	return nil
}

// pendingPurgeLocked detects a purge that was decided — purge journal
// and pseudo genesis both on the durable prefix — but whose destructive
// half did not finish before a crash. A purge journal without its pseudo
// genesis is NOT pending: the decision point is the durability of both
// (they are synced together before any truncation), so a lone purge
// journal from a torn tail stays inert on the ledger forever.
func (l *Ledger) pendingPurgeLocked() (*PurgeDescriptor, error) {
	var lastDesc *PurgeDescriptor
	var lastJSN uint64
	err := l.journals.Iterate(l.base, func(jsn uint64, raw []byte) error {
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return err
		}
		if rec.Type != journal.TypePurge {
			return nil
		}
		extra, err := DecodePurgeExtra(rec.Extra)
		if err != nil {
			return err
		}
		lastDesc, lastJSN = extra.Desc, jsn
		return nil
	})
	if err != nil || lastDesc == nil || lastDesc.Point <= l.base {
		return nil, err
	}
	// The doubly-linked pseudo genesis sits immediately after the purge
	// journal; its snapshot must name this purge back.
	if lastJSN+1 >= l.nextJSN {
		return nil, nil
	}
	raw, err := l.journals.Read(lastJSN + 1)
	if err != nil {
		return nil, nil // tail lost with the crash: purge not decided
	}
	rec, err := journal.DecodeRecord(raw)
	if err != nil || rec.Type != journal.TypePseudoGenesis {
		return nil, nil
	}
	info, err := DecodePseudoGenesis(rec.Extra)
	if err != nil || info.PurgeJSN != lastJSN {
		return nil, nil
	}
	return lastDesc, nil
}
