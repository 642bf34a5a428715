package ledger

import (
	"errors"
	"fmt"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/mpt"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// This file implements the follower half of read-replica replication: a
// ledger opened with Config.ApplyOnly ingests the primary's streams
// verbatim and rolls them forward through the same code paths crash
// recovery uses. A replica is crash recovery running continuously — the
// invariants recovery restores after one crash, the follower maintains
// after every applied frame.
//
// The follower holds no signing key. Everything it serves anchors to a
// SignedState the primary produced and the follower verified against
// the pinned PrimaryLSP key, so a replica adds read capacity without
// adding trust: a Byzantine replica can at worst serve stale data, and
// staleness is bounded by the checkpoint timestamp inside the signed
// state itself.

// Errors specific to follower mode.
var (
	// ErrStaleCheckpoint means the follower cannot answer right now: it
	// has no primary-signed state covering its applied prefix (it is
	// catching up, or the primary stopped publishing checkpoints). The
	// server maps it to 503 + Retry-After — honest degradation rather
	// than an unverifiable answer.
	ErrStaleCheckpoint = errors.New("ledger: no checkpoint covering replica state")
	// ErrDiverged means a primary-signed checkpoint does not match the
	// accumulator roots the follower derived from the replicated
	// streams: either the feed was corrupted below the frame digests or
	// the primary equivocated. The follower refuses to serve rather
	// than mask it.
	ErrDiverged = errors.New("ledger: replica diverged from primary checkpoint")
)

// replicaState is the follower-mode state hanging off the Ledger,
// guarded by l.mu.
type replicaState struct {
	// current is the newest verified checkpoint whose prefix the
	// follower has fully applied and cross-checked (fam root match).
	// Proofs and reads anchor to it.
	current *SignedState
	// pending is the newest verified checkpoint the follower has not
	// caught up to yet; it promotes to current once the applied prefix
	// covers it.
	pending *SignedState
	// seeding is true while a resync is in flight: the journal stream
	// was re-based at the primary's purge point and records are being
	// copied verbatim, but projections (clues, world state, membership)
	// wait for the pseudo-genesis snapshot, exactly as recovery seeds
	// them after a purge.
	seeding bool
}

// writable gates every originating mutation. A follower refuses them
// all: records reach it only as replicated bytes. A closed ledger
// refuses them too.
func (l *Ledger) writable() error {
	if l.cfg.ApplyOnly {
		return fmt.Errorf("%w: apply-only replica", ErrNotPermitted)
	}
	if l.Closed() {
		return ErrClosed
	}
	return nil
}

// promoteReplicaStateLocked moves pending to current once the applied
// prefix covers it, cross-checking the primary-signed roots against the
// locally derived accumulators. The fam check runs on every promotion;
// the clue/state roots can only be compared when the checkpoint sits
// exactly at the frontier (projections exist only at the frontier).
func (l *Ledger) promoteReplicaStateLocked() error {
	st := l.replica.pending
	if st == nil || st.JSN > l.nextJSN || l.replica.seeding {
		return nil
	}
	l.replica.pending = nil
	if st.JSN > 0 {
		root, err := l.fam.RootAt(st.JSN)
		if err != nil {
			return err
		}
		if root != st.JournalRoot {
			return fmt.Errorf("%w: fam root at %d is %s, primary signed %s",
				ErrDiverged, st.JSN, root.Short(), st.JournalRoot.Short())
		}
	}
	if st.JSN == l.nextJSN {
		if cr := l.clues.RootHash(); cr != st.ClueRoot {
			return fmt.Errorf("%w: clue root at %d is %s, primary signed %s",
				ErrDiverged, st.JSN, cr.Short(), st.ClueRoot.Short())
		}
		if sr := l.state.RootHash(); sr != st.StateRoot {
			return fmt.Errorf("%w: state root at %d is %s, primary signed %s",
				ErrDiverged, st.JSN, sr.Short(), st.StateRoot.Short())
		}
	}
	if cur := l.replica.current; cur == nil || st.JSN >= cur.JSN {
		l.replica.current = st
		l.stateGen++
	}
	return nil
}

// SetReplicaState installs a primary-signed checkpoint fetched by the
// replication puller. The signature is verified against the pinned
// primary key before anything is cached; a checkpoint ahead of the
// applied prefix parks as pending and promotes once the records
// covering it have been applied.
func (l *Ledger) SetReplicaState(st *SignedState) error {
	if !l.cfg.ApplyOnly {
		return fmt.Errorf("%w: not an apply-only replica", ErrNotPermitted)
	}
	if st.URI != l.cfg.URI {
		return fmt.Errorf("%w: checkpoint for %q on replica of %q", ErrNotPermitted, st.URI, l.cfg.URI)
	}
	if err := st.Verify(l.cfg.PrimaryLSP); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.replica.pending; p == nil || st.JSN > p.JSN {
		l.replica.pending = st
	}
	return l.promoteReplicaStateLocked()
}

// ReplicaInfo reports the follower's replication watermark for health
// endpoints: honest staleness is part of the read surface.
type ReplicaInfo struct {
	AppliedJSN    uint64 // records applied to the local streams
	CheckpointJSN uint64 // newest verified checkpoint covering the prefix
	CheckpointTS  int64  // primary's timestamp inside that checkpoint
	Seeding       bool   // resync in flight (projections not yet seeded)
}

// ReplicaStatus returns the watermark; ok is false on a primary.
func (l *Ledger) ReplicaStatus() (ReplicaInfo, bool) {
	if !l.cfg.ApplyOnly {
		return ReplicaInfo{}, false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	info := ReplicaInfo{AppliedJSN: l.nextJSN, Seeding: l.replica.seeding}
	if st := l.replica.current; st != nil {
		info.CheckpointJSN = st.JSN
		info.CheckpointTS = st.Timestamp
	}
	return info, true
}

// Generation returns the commit generation counter. Health endpoints
// expose it so an operator can see at a glance whether two nodes have
// observed the same number of state transitions.
func (l *Ledger) Generation() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stateGen
}

// StreamFrontier reports a stream's local base and length. The
// replication puller reads its own frontiers off the follower ledger to
// know which offsets to request next.
func (l *Ledger) StreamFrontier(stream string) (base, size uint64, err error) {
	var s streamfs.Stream
	switch stream {
	case StreamJournals:
		s = l.journals
	case StreamDigests:
		s = l.digests
	case StreamBlocks:
		s = l.blocks
	case StreamSurvival:
		s = l.survival
	default:
		return 0, 0, fmt.Errorf("%w: stream %q", ErrNotFound, stream)
	}
	return s.Base(), s.Len(), nil
}

// ReadStreamRange is the primary-side pull seam: it slices one of the
// four ledger streams at an absolute offset, returning the records plus
// the stream's base and frontier at capture time. from below base
// returns no records — the caller reads the gap off the returned base
// and resyncs. The stream is flushed before reading so a follower never
// applies bytes the primary could lose in a crash (the replica must
// stay behind the primary's durable prefix, not its in-memory one).
func (l *Ledger) ReadStreamRange(stream string, from uint64, maxRecords, maxBytes int) (recs [][]byte, base, size uint64, err error) {
	var s streamfs.Stream
	switch stream {
	case StreamJournals:
		s = l.journals
	case StreamDigests:
		s = l.digests
	case StreamBlocks:
		s = l.blocks
	case StreamSurvival:
		s = l.survival
	default:
		return nil, 0, 0, fmt.Errorf("%w: stream %q", ErrNotFound, stream)
	}
	if err := s.Sync(); err != nil {
		return nil, 0, 0, fmt.Errorf("ledger: flush %s for pull: %w", stream, err)
	}
	base, size = s.Base(), s.Len()
	if from < base || from >= size {
		return nil, base, size, nil
	}
	recs, err = streamfs.ReadRange(s, from, maxRecords, maxBytes)
	if errors.Is(err, streamfs.ErrNotFound) {
		// A purge truncated the prefix between the snapshot above and the
		// read: report the new base, no records — the follower resyncs.
		return nil, s.Base(), s.Len(), nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return recs, base, size, nil
}

// ApplyReplicatedSurvival appends replicated survival records verbatim
// at the given offset and makes them durable. The survival stream must
// be current before a purge journal is applied — the same sync-order
// invariant syncCommitLocked enforces on the primary (survivors durable
// before anything is destroyed).
func (l *Ledger) ApplyReplicatedSurvival(offset uint64, recs [][]byte) (int, error) {
	if !l.cfg.ApplyOnly {
		return 0, fmt.Errorf("%w: not an apply-only replica", ErrNotPermitted)
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	applied := 0
	for i, raw := range recs {
		seq := offset + uint64(i)
		end := l.survival.Len()
		if seq < end {
			continue // frame overlap: already applied
		}
		if seq > end {
			break // gap: the caller re-pulls from end
		}
		//lint:ignore L1 replica apply is a stop-the-world commit section: survivor bytes and the stream frontier must move under one lock epoch, as on the primary
		if _, err := l.survival.Append(raw); err != nil {
			return applied, fmt.Errorf("ledger: survival stream: %w", err)
		}
		applied++
	}
	//lint:ignore L1 survivors must be durable before the purge barrier they unblock — the same sync-order invariant the primary's commit section enforces
	if err := l.survival.Sync(); err != nil {
		return applied, err
	}
	return applied, nil
}

// ApplyReplicatedJournals applies a run of replicated journal records
// starting at offset. Records below the applied prefix are skipped
// (frames may overlap after a retry); a record past it stops the batch
// (the caller re-pulls from the frontier). Each record appends to the
// journal, digest, and fam structures byte-for-byte as on the primary,
// then replays through the recovery projection path.
//
// A purge journal is a barrier: in steady state it must not apply until
// the survival stream has been pulled to the primary's current frontier
// (survivalSynced). When the batch stops at one, barrier is returned
// true and the caller retries the remainder after syncing survival —
// the re-pull postdates the purge decision on the primary, so it
// necessarily includes every survivor the purge copied.
func (l *Ledger) ApplyReplicatedJournals(offset uint64, recs [][]byte, survivalSynced bool) (applied int, barrier bool, err error) {
	if !l.cfg.ApplyOnly {
		return 0, false, fmt.Errorf("%w: not an apply-only replica", ErrNotPermitted)
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	for i, raw := range recs {
		seq := offset + uint64(i)
		if seq < l.nextJSN {
			continue
		}
		if seq > l.nextJSN {
			break
		}
		rec, derr := journal.DecodeRecord(raw)
		if derr != nil {
			return applied, false, fmt.Errorf("ledger: replicated journal %d: %w", seq, derr)
		}
		if rec.JSN != seq {
			return applied, false, fmt.Errorf("%w: record carries jsn %d at stream offset %d", ErrDiverged, rec.JSN, seq)
		}
		if !l.replica.seeding && rec.Type == journal.TypePurge && !survivalSynced {
			barrier = true
			break
		}
		if l.failed != nil {
			return applied, false, l.failed
		}
		// Verbatim stream appends: byte identity with the primary is
		// what makes the fam roots comparable.
		txHash := rec.TxHash()
		//lint:ignore L1 replica apply is the commit section: the journal append and the fam/jsn advance must move under one lock epoch, as in the primary's apply section
		if _, aerr := l.journals.Append(raw); aerr != nil {
			return applied, false, fmt.Errorf("ledger: journal stream: %w", aerr)
		}
		//lint:ignore L1 the digest append pairs with the journal append in the same commit section
		if _, aerr := l.digests.Append(txHash[:]); aerr != nil {
			l.failed = fmt.Errorf("ledger: digest stream: %w", aerr)
			return applied, false, l.failed
		}
		l.fam.Append(txHash)
		l.nextJSN++
		l.stateGen++
		l.pendingCount++
		//lint:ignore L1 projection replay can reach the seeding survival-stream scan; replica apply is stop-the-world like recovery
		if perr := l.projectReplicatedLocked(rec); perr != nil {
			return applied, false, perr
		}
		applied++
	}
	if err := l.syncCommitLocked(); err != nil {
		return applied, barrier, err
	}
	return applied, barrier, l.promoteReplicaStateLocked()
}

// projectReplicatedLocked replays one just-appended primary record into
// the follower's projections — the same replay recovery uses. The
// stream appends happen in ApplyReplicatedJournals so the batch's
// commit-order flush covers every success path.
func (l *Ledger) projectReplicatedLocked(rec *journal.Record) error {
	if l.replica.seeding {
		// Mid-resync: records are copied, projections wait for the
		// pseudo-genesis snapshot — exactly how recovery treats the
		// prefix at or before a pseudo genesis.
		if rec.Type != journal.TypePseudoGenesis {
			return nil
		}
		info, err := DecodePseudoGenesis(rec.Extra)
		if err != nil {
			return fmt.Errorf("ledger: replicated pseudo genesis %d: %w", rec.JSN, err)
		}
		//lint:ignore L1 seeding scans the survival stream to rebuild projections — recovery's own stop-the-world path, run here under the replica's apply lock
		if err := l.seedFromSnapshot(info, rec.JSN, nil, nil); err != nil {
			return err
		}
		l.replica.seeding = false
		l.clueSet.invalidate()
		return l.syncCommitLocked()
	}
	l.replayRecord(rec, nil)
	if rec.Type == journal.TypePseudoGenesis {
		// The purge decision (purge journal + pseudo genesis) is now on
		// the local prefix: make it durable, then roll the destructive
		// half forward through the identical recovery path.
		if err := l.syncCommitLocked(); err != nil {
			return err
		}
		desc, err := l.decidedPurgeLocked(rec)
		if err != nil {
			return err
		}
		if desc != nil {
			if err := l.completePurgeLocked(desc); err != nil {
				return fmt.Errorf("ledger: roll replicated purge forward: %w", err)
			}
		}
	}
	return nil
}

// decidedPurgeLocked returns the purge a just-applied pseudo genesis
// decides, when truncation has not yet reached it, reading only the
// purge journal the snapshot names — recovery's purgeScan rule applied
// to the one pair that can decide it.
func (l *Ledger) decidedPurgeLocked(pseudo *journal.Record) (*PurgeDescriptor, error) {
	info, err := DecodePseudoGenesis(pseudo.Extra)
	if err != nil || info.PurgeJSN+1 != pseudo.JSN {
		return nil, nil // names no purge right before it: decides nothing
	}
	purge, err := l.getJournalLocked(info.PurgeJSN)
	if errors.Is(err, ErrPurged) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var scan purgeScan
	for _, rec := range []*journal.Record{purge, pseudo} {
		if err := scan.observe(rec); err != nil {
			return nil, err
		}
	}
	return scan.pending(l.base), nil
}

// ApplyReplicatedBlocks appends replicated block headers, verifying the
// hash chain and that each header covers only applied records. A header
// past the applied journal prefix stops the batch — block headers never
// run ahead of the records they commit, mirroring the primary's sync
// order (blocks last).
func (l *Ledger) ApplyReplicatedBlocks(offset uint64, recs [][]byte) (int, error) {
	if !l.cfg.ApplyOnly {
		return 0, fmt.Errorf("%w: not an apply-only replica", ErrNotPermitted)
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	applied := 0
	for i, raw := range recs {
		seq := offset + uint64(i)
		end := uint64(len(l.headers))
		if seq < end {
			continue
		}
		if seq > end {
			break
		}
		h, err := DecodeBlockHeader(raw)
		if err != nil {
			return applied, fmt.Errorf("ledger: replicated block %d: %w", seq, err)
		}
		if h.Height != end {
			return applied, fmt.Errorf("%w: block header carries height %d at stream offset %d", ErrDiverged, h.Height, seq)
		}
		if n := len(l.headers); n > 0 && h.Prev != l.headers[n-1].Hash() {
			return applied, fmt.Errorf("%w: block %d does not chain from local head", ErrDiverged, h.Height)
		}
		if h.FirstJSN+h.Count > l.nextJSN {
			break // covers records not yet applied; retry after journals
		}
		//lint:ignore L1 the header append and the in-memory chain extension must move under one lock epoch, as in the primary's block cut
		if _, err := l.blocks.Append(raw); err != nil {
			return applied, fmt.Errorf("ledger: block stream: %w", err)
		}
		l.headers = append(l.headers, h)
		l.stateGen++
		applied++
	}
	if applied > 0 {
		last := l.headers[len(l.headers)-1]
		l.pendingCount = l.nextJSN - (last.FirstJSN + last.Count)
	}
	//lint:ignore L1 block headers sync last, after the records they commit — the primary's commit order, enforced here before the new head is promoted
	if err := l.blocks.Sync(); err != nil {
		return applied, err
	}
	return applied, l.promoteReplicaStateLocked()
}

// ApplyReplicatedDigests fills the fam accumulator during a resync with
// tx-hashes the primary has purged the journals for. Only valid while
// seeding: these digests cover [local frontier, primary journal base),
// the range for which raw records no longer exist anywhere.
func (l *Ledger) ApplyReplicatedDigests(offset uint64, recs [][]byte) (int, error) {
	if !l.cfg.ApplyOnly {
		return 0, fmt.Errorf("%w: not an apply-only replica", ErrNotPermitted)
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	if !l.replica.seeding {
		return 0, fmt.Errorf("%w: digest fill outside resync", ErrNotPermitted)
	}
	applied := 0
	for i, raw := range recs {
		seq := offset + uint64(i)
		if seq < l.nextJSN {
			continue
		}
		if seq > l.nextJSN {
			break
		}
		if len(raw) != hashutil.Size {
			return applied, fmt.Errorf("%w: digest record of %d bytes at %d", ErrDiverged, len(raw), seq)
		}
		var d hashutil.Digest
		copy(d[:], raw)
		//lint:ignore L1 the digest fill is the resync commit section: the append and the fam/jsn advance must move under one lock epoch
		if _, err := l.digests.Append(raw); err != nil {
			l.failed = fmt.Errorf("ledger: digest stream: %w", err)
			return applied, l.failed
		}
		l.fam.Append(d)
		l.nextJSN++
		l.stateGen++
		applied++
	}
	return applied, l.appliedSyncLocked()
}

// BeginResync re-bases the follower at the primary's purge point after
// a gap: the primary truncated its journal stream past the follower's
// frontier, so the missing records exist nowhere and the follower must
// do what recovery does after a purge — discard projections, keep the
// digest history, and wait for the pseudo-genesis snapshot. Digests for
// the gap arrive via ApplyReplicatedDigests; journals resume at base.
func (l *Ledger) BeginResync(base uint64) error {
	if !l.cfg.ApplyOnly {
		return fmt.Errorf("%w: not an apply-only replica", ErrNotPermitted)
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	if base < l.nextJSN {
		return fmt.Errorf("%w: resync base %d below applied prefix %d", ErrNotPermitted, base, l.nextJSN)
	}
	rb, ok := l.journals.(streamfs.Rebaser)
	if !ok {
		return fmt.Errorf("ledger: journal stream does not support rebase")
	}
	if err := rb.SetBase(base); err != nil {
		return fmt.Errorf("ledger: rebase journal stream: %w", err)
	}
	l.base = base
	l.clues = cmtree.New()
	l.state = mpt.New()
	l.stateIndex = make(map[string]stateIndexEntry)
	l.firstSeen = make(map[sig.PublicKey]uint64)
	l.occulted = make(map[uint64]bool)
	l.payloadRefs = make(map[hashutil.Digest]int)
	l.eraseQueue = nil
	l.clueSet.invalidate()
	l.replica.seeding = true
	l.replica.current = nil // its roots bound projections we just dropped
	l.stateGen++
	return nil
}
