package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// newFollower opens an apply-only ledger pinned to the primary env's
// LSP key, over its own fresh stores.
func newFollower(t testing.TB, e *testEnv) *Ledger {
	t.Helper()
	f, err := Open(Config{
		URI:           e.cfg.URI,
		FractalHeight: e.cfg.FractalHeight,
		BlockSize:     e.cfg.BlockSize,
		DBA:           e.cfg.DBA,
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         e.cfg.Clock,
		ApplyOnly:     true,
		PrimaryLSP:    e.lsp.Public(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pump runs replication rounds (the ledger-level equivalent of one
// puller cycle: survival, journals with gap/barrier handling, blocks,
// then the checkpoint) until the follower has converged on the
// primary's frontier. It is the reference implementation of the
// protocol the networked puller in internal/replica follows.
func pump(t testing.TB, p, f *Ledger) {
	t.Helper()
	const batch = 64
	for round := 0; ; round++ {
		if round > 1000 {
			t.Fatal("pump did not converge")
		}
		// Survival first: the same order syncCommitLocked flushes in.
		_, fsLen, _ := f.StreamFrontier(StreamSurvival)
		recs, _, _, err := p.ReadStreamRange(StreamSurvival, fsLen, batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			if _, err := f.ApplyReplicatedSurvival(fsLen, recs); err != nil {
				t.Fatal(err)
			}
		}
		// Journals, with purge-gap resync and purge-barrier handling.
		_, fjLen, _ := f.StreamFrontier(StreamJournals)
		recs, pBase, _, err := p.ReadStreamRange(StreamJournals, fjLen, batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pBase > fjLen {
			// Gap: the primary purged past our frontier. Re-base, fill
			// the fam from the digest stream, and reseed.
			if err := f.BeginResync(pBase); err != nil {
				t.Fatal(err)
			}
			for {
				_, fdLen, _ := f.StreamFrontier(StreamDigests)
				if fdLen >= pBase {
					break
				}
				max := batch
				if pBase-fdLen < uint64(max) {
					max = int(pBase - fdLen)
				}
				drecs, _, _, err := p.ReadStreamRange(StreamDigests, fdLen, max, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(drecs) == 0 {
					t.Fatalf("digest fill stalled at %d of %d", fdLen, pBase)
				}
				if _, err := f.ApplyReplicatedDigests(fdLen, drecs); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if len(recs) > 0 {
			applied, barrier, err := f.ApplyReplicatedJournals(fjLen, recs, false)
			if err != nil {
				t.Fatal(err)
			}
			if barrier {
				// A purge journal: sync survival to the primary's current
				// frontier, then retry the remainder.
				for {
					_, fsLen, _ := f.StreamFrontier(StreamSurvival)
					srecs, _, sSize, err := p.ReadStreamRange(StreamSurvival, fsLen, batch, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(srecs) > 0 {
						if _, err := f.ApplyReplicatedSurvival(fsLen, srecs); err != nil {
							t.Fatal(err)
						}
					}
					if fsLen+uint64(len(srecs)) >= sSize {
						break
					}
				}
				if _, _, err := f.ApplyReplicatedJournals(fjLen+uint64(applied), recs[applied:], true); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Blocks.
		_, fbLen, _ := f.StreamFrontier(StreamBlocks)
		brecs, _, _, err := p.ReadStreamRange(StreamBlocks, fbLen, batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(brecs) > 0 {
			if _, err := f.ApplyReplicatedBlocks(fbLen, brecs); err != nil {
				t.Fatal(err)
			}
		}
		// Checkpoint last, so it covers everything just applied.
		st, err := p.State()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetReplicaState(st); err != nil {
			t.Fatal(err)
		}
		if f.Size() == p.Size() && f.Height() == p.Height() {
			return
		}
	}
}

func TestReplicaSteadyState(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 10; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	f := newFollower(t, e)
	pump(t, e.ledger, f)

	if f.Size() != e.ledger.Size() || f.Height() != e.ledger.Height() {
		t.Fatalf("follower at %d/%d, primary at %d/%d", f.Size(), f.Height(), e.ledger.Size(), e.ledger.Height())
	}
	pst, _ := e.ledger.State()
	fst, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	if fst.JSN != pst.JSN || fst.JournalRoot != pst.JournalRoot {
		t.Fatal("follower state does not match primary checkpoint")
	}
	// The follower serves the full read surface: records, lineages, and
	// proofs that verify against the primary's pinned key.
	if _, err := f.GetJournal(3); err != nil {
		t.Fatal(err)
	}
	lineage, err := f.ListClue("K")
	if err != nil {
		t.Fatal(err)
	}
	if len(lineage) != 10 {
		t.Fatalf("clue K has %d versions on follower, want 10", len(lineage))
	}
	p, err := f.ProveExistence(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatalf("follower proof does not verify: %v", err)
	}
	cb, err := f.ProveClue("K", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClue(cb, e.lsp.Public()); err != nil {
		t.Fatalf("follower clue proof does not verify: %v", err)
	}
}

func TestReplicaRefusesWrites(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "doc")
	f := newFollower(t, e)
	pump(t, e.ledger, f)

	if _, err := f.Append(e.request(t, "nope")); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("Append on follower: %v, want ErrNotPermitted", err)
	}
	if _, err := f.CutBlock(); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("CutBlock on follower: %v, want ErrNotPermitted", err)
	}
	desc := &PurgeDescriptor{URI: e.cfg.URI, Point: 1}
	if _, err := f.Purge(desc, sig.NewMultiSig(desc.Digest())); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("Purge on follower: %v, want ErrNotPermitted", err)
	}
	if _, err := f.Reorganize(); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("Reorganize on follower: %v, want ErrNotPermitted", err)
	}
	// And the primary refuses replicated applies.
	if _, _, err := e.ledger.ApplyReplicatedJournals(0, nil, false); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("ApplyReplicatedJournals on primary: %v, want ErrNotPermitted", err)
	}
}

// TestReplicaPartitionedReads is the partition-tolerance core: a
// follower cut off from the primary keeps serving existence proofs for
// its checkpointed prefix — anchored to the last verified checkpoint —
// and honestly refuses what the checkpoint does not cover.
func TestReplicaPartitionedReads(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 6; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	f := newFollower(t, e)
	pump(t, e.ledger, f)
	ckpt, _ := f.State()

	// Partition: the primary keeps committing; the follower sees only
	// the raw journal stream (a torn pull), never a fresh checkpoint.
	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("post-partition-%d", i))
	}
	_, fjLen, _ := f.StreamFrontier(StreamJournals)
	recs, _, _, err := e.ledger.ReadStreamRange(StreamJournals, fjLen, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ApplyReplicatedJournals(fjLen, recs, false); err != nil {
		t.Fatal(err)
	}
	if f.Size() <= ckpt.JSN {
		t.Fatal("follower did not run past its checkpoint")
	}

	// Covered prefix: proofs still verify against the old checkpoint.
	p, err := f.ProveExistence(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.State.JSN != ckpt.JSN {
		t.Fatalf("proof anchored at %d, want checkpoint %d", p.State.JSN, ckpt.JSN)
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatalf("partitioned proof does not verify: %v", err)
	}
	b, err := f.ProveExistenceBatch([]uint64{1, 2, 3}, false, Held{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyExistenceBatch(b, e.lsp.Public()); err != nil {
		t.Fatalf("partitioned batch proof does not verify: %v", err)
	}
	// Uncovered tail: honest staleness, not a fake answer.
	if _, err := f.ProveExistence(ckpt.JSN+1, false); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("uncovered proof: %v, want ErrStaleCheckpoint", err)
	}
	if _, err := f.State(); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("State past checkpoint: %v, want ErrStaleCheckpoint", err)
	}
	info, ok := f.ReplicaStatus()
	if !ok || info.CheckpointJSN != ckpt.JSN || info.AppliedJSN != f.Size() {
		t.Fatalf("ReplicaStatus = %+v, ok=%v", info, ok)
	}

	// Heal: a fresh checkpoint covers the tail again.
	pump(t, e.ledger, f)
	if _, err := f.ProveExistence(ckpt.JSN+1, false); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestFollowerAndPrimaryProveAlike: the two run one proving rule over
// two sources of signed state. Given the same checkpoint — the primary
// holds it as its last signed state, the follower as its newest verified
// one — and a frontier that has moved past it, both fold a covered
// record through fam.ProveAt to that checkpoint and answer with
// byte-identical proofs, single and batched.
func TestFollowerAndPrimaryProveAlike(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.BlockSize = 16 })
	for i := 0; i < 20; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	f := newFollower(t, e)
	pump(t, e.ledger, f) // ends on SetReplicaState(primary.State())
	ckpt, _ := f.State()
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("past-checkpoint-%d", i))
	}
	_, fjLen, _ := f.StreamFrontier(StreamJournals)
	recs, _, _, err := e.ledger.ReadStreamRange(StreamJournals, fjLen, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ApplyReplicatedJournals(fjLen, recs, false); err != nil {
		t.Fatal(err)
	}
	for _, jsn := range []uint64{1, 7, 9, ckpt.JSN - 1} {
		pp, err := e.ledger.ProveExistence(jsn, true)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := f.ProveExistence(jsn, false)
		if err != nil {
			t.Fatal(err)
		}
		if pp.State.JSN != ckpt.JSN || fp.State.JSN != ckpt.JSN {
			t.Fatalf("jsn %d proven at %d (primary) and %d (follower), checkpoint is %d", jsn, pp.State.JSN, fp.State.JSN, ckpt.JSN)
		}
		pp.Payload = nil // followers hold no payloads
		if !bytes.Equal(pp.EncodeBytes(), fp.EncodeBytes()) {
			t.Fatalf("jsn %d: primary and follower proofs differ under one checkpoint", jsn)
		}
	}
	pb, err := e.ledger.ProveExistenceBatch([]uint64{12, 3, 8}, false, Held{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := f.ProveExistenceBatch([]uint64{12, 3, 8}, false, Held{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.EncodeBytes(), fb.EncodeBytes()) {
		t.Fatal("primary and follower batch proofs differ under one checkpoint")
	}
	// Where the rule's two sources part: past the checkpoint the primary
	// signs, the follower says it is stale.
	if p, err := e.ledger.ProveExistence(ckpt.JSN+1, false); err != nil || p.State.JSN != e.ledger.Size() {
		t.Fatalf("primary past its held state: %v", err)
	}
	if _, err := f.ProveExistence(ckpt.JSN+1, false); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("follower past its checkpoint: %v, want ErrStaleCheckpoint", err)
	}
	if _, err := f.ProveClue("K", 0, 4); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("follower clue proof off the frontier: %v, want ErrStaleCheckpoint", err)
	}
}

func TestReplicaRejectsBadCheckpoints(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "doc")
	f := newFollower(t, e)
	pump(t, e.ledger, f)

	// A state signed by the wrong key is rejected outright.
	impostor := sig.GenerateDeterministic("impostor")
	st, _ := e.ledger.State()
	forged := *st
	if _, err := forged.sign(impostor); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicaState(&forged); err == nil {
		t.Fatal("forged checkpoint accepted")
	}
	// A correctly signed state whose roots do not match the replicated
	// stream marks divergence.
	diverged := *st
	diverged.JournalRoot[0] ^= 0xff
	if _, err := diverged.sign(e.lsp); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicaState(&diverged); !errors.Is(err, ErrDiverged) {
		t.Fatalf("diverged checkpoint: %v, want ErrDiverged", err)
	}
}

// TestReplicaPurgeSteadyState replicates a purge through the journal
// stream: the follower applies the purge and pseudo-genesis journals
// and rolls the destructive half forward through the same recovery
// path, including the survival barrier.
func TestReplicaPurgeSteadyState(t *testing.T) {
	e := newEnv(t, nil)
	f := newFollower(t, e)
	desc, ms := purgeSetup(t, e, 10, 6, 2) // purge [0,6), journal 2 survives
	pump(t, e.ledger, f)                   // follower has the pre-purge prefix

	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.append(t, fmt.Sprintf("post-purge-%d", i), "K")
	}
	pump(t, e.ledger, f)

	if f.Base() != e.ledger.Base() {
		t.Fatalf("follower base %d, primary base %d", f.Base(), e.ledger.Base())
	}
	if _, err := f.GetJournal(3); !errors.Is(err, ErrPurged) {
		t.Fatalf("purged journal on follower: %v, want ErrPurged", err)
	}
	survivors, err := f.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	if len(survivors) != 1 || survivors[0].JSN != 2 {
		t.Fatalf("follower survivors = %v", survivors)
	}
	fst, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	pst, _ := e.ledger.State()
	if fst.JournalRoot != pst.JournalRoot || fst.ClueRoot != pst.ClueRoot {
		t.Fatal("follower diverged from primary after replicated purge")
	}
	p, err := f.ProveExistence(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatalf("post-purge proof: %v", err)
	}
}

// TestReplicaResyncAfterGap attaches a stale follower after the primary
// purged past its frontier: the follower re-bases, fills the fam from
// the digest stream, and reseeds from the pseudo genesis — recovery's
// purge path, run over the wire.
func TestReplicaResyncAfterGap(t *testing.T) {
	e := newEnv(t, nil)
	f := newFollower(t, e)
	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("early-%d", i), "K")
	}
	pump(t, e.ledger, f) // follower frontier: 5 journals

	// The primary runs ahead and purges beyond the follower's frontier.
	desc, ms := purgeSetup(t, e, 8, 9)
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.append(t, fmt.Sprintf("late-%d", i), "K")
	}
	pump(t, e.ledger, f)

	if f.Size() != e.ledger.Size() || f.Base() != e.ledger.Base() {
		t.Fatalf("follower %d@%d, primary %d@%d", f.Size(), f.Base(), e.ledger.Size(), e.ledger.Base())
	}
	fst, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	pst, _ := e.ledger.State()
	if fst.JournalRoot != pst.JournalRoot || fst.ClueRoot != pst.ClueRoot || fst.StateRoot != pst.StateRoot {
		t.Fatal("resynced follower diverged from primary")
	}
	// The seeded clue lineage (purged versions included) validates
	// against the replicated digest stream, which purges never touch.
	if err := f.VerifyClueServer("K"); err != nil {
		t.Fatalf("seeded lineage does not validate: %v", err)
	}
	p, err := f.ProveExistence(e.ledger.Size()-2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatalf("post-resync proof: %v", err)
	}
}

// TestReplicaReopen closes a follower mid-stream and reopens it: the
// recovery path restores the apply-only state and replication resumes
// where it left off.
func TestReplicaReopen(t *testing.T) {
	e := newEnv(t, nil)
	store := streamfs.NewMemory()
	blobs := streamfs.NewMemoryBlobs()
	cfg := Config{
		URI:           e.cfg.URI,
		FractalHeight: e.cfg.FractalHeight,
		BlockSize:     e.cfg.BlockSize,
		DBA:           e.cfg.DBA,
		Store:         store,
		Blobs:         blobs,
		Clock:         e.cfg.Clock,
		ApplyOnly:     true,
		PrimaryLSP:    e.lsp.Public(),
	}
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	pump(t, e.ledger, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("more-%d", i), "K")
	}
	f, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	pump(t, e.ledger, f)
	fst, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	pst, _ := e.ledger.State()
	if fst.JournalRoot != pst.JournalRoot || fst.ClueRoot != pst.ClueRoot {
		t.Fatal("reopened follower diverged")
	}
}

// TestReplicaReopenMidResync crashes a follower between the re-base and
// the pseudo-genesis replication — the window where a purged journal
// stream exists with no pseudo genesis on it — and checks reopen lands
// back in seeding and converges.
func TestReplicaReopenMidResync(t *testing.T) {
	e := newEnv(t, nil)
	store := streamfs.NewMemory()
	cfg := Config{
		URI:           e.cfg.URI,
		FractalHeight: e.cfg.FractalHeight,
		BlockSize:     e.cfg.BlockSize,
		DBA:           e.cfg.DBA,
		Store:         store,
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         e.cfg.Clock,
		ApplyOnly:     true,
		PrimaryLSP:    e.lsp.Public(),
	}
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	desc, ms := purgeSetup(t, e, 8, 7)
	if _, err := e.ledger.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}

	// Manually run the resync only through the digest fill, then "crash".
	_, fjLen, _ := f.StreamFrontier(StreamJournals)
	_, pBase, _, err := e.ledger.ReadStreamRange(StreamJournals, fjLen, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pBase == 0 {
		t.Fatal("expected purged primary")
	}
	if err := f.BeginResync(pBase); err != nil {
		t.Fatal(err)
	}
	drecs, _, _, err := e.ledger.ReadStreamRange(StreamDigests, 0, int(pBase), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicatedDigests(0, drecs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopen mid-resync: %v", err)
	}
	if info, ok := f.ReplicaStatus(); !ok || !info.Seeding {
		t.Fatalf("reopened follower not seeding: %+v", info)
	}
	pump(t, e.ledger, f)
	fst, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	pst, _ := e.ledger.State()
	if fst.JournalRoot != pst.JournalRoot {
		t.Fatal("mid-resync reopen diverged")
	}
}

// TestReplicaFrameOverlap re-applies overlapping frames (retry after a
// torn pull): duplicates are skipped, gaps stop the batch.
func TestReplicaFrameOverlap(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i))
	}
	f := newFollower(t, e)
	recs, _, _, err := e.ledger.ReadStreamRange(StreamJournals, 0, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ApplyReplicatedJournals(0, recs[:4], false); err != nil {
		t.Fatal(err)
	}
	// Overlapping retry: offsets 0..5 again, only the tail applies.
	applied, _, err := f.ApplyReplicatedJournals(0, recs, false)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(recs)-4 {
		t.Fatalf("overlap applied %d, want %d", applied, len(recs)-4)
	}
	if f.Size() != uint64(len(recs)) {
		t.Fatalf("follower size %d, want %d", f.Size(), len(recs))
	}
	// A gapped frame applies nothing.
	applied, _, err = f.ApplyReplicatedJournals(uint64(len(recs))+5, recs, false)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("gapped frame applied %d records", applied)
	}
	// Journal bytes are identical to the primary's, record for record.
	frecs, _, _, err := f.ReadStreamRange(StreamJournals, 0, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if string(frecs[i]) != string(recs[i]) {
			t.Fatalf("journal %d differs between primary and follower", i)
		}
	}
}

// TestReplicaOccultReplication checks occult decisions roll forward on
// the follower: the bitmap is set and payload serving fails honestly.
func TestReplicaOccultReplication(t *testing.T) {
	e := newEnv(t, nil)
	f := newFollower(t, e)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	desc := &OccultDescriptor{URI: e.cfg.URI, JSN: 2}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(e.dba); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Occult(desc, ms); err != nil {
		t.Fatal(err)
	}
	pump(t, e.ledger, f)

	rec, err := f.GetJournal(2)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Occulted {
		t.Fatal("occult bit did not replicate")
	}
	// The digest-only existence proof still verifies (Protocol 2).
	p, err := f.ProveExistence(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Payload != nil {
		t.Fatal("occulted journal shipped a payload")
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatal(err)
	}
}
