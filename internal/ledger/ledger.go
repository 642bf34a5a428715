// Package ledger implements the LedgerDB engine of §II-C: an auditable
// centralized ledger database with journals, dense jsn assignment, block
// cutting, a fam journal accumulator, a CM-Tree clue index, a world-state
// MPT, three-phase signing (π_c, π_s, π_t), verifiable purge and occult
// mutations, and the server-side halves of every Dasein verification.
//
// Storage follows Figure 1: raw payloads go to shared blob storage
// (streamfs.BlobStore) keyed by digest; the journal stream holds compact
// records carrying the payload digest; a parallel digest stream retains
// every tx-hash forever so the fam tree survives purges ("we only need
// digest but not raw payload", §III-A2); block headers chain in their own
// stream; milestone journals that must outlive purges are copied to the
// survival stream.
package ledger

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ledgerdb/internal/ca"
	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/mpt"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// Stream names inside the store.
const (
	streamJournals = "journals"
	streamDigests  = "digests"
	streamBlocks   = "blocks"
	streamSurvival = "survival"
)

// Exported stream names: the replication pull API addresses streams by
// name (ReadStreamRange), and followers request exactly these.
const (
	StreamJournals = streamJournals
	StreamDigests  = streamDigests
	StreamBlocks   = streamBlocks
	StreamSurvival = streamSurvival
)

// Errors returned by the engine.
var (
	ErrNotFound     = errors.New("ledger: journal not found")
	ErrOcculted     = errors.New("ledger: journal payload occulted")
	ErrPurged       = errors.New("ledger: journal purged")
	ErrBadConfig    = errors.New("ledger: invalid configuration")
	ErrNotPermitted = errors.New("ledger: operation not permitted")
	ErrVerify       = errors.New("ledger: verification failed")
	ErrClosed       = errors.New("ledger: closed")
)

// Config configures a Ledger.
type Config struct {
	// URI identifies the ledger (the lgid of the Verify API).
	URI string
	// FractalHeight is fam's δ. Zero means 15, the paper's "commonly
	// used" setting.
	FractalHeight uint8
	// BlockSize is the number of journals per block. Zero means 128.
	BlockSize int
	// Clock supplies commit timestamps; nil means time.Now().UnixNano().
	// Tests and the time-attack simulations inject logical clocks.
	Clock func() int64
	// LSP signs receipts and states. Required.
	LSP *sig.KeyPair
	// Registry authenticates member roles. Optional: when nil, role
	// checks are skipped (library-embedded mode); mutations then require
	// only the DBA signature.
	Registry *ca.Registry
	// DBA is the database administrator's public key, required for purge
	// and occult prerequisites.
	DBA sig.PublicKey
	// Store holds the ledger streams. Required.
	Store streamfs.Store
	// Blobs holds raw payloads. Required.
	Blobs streamfs.BlobStore
	// PipelineDepth selects the write-path mode. Zero (the default) is
	// the synchronous path: each Append admits, sequences, and commits
	// inline under the ledger lock — fully deterministic, what tests,
	// recovery, and audit flows rely on. A positive value enables the
	// staged commit pipeline (pipeline.go) with that many units of
	// committer-queue backpressure; Close must be called to drain it.
	PipelineDepth int
	// VerifyBatch enables admission-stage batch verification of client
	// signatures in pipelined mode: up to VerifyBatch pending admissions
	// are collected per window and their π_c/co-signer checks fanned out
	// over a small worker pool (admitverify.go), amortizing ECDSA
	// scheduling the way group commit amortizes π_s signing. Zero (the
	// default) verifies inline on the submitting goroutine. Ignored when
	// PipelineDepth is zero.
	VerifyBatch int
	// VerifyWorkers sizes the batch-verification worker pool. Zero means
	// min(4, GOMAXPROCS). Ignored unless VerifyBatch is set.
	VerifyWorkers int
	// SyncEvery mirrors streamfs.DiskOptions.SyncEvery at the engine
	// level: in addition to the commit points that always flush (genesis,
	// block cuts, purge/occult decisions, time anchors — DESIGN.md §4.4),
	// a positive value also flushes the journal and digest streams after
	// every N applied records, bounding how many acknowledged-but-unsynced
	// appends a crash can lose between block cuts. Zero flushes at commit
	// points only.
	SyncEvery int
	// ApplyOnly opens the ledger as a replication follower (replicate.go):
	// it holds no LSP private key, never writes its own genesis, and
	// refuses every originating mutation — records arrive verbatim from
	// the primary's streams and roll forward through the recovery code
	// paths. LSP may be nil; PrimaryLSP is required instead.
	ApplyOnly bool
	// PrimaryLSP is the pinned public key of the primary's LSP, required
	// in ApplyOnly mode: replicated SignedState checkpoints are verified
	// against it before they are cached or served.
	PrimaryLSP sig.PublicKey
}

func (c Config) withDefaults() (Config, error) {
	if c.URI == "" {
		return c, fmt.Errorf("%w: empty URI", ErrBadConfig)
	}
	if c.LSP == nil && !c.ApplyOnly {
		return c, fmt.Errorf("%w: nil LSP key", ErrBadConfig)
	}
	if c.ApplyOnly {
		if c.PrimaryLSP == (sig.PublicKey{}) {
			return c, fmt.Errorf("%w: apply-only mode requires a pinned PrimaryLSP key", ErrBadConfig)
		}
		// A follower takes no client writes, so the staged pipeline has
		// nothing to do; force the synchronous (recovery-shaped) path.
		c.PipelineDepth = 0
		c.VerifyBatch = 0
	}
	if c.Store == nil || c.Blobs == nil {
		return c, fmt.Errorf("%w: nil store or blob store", ErrBadConfig)
	}
	if c.FractalHeight == 0 {
		c.FractalHeight = 15
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 128
	}
	if c.Clock == nil {
		//lint:ignore L3 the Config.Clock default IS the injection point — replay and audit override it
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c, nil
}

// Ledger is the engine. All mutating operations serialize through its
// write lock (the single-committer jsn assignment of §II-C); reads and
// proofs take the read lock.
type Ledger struct {
	mu  sync.RWMutex
	cfg Config

	journals streamfs.Stream // full records; purge truncates a prefix
	digests  streamfs.Stream // tx-hash per jsn; never truncated
	blocks   streamfs.Stream // block headers
	survival streamfs.Stream // milestone journals preserved across purges

	fam   *fam.Tree
	clues *cmtree.Tree
	state *mpt.Trie

	occulted     map[uint64]bool            // the occult bitmap index
	eraseQueue   []uint64                   // async occult backlog
	payloadRefs  map[hashutil.Digest]int    // live references per blob
	stateIndex   map[string]stateIndexEntry // latest world-state writes
	firstSeen    map[sig.PublicKey]uint64
	headers      []*BlockHeader
	pendingCount uint64
	nextJSN      uint64
	base         uint64 // first unpurged jsn

	// Staged commit pipeline (pipeline.go). seqMu orders stage 2: jsn
	// and timestamp assignment plus queue submission. seqNext is the
	// next jsn to assign; it runs ahead of nextJSN by however many
	// records sit in the committer queue. comm is nil in synchronous
	// mode. failed (guarded by mu) latches a half-applied commit: the
	// engine then refuses further writes rather than let the dense jsn
	// space grow a hole.
	seqMu   sync.Mutex
	seqNext uint64
	comm    *committer
	failed  error

	// verif is the admission-stage batch signature verification pool
	// (admitverify.go); nil unless Config.VerifyBatch is set in
	// pipelined mode.
	verif *verifier

	// unsyncedApplied counts records applied since the last stream flush,
	// driving Config.SyncEvery. Guarded by mu.
	unsyncedApplied int

	// Group fsync coalescing (durability.go). All guarded by mu:
	// syncDeferred is set by applyGroup for the span of one pipelined
	// group apply; while set, commit-point and SyncEvery flushes only
	// mark the pending flags, and applyGroup issues one coalesced sync
	// at the group end before any unit is acknowledged.
	syncDeferred       bool
	pendingCommitSync  bool
	pendingAppliedSync bool

	// stateGen counts commit generations: it is bumped under mu by every
	// mutation that could change what a SignedState or proof reflects
	// (record apply, block cut, purge, occult, reorganize); health
	// endpoints expose it. stateSigs holds the newest signed state, which
	// proofs reuse while it covers them (statecache.go).
	stateGen  uint64
	stateSigs stateCache

	// clueSet caches the sorted clue-set (absence) commitment, keyed on
	// (clue name-set version, purge base) rather than stateGen: plain
	// appends to existing clues never invalidate it (statecache.go).
	clueSet clueSetCache

	// replica is the follower-mode state (replicate.go): the cached
	// primary checkpoints proofs anchor to, and the resync seeding flag.
	// Guarded by mu.
	replica replicaState
}

// Open creates or recovers a ledger over the given stores.
func Open(cfg Config) (*Ledger, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &Ledger{
		cfg:         cfg,
		fam:         fam.MustNew(cfg.FractalHeight),
		clues:       cmtree.New(),
		state:       mpt.New(),
		occulted:    make(map[uint64]bool),
		payloadRefs: make(map[hashutil.Digest]int),
		stateIndex:  make(map[string]stateIndexEntry),
		firstSeen:   make(map[sig.PublicKey]uint64),
	}
	for _, open := range []struct {
		name string
		dst  *streamfs.Stream
	}{
		{streamJournals, &l.journals},
		{streamDigests, &l.digests},
		{streamBlocks, &l.blocks},
		{streamSurvival, &l.survival},
	} {
		s, err := cfg.Store.Stream(open.name)
		if err != nil {
			return nil, err
		}
		*open.dst = s
	}
	// The flush order starts with the payloads (durability.go). A journal
	// stream that also flushes on its own must keep to it, or a crash could
	// leave a journal on disk without the payload it names.
	if s, ok := l.journals.(streamfs.SelfSyncer); ok {
		s.BeforeSelfSync(cfg.Blobs.Sync)
	}
	if err := l.reconcileStreams(); err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", cfg.URI, err)
	}
	if l.digests.Len() > 0 {
		if err := l.recover(); err != nil {
			return nil, fmt.Errorf("ledger: recover %s: %w", cfg.URI, err)
		}
	} else if !cfg.ApplyOnly {
		// A follower never authors its own genesis — jsn 0 replicates
		// from the primary like every other record.
		if err := l.writeGenesis(); err != nil {
			return nil, err
		}
	} else if b := l.journals.Base(); b > 0 {
		// A follower that crashed right after a resync re-base, before
		// any digest of the fill survived: re-enter seeding at the
		// recorded base (recover() does the same when digests exist).
		l.base = b
		l.replica.seeding = true
	}
	l.seqNext = l.nextJSN
	if cfg.PipelineDepth > 0 {
		l.comm = &committer{
			queue:   make(chan *commitUnit, cfg.PipelineDepth),
			stopped: make(chan struct{}),
		}
		go l.runCommitter()
		if cfg.VerifyBatch > 0 {
			workers := cfg.VerifyWorkers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
				if workers > 4 {
					workers = 4
				}
			}
			l.verif = newVerifier(cfg.VerifyBatch, workers)
		}
	}
	return l, nil
}

// writeGenesis appends the genesis journal (jsn 0), authored by the LSP.
func (l *Ledger) writeGenesis() error {
	req := &journal.Request{
		LedgerURI: l.cfg.URI,
		Type:      journal.TypeGenesis,
		Payload:   []byte("genesis:" + l.cfg.URI),
	}
	if err := req.Sign(l.cfg.LSP); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.appendLocked(req, nil); err != nil {
		return err
	}
	// A ledger must never reopen without its genesis: flush before the
	// first client request can be acknowledged.
	return l.syncCommitLocked()
}

// URI returns the ledger identifier.
func (l *Ledger) URI() string { return l.cfg.URI }

// FractalHeight returns the fam δ in use (auditors rebuild a shadow fam
// tree with the same shape).
func (l *Ledger) FractalHeight() uint8 { return l.cfg.FractalHeight }

// LSPPublic returns the LSP's public key (what clients pin). In
// apply-only mode there is no local signing key; the pinned primary key
// is the one every served state and proof verifies against.
func (l *Ledger) LSPPublic() sig.PublicKey {
	if l.cfg.LSP == nil {
		return l.cfg.PrimaryLSP
	}
	return l.cfg.LSP.Public()
}

// Size returns the number of journals committed (including genesis and
// mutation journals).
func (l *Ledger) Size() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nextJSN
}

// Base returns the first unpurged jsn.
func (l *Ledger) Base() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base
}

// Append validates a signed client request (π_c and any co-signatures,
// plus member certification when a registry is configured — the threat-A
// check) and commits it, returning the LSP-signed receipt π_s. In
// pipelined mode all of that admission work runs lock-free on the
// caller's goroutine (stage 1), and the commit rides the staged
// pipeline.
func (l *Ledger) Append(req *journal.Request) (*journal.Receipt, error) {
	if err := l.writable(); err != nil {
		return nil, err
	}
	if l.comm != nil {
		adm, err := l.admitOne(req, false)
		if err != nil {
			return nil, err
		}
		return l.appendPipelined(adm)
	}
	// Synchronous mode: the historical write path.
	if err := req.ValidateShape(); err != nil {
		return nil, err
	}
	if err := req.VerifyAllSigsAt(req.Hash()); err != nil {
		return nil, err
	}
	if req.LedgerURI != l.cfg.URI {
		return nil, fmt.Errorf("%w: request for %q on ledger %q", journal.ErrBadRequest, req.LedgerURI, l.cfg.URI)
	}
	switch req.Type {
	case journal.TypeNormal:
	default:
		return nil, fmt.Errorf("%w: clients may only append normal journals (got %s)", ErrNotPermitted, req.Type)
	}
	if l.cfg.Registry != nil {
		if err := l.cfg.Registry.Check(req.ClientPK, ca.RoleUser); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotPermitted, err)
		}
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	return l.appendLocked(req, nil)
}

// appendLocked commits a request as the next journal, synchronously
// under the apply lock (the serial path, and every privileged write —
// genesis, mutations, time anchoring — which runs under lockExclusive).
// extra carries type-specific payloads (mutation descriptors, time
// attestations).
func (l *Ledger) appendLocked(req *journal.Request, extra []byte) (*journal.Receipt, error) {
	adm, err := l.admitChecked(req, extra, req.Hash())
	if err != nil {
		return nil, err
	}
	rec := buildRecord(&adm, l.nextJSN, l.cfg.Clock())
	txHash := rec.TxHash()
	if err := l.applyRecordLocked(rec, txHash); err != nil {
		return nil, err
	}
	receipt := l.receiptLocked(rec, txHash)
	if err := receipt.Sign(l.cfg.LSP); err != nil {
		return nil, err
	}
	return receipt, nil
}

// applyRecordLocked applies one sequenced record to every persistent
// structure: journal and digest streams, the fam accumulator, the
// CM-Tree clue index, the world-state MPT, and the block cutter. The
// record's jsn must extend the applied prefix densely; any failure
// after the journal stream write latches l.failed, because the streams
// and indexes have diverged and further writes would compound the
// damage.
func (l *Ledger) applyRecordLocked(rec *journal.Record, txHash hashutil.Digest) error {
	if l.failed != nil {
		return l.failed
	}
	if rec.JSN != l.nextJSN {
		l.failed = fmt.Errorf("ledger: sequenced jsn %d does not extend applied prefix %d", rec.JSN, l.nextJSN)
		return l.failed
	}
	// Encode on a pooled writer: Stream.Append copies the record, so the
	// buffer can go straight back to the pool.
	enc := wire.GetWriter()
	rec.Encode(enc)
	_, err := l.journals.Append(enc.Bytes())
	wire.PutWriter(enc)
	if err != nil {
		// Nothing was applied; the engine can keep going (in pipelined
		// mode the next unit's jsn check latches the failure instead).
		return fmt.Errorf("ledger: journal stream: %w", err)
	}
	if _, err := l.digests.Append(txHash[:]); err != nil {
		l.failed = fmt.Errorf("ledger: digest stream: %w", err)
		return l.failed
	}
	l.payloadRefs[rec.PayloadDigest]++
	l.fam.Append(txHash)
	for _, c := range rec.Clues {
		if prevLast, existed := l.clues.Insert(c, rec.JSN, txHash); existed && prevLast < l.base {
			// A fully-purged clue just came back to life: the committed
			// live set changed without a name-set version bump.
			l.clueSet.invalidate()
		}
	}
	if len(rec.StateKey) > 0 {
		l.state = l.state.Put(rec.StateKey, encodeStateValue(rec.JSN, rec.PayloadDigest))
		l.stateIndex[string(rec.StateKey)] = stateIndexEntry{jsn: rec.JSN, digest: rec.PayloadDigest}
	}
	if _, ok := l.firstSeen[rec.ClientPK]; !ok {
		l.firstSeen[rec.ClientPK] = rec.JSN
	}
	l.nextJSN++
	l.stateGen++
	l.pendingCount++
	l.unsyncedApplied++
	if l.pendingCount >= uint64(l.cfg.BlockSize) {
		if err := l.cutBlockLocked(); err != nil {
			l.failed = err
			return err
		}
	} else if l.cfg.SyncEvery > 0 && l.unsyncedApplied >= l.cfg.SyncEvery {
		if err := l.appliedSyncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// receiptLocked fixes the receipt fields for a just-applied record. The
// block height is "the block that will contain it" — unless applying
// the record itself cut a block that already contains it.
func (l *Ledger) receiptLocked(rec *journal.Record, txHash hashutil.Digest) *journal.Receipt {
	receipt := &journal.Receipt{
		JSN:         rec.JSN,
		RequestHash: rec.RequestHash,
		TxHash:      txHash,
		BlockHeight: uint64(len(l.headers)),
		Timestamp:   rec.Timestamp,
	}
	if n := len(l.headers); n > 0 && l.headers[n-1].FirstJSN+l.headers[n-1].Count > rec.JSN {
		receipt.BlockHeight = l.headers[n-1].Height
		receipt.BlockHash = l.headers[n-1].Hash()
	}
	return receipt
}

// stateIndexEntry mirrors the latest world-state write per key so that
// pseudo-genesis snapshots can be built without walking the MPT.
type stateIndexEntry struct {
	jsn    uint64
	digest hashutil.Digest
}

func encodeStateValue(jsn uint64, payload hashutil.Digest) []byte {
	w := wire.NewWriter(48)
	w.Uvarint(jsn)
	w.Digest(payload)
	return w.Bytes()
}

func decodeStateValue(b []byte) (uint64, hashutil.Digest, error) {
	r := wire.NewReader(b)
	jsn := r.Uvarint()
	d := r.Digest()
	if err := r.Finish(); err != nil {
		return 0, hashutil.Zero, err
	}
	return jsn, d, nil
}

// CutBlock seals any pending journals into a block immediately (normally
// blocks cut automatically every BlockSize journals).
func (l *Ledger) CutBlock() (*BlockHeader, error) {
	if err := l.writable(); err != nil {
		return nil, err
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	if l.pendingCount == 0 {
		if n := len(l.headers); n > 0 {
			return l.headers[n-1], nil
		}
		return nil, fmt.Errorf("%w: no journals to commit", ErrNotFound)
	}
	if err := l.cutBlockLocked(); err != nil {
		return nil, err
	}
	return l.headers[len(l.headers)-1], nil
}

func (l *Ledger) cutBlockLocked() error {
	jroot, err := l.fam.Root()
	if err != nil {
		return err
	}
	h := &BlockHeader{
		Height:      uint64(len(l.headers)),
		FirstJSN:    l.nextJSN - l.pendingCount,
		Count:       l.pendingCount,
		Timestamp:   l.cfg.Clock(),
		JournalRoot: jroot,
		ClueRoot:    l.clues.RootHash(),
		StateRoot:   l.state.RootHash(),
	}
	if n := len(l.headers); n > 0 {
		h.Prev = l.headers[n-1].Hash()
	}
	if _, err := l.blocks.Append(h.EncodeBytes()); err != nil {
		return fmt.Errorf("ledger: block stream: %w", err)
	}
	l.headers = append(l.headers, h)
	l.pendingCount = 0
	l.stateGen++
	// A block cut is a commit point: the header and everything it covers
	// must be durable before the cut is acknowledged (DESIGN.md §4.4).
	// Inside a pipelined group the flush is deferred to the group end —
	// nothing is acknowledged before it runs (durability.go).
	return l.commitPointSyncLocked()
}

// Header returns the block header at height.
func (l *Ledger) Header(height uint64) (*BlockHeader, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height >= uint64(len(l.headers)) {
		return nil, fmt.Errorf("%w: block %d of %d", ErrNotFound, height, len(l.headers))
	}
	return l.headers[height], nil
}

// Height returns the number of committed blocks.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return uint64(len(l.headers))
}

// State returns the live LSP-signed LedgerInfo — the trusted datum for
// client-side verification and the digest source for time anchoring.
func (l *Ledger) State() (*SignedState, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stateLocked()
}

// stateLocked returns the signed state AT the frontier: the held one
// when nothing was committed since it was signed (two mutex operations,
// no crypto, no clock read), else a fresh signature. Callers hold l.mu
// (read or write). On a follower it is the primary's checkpoint, and
// only while the applied prefix matches it exactly.
func (l *Ledger) stateLocked() (*SignedState, error) {
	st, _, err := l.provingStateLocked(l.nextJSN - 1)
	return st, err
}

// provingStateLocked is the one proving rule primary and follower share:
// a proof is built at the newest already-signed state that covers it —
// one whose prefix includes jsn last, the highest the proof names. fam
// folds any covered record to that state's root (ProveAt), and the
// returned trie is CM-Tree1 as of it, so nothing needs signing. The
// primary reuses its last signed state while that trails the frontier by
// less than one block, and signs the frontier when nothing covers the
// request. A follower cannot sign: it offers the primary's newest
// checkpoint, however far the applied prefix has run past it — what
// keeps a partitioned follower serving the checkpointed prefix — and
// honestly refuses the uncovered tail (ErrStaleCheckpoint, 503 at the
// server). It holds no historical trie, so clues is nil there unless
// the checkpoint sits exactly at the applied frontier. Callers hold
// l.mu (read or write).
func (l *Ledger) provingStateLocked(last uint64) (st *SignedState, clues *mpt.Trie, err error) {
	if l.cfg.ApplyOnly {
		st = l.replica.current
		if st == nil || l.replica.seeding || last >= st.JSN {
			return nil, nil, fmt.Errorf("%w: applied %d, no checkpoint past jsn %d", ErrStaleCheckpoint, l.nextJSN, last)
		}
		if st.JSN == l.nextJSN {
			clues = l.clues.Trie()
		}
		return st, clues, nil
	}
	if st, clues = l.stateSigs.covering(last, l.nextJSN, uint64(l.cfg.BlockSize)); st != nil {
		return st, clues, nil
	}
	jroot, err := l.fam.Root()
	if err != nil {
		return nil, nil, err
	}
	cset := l.clueSet.get(l.clues, l.base)
	clues = l.clues.Trie()
	skel := SignedState{
		URI:         l.cfg.URI,
		JSN:         l.nextJSN,
		JournalRoot: jroot,
		ClueRoot:    clues.RootHash(),
		StateRoot:   l.state.RootHash(),
		ClueCount:   cset.Count(),
		ClueSetRoot: cset.Root(),
		Timestamp:   l.cfg.Clock(),
	}
	st, err = l.stateSigs.signAndStore(skel, clues, l.cfg.LSP)
	return st, clues, err
}

// invalidateProofsLocked marks a mutation that changes what a proof may
// say WITHOUT moving the frontier (purge completion, occult, reorganize):
// a new generation, and the held signed state — which still covers
// everything — must answer for nothing. Callers hold l.mu (write).
func (l *Ledger) invalidateProofsLocked() {
	l.stateGen++
	l.stateSigs.drop()
}

// frontierStateLocked is the state for replies that describe the ledger
// as it stands (queries, offline bundles): the frontier on a primary; on
// a follower, which cannot move its checkpoint, the same covering rule
// as every other proof.
func (l *Ledger) frontierStateLocked(last uint64) (*SignedState, error) {
	if !l.cfg.ApplyOnly {
		last = l.nextJSN - 1
	}
	st, _, err := l.provingStateLocked(last)
	return st, err
}

// StateSigStats reports how many states the LSP has signed and how many
// proofs and state reads were served under an already-signed one.
func (l *Ledger) StateSigStats() (signed, reused uint64) {
	l.stateSigs.mu.Lock()
	defer l.stateSigs.mu.Unlock()
	return l.stateSigs.signed, l.stateSigs.reused
}

// GetJournal returns the committed record at jsn. Occulted journals come
// back with the Occulted bit set; purged ones fail with ErrPurged. The
// ledger lock covers only the in-memory snapshot (bounds, occult bit);
// the journal-stream read happens after it is dropped — committed
// records are immutable, and the stream carries its own lock.
func (l *Ledger) GetJournal(jsn uint64) (*journal.Record, error) {
	l.mu.RLock()
	if jsn >= l.nextJSN {
		defer l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, l.nextJSN)
	}
	if jsn < l.base {
		defer l.mu.RUnlock()
		return nil, fmt.Errorf("%w: jsn %d below pseudo genesis %d", ErrPurged, jsn, l.base)
	}
	occ := l.occulted[jsn]
	l.mu.RUnlock()
	// Zero-copy read: the frame lands in a pooled buffer and DecodeRecord
	// copies out the few fields it keeps, so serving a journal allocates
	// no transient payload slice. Proof serving (ProveExistence) instead
	// uses readJournalBytes — ExistenceProof retains the raw record bytes.
	rb, err := streamfs.ReadRecBuf(l.journals, jsn)
	if err != nil {
		return nil, l.mapJournalReadErr(jsn, err)
	}
	rec, err := journal.DecodeRecord(rb.Bytes())
	rb.Release()
	if err != nil {
		return nil, err
	}
	rec.Occulted = occ
	return rec, nil
}

// readJournalBytes reads a committed record's raw bytes without holding
// the ledger lock. The caller has already bounds-checked jsn; if a
// concurrent purge truncated the prefix between that check and this
// read, the stream miss is reported as ErrPurged.
func (l *Ledger) readJournalBytes(jsn uint64) ([]byte, error) {
	raw, err := l.journals.Read(jsn)
	if err != nil {
		return nil, l.mapJournalReadErr(jsn, err)
	}
	return raw, nil
}

// mapJournalReadErr distinguishes a concurrent purge from real damage.
func (l *Ledger) mapJournalReadErr(jsn uint64, err error) error {
	l.mu.RLock()
	base := l.base
	l.mu.RUnlock()
	if jsn < base {
		return fmt.Errorf("%w: jsn %d below pseudo genesis %d", ErrPurged, jsn, base)
	}
	return fmt.Errorf("ledger: read journal %d: %w", jsn, err)
}

func (l *Ledger) getJournalLocked(jsn uint64) (*journal.Record, error) {
	if jsn >= l.nextJSN {
		return nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, l.nextJSN)
	}
	if jsn < l.base {
		return nil, fmt.Errorf("%w: jsn %d below pseudo genesis %d", ErrPurged, jsn, l.base)
	}
	raw, err := l.journals.Read(jsn)
	if err != nil {
		return nil, fmt.Errorf("ledger: read journal %d: %w", jsn, err)
	}
	rec, err := journal.DecodeRecord(raw)
	if err != nil {
		return nil, err
	}
	rec.Occulted = l.occulted[jsn]
	return rec, nil
}

// GetPayload returns the raw payload of a journal, verified against its
// recorded digest. Occulted journals fail with ErrOcculted.
func (l *Ledger) GetPayload(jsn uint64) ([]byte, error) {
	rec, err := l.GetJournal(jsn)
	if err != nil {
		return nil, err
	}
	if rec.Occulted {
		return nil, fmt.Errorf("%w: jsn %d", ErrOcculted, jsn)
	}
	data, err := l.cfg.Blobs.Get(rec.PayloadDigest)
	if err != nil {
		return nil, err
	}
	if hashutil.Sum(data) != rec.PayloadDigest {
		return nil, fmt.Errorf("%w: payload of jsn %d does not match recorded digest", ErrVerify, jsn)
	}
	return data, nil
}

// TxHash returns the accumulated digest of any journal ever committed,
// including purged ones (the digest stream is never truncated).
func (l *Ledger) TxHash(jsn uint64) (hashutil.Digest, error) {
	raw, err := l.digests.Read(jsn)
	if err != nil {
		return hashutil.Zero, fmt.Errorf("%w: jsn %d", ErrNotFound, jsn)
	}
	var d hashutil.Digest
	copy(d[:], raw)
	return d, nil
}

// ListClue returns the records of a clue's lineage, in version order.
func (l *Ledger) ListClue(clue string) ([]*journal.Record, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	jsns, err := l.clues.JSNs(clue)
	if err != nil {
		return nil, fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	out := make([]*journal.Record, 0, len(jsns))
	for _, jsn := range jsns {
		rec, err := l.getJournalLocked(jsn)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// GetState looks up the world-state entry for a key: the jsn and payload
// digest of the latest journal that set it.
func (l *Ledger) GetState(key []byte) (uint64, hashutil.Digest, error) {
	l.mu.RLock()
	v, err := l.state.Get(key)
	l.mu.RUnlock()
	if err != nil {
		return 0, hashutil.Zero, fmt.Errorf("%w: state key %q", ErrNotFound, key)
	}
	return decodeStateValue(v)
}

// AnchorTime records a verified TSA attestation as a time journal
// (Protocol 3, step 2: the signed time journal is anchored back to the
// ledger). When a registry is configured the TSA key must be certified.
func (l *Ledger) AnchorTime(ta *journal.TimeAttestation) (*journal.Receipt, error) {
	if err := l.writable(); err != nil {
		return nil, err
	}
	if err := ta.Verify(); err != nil {
		return nil, err
	}
	if l.cfg.Registry != nil {
		if err := l.cfg.Registry.Check(ta.TSAPK, ca.RoleTSA); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotPermitted, err)
		}
	}
	req := &journal.Request{
		LedgerURI: l.cfg.URI,
		Type:      journal.TypeTime,
		Payload:   []byte("time-journal"),
	}
	if err := req.Sign(l.cfg.LSP); err != nil {
		return nil, err
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	receipt, err := l.appendLocked(req, ta.EncodeBytes())
	if err != nil {
		return nil, err
	}
	// A time anchor is a commit point: the attested prefix and the time
	// journal must survive a crash together (DESIGN.md §4.4).
	if err := l.syncCommitLocked(); err != nil {
		return nil, err
	}
	return receipt, nil
}

// AnchorTimeWith runs one two-way pegging round (Protocol 3) atomically:
// under the commit lock it takes the current fam root, has stamp endorse
// it (a TSA, or a T-Ledger submission), and anchors the result back as a
// time journal. Because the lock is held across the exchange, the
// attestation's digest is exactly the fam root over all journals that
// precede the time journal — which is what lets an auditor re-derive and
// check it (§V step 2).
func (l *Ledger) AnchorTimeWith(stamp func(hashutil.Digest) (*journal.TimeAttestation, error)) (*journal.Receipt, error) {
	if err := l.writable(); err != nil {
		return nil, err
	}
	l.lockExclusive()
	defer l.unlockExclusive()
	root, err := l.fam.Root()
	if err != nil {
		return nil, err
	}
	ta, err := stamp(root)
	if err != nil {
		return nil, fmt.Errorf("ledger: time endorsement: %w", err)
	}
	if err := ta.Verify(); err != nil {
		return nil, err
	}
	if ta.Digest != root {
		return nil, fmt.Errorf("%w: attestation covers %s, submitted %s", ErrVerify, ta.Digest.Short(), root.Short())
	}
	if l.cfg.Registry != nil {
		if err := l.cfg.Registry.Check(ta.TSAPK, ca.RoleTSA); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotPermitted, err)
		}
	}
	req := &journal.Request{LedgerURI: l.cfg.URI, Type: journal.TypeTime, Payload: []byte("time-journal")}
	//lint:ignore L1 Protocol 3 holds the commit lock across the whole pegging round so no journal lands between root and attestation
	if err := req.Sign(l.cfg.LSP); err != nil {
		return nil, err
	}
	receipt, err := l.appendLocked(req, ta.EncodeBytes())
	if err != nil {
		return nil, err
	}
	if err := l.syncCommitLocked(); err != nil {
		return nil, err
	}
	return receipt, nil
}

// FamRootAt recomputes the fam root as it was when size journals had
// been committed. Auditors use it to check that a time journal's
// attestation covers exactly the preceding ledger prefix.
func (l *Ledger) FamRootAt(size uint64) (hashutil.Digest, error) {
	// Only the bound needs the lock. The digest stream is append-only and
	// never truncated (purge rewrites the journal stream, not digests),
	// so the prefix [0, size) is immutable once nextJSN has passed it and
	// the O(size) re-derivation can run without stalling committers.
	l.mu.RLock()
	next := l.nextJSN
	l.mu.RUnlock()
	if size == 0 || size > next {
		return hashutil.Zero, fmt.Errorf("%w: size %d of %d", ErrNotFound, size, next)
	}
	t := fam.MustNew(l.cfg.FractalHeight)
	for jsn := uint64(0); jsn < size; jsn++ {
		raw, err := l.digests.Read(jsn)
		if err != nil {
			return hashutil.Zero, err
		}
		var d hashutil.Digest
		copy(d[:], raw)
		t.Append(d)
	}
	return t.Root()
}

// Anchor captures a fam trusted anchor (fam-aoa) at the current state.
// Verifiers set anchors after completing an audit.
func (l *Ledger) Anchor() *fam.Anchor {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.fam.AnchorNow()
}

// Clock returns the configured clock (used by the T-Ledger integration).
func (l *Ledger) Clock() func() int64 { return l.cfg.Clock }
