// Package ledgerdb is the public API of this repository: a from-scratch
// reproduction of LedgerDB's ubiquitous verification (ICDE 2022) — a
// centralized ledger database with Dasein-complete (what-when-who)
// auditability, the fam fractal accumulator, the CM-Tree clue index,
// verifiable purge/occult mutations, and the T-Ledger time notary.
//
// The package re-exports the internal building blocks under stable names
// and adds Stack, a batteries-included single-process deployment used by
// the examples and the quickstart:
//
//	stack, _ := ledgerdb.NewStack(ledgerdb.StackOptions{URI: "ledger://demo"})
//	alice := stack.NewMember("alice")
//	receipt, _ := alice.Append([]byte("hello"), "my-clue")
//	rec, _, _ := alice.VerifyExistence(receipt.JSN)
//	report, _ := stack.Audit()
package ledgerdb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ledgerdb/internal/audit"
	"ledgerdb/internal/ca"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/index"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/replica"
	"ledgerdb/internal/shard"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Request is a client-signed transaction submission (π_c).
	Request = journal.Request
	// Receipt is the LSP-signed commitment confirmation (π_s).
	Receipt = journal.Receipt
	// Record is a committed journal entry.
	Record = journal.Record
	// TimeAttestation is a TSA endorsement (π_t).
	TimeAttestation = journal.TimeAttestation
	// SignedState is the live LSP-signed LedgerInfo.
	SignedState = ledger.SignedState
	// BlockHeader is a per-block LedgerInfo snapshot.
	BlockHeader = ledger.BlockHeader
	// ExistenceProof is a client-verifiable what proof.
	ExistenceProof = ledger.ExistenceProof
	// ClueProofBundle is a client-verifiable lineage proof.
	ClueProofBundle = ledger.ClueProofBundle
	// PurgeDescriptor describes a verifiable purge (§III-A2).
	PurgeDescriptor = ledger.PurgeDescriptor
	// OccultDescriptor describes a verifiable occult (§III-A3).
	OccultDescriptor = ledger.OccultDescriptor
	// AuditConfig configures a Dasein-complete audit (§V).
	AuditConfig = audit.Config
	// AuditReport summarizes a successful audit.
	AuditReport = audit.Report
	// KeyPair is an ECDSA P-256 identity.
	KeyPair = sig.KeyPair
	// PublicKey is a compact public key.
	PublicKey = sig.PublicKey
	// MultiSig collects mutation signatures.
	MultiSig = sig.MultiSig
	// Ledger is the engine itself, for advanced embedding.
	Ledger = ledger.Ledger
	// Config is the engine configuration.
	Config = ledger.Config
	// TLedger is the public time notary.
	TLedger = tledger.TLedger
	// TSAPool is a pool of time-stamp authorities.
	TSAPool = tsa.Pool
	// Partitioner routes requests to shards by digest range.
	Partitioner = shard.Partitioner
	// Coordinator folds shard fam roots into the signed global state.
	Coordinator = shard.Coordinator
	// GlobalState is the coordinator-signed top-level LedgerInfo.
	GlobalState = shard.GlobalState
	// GlobalProof is the cross-shard record → global-root proof.
	GlobalProof = shard.GlobalProof
	// Query is a rich read (by clue prefix, time range, or signer).
	Query = ledger.Query
	// QueryResult is a proof-carrying rich-read reply.
	QueryResult = ledger.QueryResult
	// AbsenceProof is an authenticated "no such clue" statement.
	AbsenceProof = ledger.AbsenceProof
	// Index is the in-memory query index behind the rich-query layer.
	Index = index.Index
	// ProofBundle is a self-contained offline proof (record + fam path +
	// anchored checkpoint + time-attestation chain).
	ProofBundle = ledger.ProofBundle
	// ReplicaStatus is a follower's replication progress snapshot.
	ReplicaStatus = replica.Status
	// Puller drives a follower ledger against a replication source.
	Puller = replica.Puller
)

// Journal types.
const (
	TypeNormal = journal.TypeNormal
	TypePurge  = journal.TypePurge
	TypeOccult = journal.TypeOccult
	TypeTime   = journal.TypeTime
)

// Query kinds.
const (
	QueryByPrefix = ledger.QueryByPrefix
	QueryByTime   = ledger.QueryByTime
	QueryBySigner = ledger.QueryBySigner
)

// Re-exported constructors and pure verification functions.
var (
	// OpenLedger opens or recovers a ledger engine.
	OpenLedger = ledger.Open
	// VerifyExistence is the client-side what(+who) verification.
	VerifyExistence = ledger.VerifyExistence
	// VerifyClue is the client-side lineage verification (§IV-C).
	VerifyClue = ledger.VerifyClue
	// VerifyGlobal is the client-side cross-shard verification.
	VerifyGlobal = shard.VerifyGlobal
	// VerifyQueryResult is the client-side rich-read verification.
	VerifyQueryResult = ledger.VerifyQueryResult
	// VerifyAbsenceProof is the client-side absence verification.
	VerifyAbsenceProof = ledger.VerifyAbsence
	// OpenIndex builds a query index over a ledger from its journal
	// stream (the store argument is unused).
	OpenIndex = index.Open
	// VerifyBundle is the fully-offline proof-bundle verification: no
	// network, no ledger — just the bundle bytes, the pinned LSP key, and
	// (optionally) pinned TSA keys.
	VerifyBundle = ledger.VerifyBundle
	// DecodeProofBundle decodes an exported bundle's wire form.
	DecodeProofBundle = ledger.DecodeProofBundle
	// Audit runs the Dasein-complete audit (§V).
	Audit = audit.Audit
	// GenerateKey creates a fresh identity.
	GenerateKey = sig.Generate
	// NewMultiSig starts a mutation signature collection.
	NewMultiSig = sig.NewMultiSig
	// NewMemoryStore / NewMemoryBlobs build in-memory storage.
	NewMemoryStore = streamfs.NewMemory
	NewMemoryBlobs = streamfs.NewMemoryBlobs
	// OpenDiskStore / OpenDiskBlobs build persistent storage.
	OpenDiskStore = streamfs.OpenDisk
	OpenDiskBlobs = streamfs.OpenDiskBlobs
)

// Re-exported sentinel errors.
var (
	// ErrPurged marks a journal erased by a verifiable purge.
	ErrPurged = ledger.ErrPurged
	// ErrStaleCheckpoint marks a follower read past the newest
	// primary-signed checkpoint it has verified.
	ErrStaleCheckpoint = ledger.ErrStaleCheckpoint
)

// StackOptions configures a single-process deployment.
type StackOptions struct {
	// URI identifies the ledger; empty means "ledger://local".
	URI string
	// Dir persists the ledger under a directory; empty means in-memory.
	Dir string
	// FractalHeight is fam's δ (0 = 15). Small values exercise many
	// epochs; see DESIGN.md.
	FractalHeight uint8
	// BlockSize is journals per block (0 = 128).
	BlockSize int
	// DeltaTau is the T-Ledger finalization period (0 = 1s).
	DeltaTau time.Duration
	// Clock overrides wall time (tests, deterministic demos). It is called
	// concurrently and must be safe for concurrent use.
	Clock func() int64
	// PipelineDepth bounds the committer queue of the staged write path
	// (ledger.Config.PipelineDepth; 0 = ledger.DefaultPipelineDepth).
	// Stacks must call Close to drain it.
	PipelineDepth int
	// Disk tunes the on-disk stream store when Dir is set (segment
	// capacity, per-stream fsync cadence, injected file systems for
	// crash tests). Ignored for in-memory stacks.
	Disk DiskOptions
	// SyncEvery is the engine-level flush cadence (ledger.Config
	// .SyncEvery): commit points always sync; a positive value also
	// syncs the journal/digest streams every N applied records.
	SyncEvery int
	// Shards is the number of clue-sharded engine instances (0 or 1 =
	// single node — the 1-shard degenerate case). All shards share the
	// deployment URI, LSP key, CA, registry, and T-Ledger; appends route
	// by clue through a digest-range partitioner, and a coordinator
	// folds the per-shard fam roots into one signed global state.
	Shards int
	// FoldInterval starts the coordinator's background fold loop with
	// that period (0 = fold on demand only — proofs and audits fold
	// synchronously when needed).
	FoldInterval time.Duration
	// Followers is the number of read replicas per shard (0 = none).
	// Each follower is an apply-only engine continuously pulling its
	// shard's streams through the sealed-frame replication protocol —
	// crash recovery running as a service — with its own rich-query
	// index. Followers live in memory (a replica is rebuildable from
	// its primary by construction) and drain before the stack closes.
	Followers int
	// FollowerInterval is each follower's idle poll period once caught
	// up (0 = 50ms).
	FollowerInterval time.Duration
}

// DiskOptions re-exports the stream-store tuning knobs.
type DiskOptions = streamfs.DiskOptions

// Stack is a complete local deployment: N clue-sharded ledgers (one in
// single-node mode) behind a routing partitioner, the cross-shard
// coordinator, the shared LSP and DBA identities, a CA with a member
// registry, a TSA pool, and a T-Ledger. Ledger aliases shard 0, so
// single-node code reads exactly as before.
type Stack struct {
	Ledger      *ledger.Ledger   // shard 0 — the whole ledger in single-node mode
	Shards      []*ledger.Ledger // all shards, in partition order
	Indexes     []*index.Index   // per-shard rich-query indexes, same order
	Followers   []*Follower      // read replicas, grouped by shard then replica slot
	Partitioner *shard.Partitioner
	Coordinator *shard.Coordinator
	TLedger     *tledger.TLedger
	TSAs        *tsa.Pool
	CA          *ca.Authority
	Registry    *ca.Registry
	LSP         *sig.KeyPair
	DBA         *sig.KeyPair

	uri   string
	clock func() int64

	closeOnce sync.Once
	closeErr  error
}

// Follower is one running read replica: an apply-only engine fed by a
// background Puller, plus its own rich-query index. It serves every
// read the primary serves — existence and clue proofs, rich queries,
// absence — anchored to the newest primary-signed checkpoint it has
// verified, and keeps serving them (honestly stale) when the primary is
// gone.
type Follower struct {
	Ledger *ledger.Ledger
	Index  *index.Index
	Puller *replica.Puller
	Shard  int // index of the shard this follower replicates

	primary *ledger.Ledger
	cancel  context.CancelFunc
	done    chan struct{}
}

// Status returns the follower's replication snapshot (watermarks, lag,
// degraded flag).
func (f *Follower) Status() ReplicaStatus { return f.Puller.Status() }

// WaitCaughtUp blocks until the follower is level with the primary's
// current frontier — applied, checkpointed, and purge-rebased — or ctx
// expires. Only meaningful once writes quiesce; under a live write load
// "caught up" is a moving target and the lag in Status is the honest
// answer.
func (f *Follower) WaitCaughtUp(ctx context.Context) error {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		st := f.Puller.Status()
		if st.CaughtUp &&
			f.Ledger.Size() >= f.primary.Size() &&
			st.CheckpointJSN >= f.primary.Size() &&
			f.Ledger.Base() >= f.primary.Base() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// stop cancels the puller, waits for its loop to exit, then closes the
// follower's engine — in that order, so nothing applies into a closed
// ledger.
func (f *Follower) stop() error {
	f.cancel()
	<-f.done
	return f.Ledger.Close()
}

// shardWiring is the deployment-wide context every shard builder shares:
// one URI, one LSP key, one registry, one clock. Keeping it explicit is
// what makes the single-node path the literal 1-shard case instead of a
// diverging copy of the construction code.
type shardWiring struct {
	opts     StackOptions
	clock    func() int64
	lsp      *sig.KeyPair
	dba      sig.PublicKey
	registry *ca.Registry
}

// openShardStorage opens shard i's stream store and payload log.
// Single-node keeps the flat layout (Dir/streams, Dir/blobs); sharded
// deployments nest each shard under Dir/shard-<i>/. (A Dir/blobs written
// as one file per payload, before the payload log, is refused.)
func (w shardWiring) openShardStorage(i, total int) (streamfs.Store, streamfs.BlobStore, error) {
	if w.opts.Dir == "" {
		return streamfs.NewMemory(), streamfs.NewMemoryBlobs(), nil
	}
	dir := w.opts.Dir
	if total > 1 {
		dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
	}
	store, err := streamfs.OpenDisk(filepath.Join(dir, "streams"), w.opts.Disk)
	if err != nil {
		return nil, nil, err
	}
	blobs, err := streamfs.OpenDiskBlobs(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, nil, err
	}
	return store, blobs, nil
}

// buildShardLedger wires one engine instance — the reusable per-shard
// builder behind both NewStack paths. Every shard runs under the shared
// URI and LSP key: client requests are signed over the URI, so routing
// stays transparent to clients, and the 1-shard stack is byte-identical
// to the historical single-node one. Shard identity is bound later, in
// the coordinator's accumulator leaves, not here.
func (w shardWiring) buildShardLedger(i, total int) (*ledger.Ledger, error) {
	store, blobs, err := w.openShardStorage(i, total)
	if err != nil {
		return nil, err
	}
	return ledger.Open(ledger.Config{
		URI:           w.opts.URI,
		FractalHeight: w.opts.FractalHeight,
		BlockSize:     w.opts.BlockSize,
		Clock:         w.clock,
		LSP:           w.lsp,
		Registry:      w.registry,
		DBA:           w.dba,
		Store:         store,
		Blobs:         blobs,
		PipelineDepth: w.opts.PipelineDepth,
		SyncEvery:     w.opts.SyncEvery,
	})
}

// startFollower builds and starts one read replica of primary. The
// follower pulls through replica.LedgerSource — in-process transport,
// but the frames are still sealed and the puller still verifies every
// digest and checkpoint signature, so the trust-boundary code path is
// exactly the one a remote follower would run.
func (w shardWiring) startFollower(shardIdx int, primary *ledger.Ledger) (*Follower, error) {
	led, err := ledger.Open(ledger.Config{
		URI:           w.opts.URI,
		FractalHeight: w.opts.FractalHeight,
		BlockSize:     w.opts.BlockSize,
		Clock:         w.clock,
		ApplyOnly:     true,
		PrimaryLSP:    w.lsp.Public(),
		DBA:           w.dba,
		Registry:      w.registry,
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		return nil, err
	}
	ix, err := index.Open(led, nil)
	if err != nil {
		led.Close()
		return nil, err
	}
	pl, err := replica.New(replica.Config{
		Source:   replica.LedgerSource(primary),
		Ledger:   led,
		Interval: w.opts.FollowerInterval,
	})
	if err != nil {
		led.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		Ledger:  led,
		Index:   ix,
		Puller:  pl,
		Shard:   shardIdx,
		primary: primary,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		pl.Run(ctx) // returns ctx.Err() on stop; nothing else to report
	}()
	return f, nil
}

// NewStack builds and starts a deployment.
func NewStack(opts StackOptions) (*Stack, error) {
	if opts.URI == "" {
		opts.URI = "ledger://local"
	}
	nShards := opts.Shards
	if nShards == 0 {
		nShards = 1
	}
	part, err := shard.NewPartitioner(nShards)
	if err != nil {
		return nil, err
	}
	clock := opts.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	deltaTau := opts.DeltaTau
	if deltaTau <= 0 {
		deltaTau = time.Second
	}

	lsp, err := sig.Generate()
	if err != nil {
		return nil, err
	}
	dba, err := sig.Generate()
	if err != nil {
		return nil, err
	}
	coordKey, err := sig.Generate()
	if err != nil {
		return nil, err
	}
	authority, err := ca.NewAuthority("root-ca")
	if err != nil {
		return nil, err
	}
	registry := ca.NewRegistry(authority.Public())

	pool := tsa.NewPool(
		tsa.New("tsa-1", tsa.Options{Clock: clock}),
		tsa.New("tsa-2", tsa.Options{Clock: clock}),
	)
	tl, err := tledger.New(tledger.Config{
		Clock:     clock,
		Tolerance: int64(deltaTau),
		TSA:       pool,
	})
	if err != nil {
		return nil, err
	}
	// Certify the built-in parties. The coordinator is LSP-operated in
	// the paper's trust model, so its fold-signing key carries the LSP
	// role under its own identity.
	for _, grant := range []struct {
		pk   sig.PublicKey
		role ca.Role
		name string
	}{
		{lsp.Public(), ca.RoleLSP, "lsp"},
		{coordKey.Public(), ca.RoleLSP, "coordinator"},
		{dba.Public(), ca.RoleDBA, "dba"},
		{tl.Public(), ca.RoleTSA, "t-ledger"},
	} {
		cert, err := authority.Issue(grant.pk, grant.role, grant.name)
		if err != nil {
			return nil, err
		}
		if err := registry.Admit(cert); err != nil {
			return nil, err
		}
	}
	for _, a := range pool.Members() {
		cert, err := authority.Issue(a.Public(), ca.RoleTSA, a.Name())
		if err != nil {
			return nil, err
		}
		if err := registry.Admit(cert); err != nil {
			return nil, err
		}
	}

	wiring := shardWiring{opts: opts, clock: clock, lsp: lsp, dba: dba.Public(), registry: registry}
	shards := make([]*ledger.Ledger, nShards)
	for i := range shards {
		l, err := wiring.buildShardLedger(i, nShards)
		if err != nil {
			for _, built := range shards[:i] {
				built.Close()
			}
			return nil, fmt.Errorf("ledgerdb: shard %d: %w", i, err)
		}
		shards[i] = l
	}
	closeAll := func() {
		for _, built := range shards {
			built.Close()
		}
	}
	indexes := make([]*index.Index, nShards)
	for i, l := range shards {
		ix, err := index.Open(l, nil)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("ledgerdb: shard %d index: %w", i, err)
		}
		indexes[i] = ix
	}
	var followers []*Follower
	for i, l := range shards {
		for r := 0; r < opts.Followers; r++ {
			f, err := wiring.startFollower(i, l)
			if err != nil {
				for _, started := range followers {
					started.stop()
				}
				closeAll()
				return nil, fmt.Errorf("ledgerdb: shard %d follower %d: %w", i, r, err)
			}
			followers = append(followers, f)
		}
	}
	coord := shard.NewCoordinator(opts.URI, shards, coordKey, clock)
	if opts.FoldInterval > 0 {
		coord.Start(opts.FoldInterval)
	}
	return &Stack{
		Ledger:      shards[0],
		Shards:      shards,
		Indexes:     indexes,
		Followers:   followers,
		Partitioner: part,
		Coordinator: coord,
		TLedger:     tl,
		TSAs:        pool,
		CA:          authority,
		Registry:    registry,
		LSP:         lsp,
		DBA:         dba,
		uri:         opts.URI,
		clock:       clock,
	}, nil
}

// Route returns the shard a request belongs to.
func (s *Stack) Route(req *Request) int { return s.Partitioner.Route(req) }

// Append routes a signed request to its shard and commits it there.
func (s *Stack) Append(req *Request) (*Receipt, error) {
	_, rc, err := s.AppendRouted(req)
	return rc, err
}

// AppendRouted is Append returning the shard index too — receipts carry
// shard-local jsns, so cross-shard proofs need the (shard, jsn) pair.
func (s *Stack) AppendRouted(req *Request) (int, *Receipt, error) {
	i := s.Partitioner.Route(req)
	rc, err := s.Shards[i].Append(req)
	return i, rc, err
}

// GlobalState folds now and returns the signed cross-shard state.
func (s *Stack) GlobalState() (*GlobalState, error) {
	f, err := s.Coordinator.Fold()
	if err != nil {
		return nil, err
	}
	return f.State, nil
}

// ProveGlobal builds the cross-shard existence proof for (shard, jsn).
func (s *Stack) ProveGlobal(shardIdx int, jsn uint64, withPayload bool) (*GlobalProof, error) {
	return s.Coordinator.ProveGlobal(shardIdx, jsn, withPayload)
}

// VerifyExistenceGlobal fetches and client-verifies a cross-shard proof:
// record → shard fam root → coordinator-signed global root.
func (s *Stack) VerifyExistenceGlobal(shardIdx int, jsn uint64) (*Record, []byte, error) {
	p, err := s.ProveGlobal(shardIdx, jsn, true)
	if err != nil {
		return nil, nil, err
	}
	rec, err := shard.VerifyGlobal(p, s.Coordinator.PublicKey())
	if err != nil {
		return nil, nil, err
	}
	return rec, p.Record.Payload, nil
}

// QueryRecords runs a rich read across every shard and returns the
// verified records, grouped by shard in partition order, ascending jsn
// within each. Every shard's result is re-verified against the LSP key
// before anything is returned — the index only nominates, the proofs
// decide.
func (s *Stack) QueryRecords(q Query) ([]*Record, error) {
	var out []*Record
	for i, ix := range s.Indexes {
		res, err := ix.Query(q)
		if err != nil {
			return nil, fmt.Errorf("ledgerdb: shard %d query: %w", i, err)
		}
		recs, err := ledger.VerifyQueryResult(s.LSP.Public(), q, res)
		if err != nil {
			return nil, fmt.Errorf("ledgerdb: shard %d query verification: %w", i, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// VerifyAbsence establishes that no live clue equals name (or starts
// with it when prefix is set), returning the verified proofs a skeptic
// can re-check offline. An exact clue only ever lives on its partition
// shard, so one proof suffices; a prefix needs every shard to prove its
// own clue set clean.
func (s *Stack) VerifyAbsence(name string, prefix bool) ([]*AbsenceProof, error) {
	shardIdxs := []int{0}
	if prefix {
		shardIdxs = make([]int, len(s.Shards))
		for i := range shardIdxs {
			shardIdxs[i] = i
		}
	} else if len(s.Shards) > 1 {
		shardIdxs[0] = s.Partitioner.ShardOfClue(name)
	}
	proofs := make([]*AbsenceProof, 0, len(shardIdxs))
	for _, i := range shardIdxs {
		ap, err := s.Shards[i].ProveAbsence(name, prefix)
		if err != nil {
			return nil, fmt.Errorf("ledgerdb: shard %d absence: %w", i, err)
		}
		if err := ledger.VerifyAbsence(s.LSP.Public(), ap); err != nil {
			return nil, fmt.Errorf("ledgerdb: shard %d absence verification: %w", i, err)
		}
		proofs = append(proofs, ap)
	}
	return proofs, nil
}

// Member is a certified ledger user bound to a stack.
type Member struct {
	Name  string
	Key   *sig.KeyPair
	stack *Stack
	nonce uint64
}

// NewMember creates, certifies, and admits a new user identity. It
// panics only on entropy failure (key generation).
func (s *Stack) NewMember(name string) *Member {
	key, err := sig.Generate()
	if err != nil {
		panic(err)
	}
	cert, err := s.CA.Issue(key.Public(), ca.RoleUser, name)
	if err != nil {
		panic(err)
	}
	if err := s.Registry.Admit(cert); err != nil {
		panic(err)
	}
	return &Member{Name: name, Key: key, stack: s}
}

// NewRegulator creates and certifies a regulator identity (occult
// approvals).
func (s *Stack) NewRegulator(name string) *Member {
	key, err := sig.Generate()
	if err != nil {
		panic(err)
	}
	cert, err := s.CA.Issue(key.Public(), ca.RoleRegulator, name)
	if err != nil {
		panic(err)
	}
	if err := s.Registry.Admit(cert); err != nil {
		panic(err)
	}
	return &Member{Name: name, Key: key, stack: s}
}

// NewRequest builds a signed request ready for Append; callers may add
// co-signers before submitting.
func (m *Member) NewRequest(payload []byte, clues ...string) (*Request, error) {
	m.nonce++
	req := &journal.Request{
		LedgerURI: m.stack.uri,
		Type:      journal.TypeNormal,
		Clues:     clues,
		Payload:   payload,
		Nonce:     m.nonce,
	}
	if err := req.Sign(m.Key); err != nil {
		return nil, err
	}
	return req, nil
}

// Append signs and commits a journal with optional clues, routed to its
// clue's shard.
func (m *Member) Append(payload []byte, clues ...string) (*Receipt, error) {
	_, rc, err := m.AppendRouted(payload, clues...)
	return rc, err
}

// AppendRouted is Append returning the shard index too. Receipts carry
// shard-local jsns; cross-shard verification needs the pair.
func (m *Member) AppendRouted(payload []byte, clues ...string) (int, *Receipt, error) {
	req, err := m.NewRequest(payload, clues...)
	if err != nil {
		return 0, nil, err
	}
	return m.stack.AppendRouted(req)
}

// VerifyExistence fetches and client-verifies an existence proof against
// the shard-local signed state. The jsn is shard 0's — in single-node
// mode, the whole ledger's. Multi-shard callers holding a (shard, jsn)
// pair use VerifyExistenceGlobal.
func (m *Member) VerifyExistence(jsn uint64) (*Record, []byte, error) {
	p, err := m.stack.Ledger.ProveExistence(jsn, true)
	if err != nil {
		return nil, nil, err
	}
	rec, err := ledger.VerifyExistence(p, m.stack.LSP.Public())
	if err != nil {
		return nil, nil, err
	}
	return rec, p.Payload, nil
}

// VerifyExistenceGlobal verifies a record through the cross-shard path:
// record → shard fam root → coordinator-signed global root.
func (m *Member) VerifyExistenceGlobal(shardIdx int, jsn uint64) (*Record, []byte, error) {
	return m.stack.VerifyExistenceGlobal(shardIdx, jsn)
}

// VerifyClue fetches and client-verifies a clue's full lineage from the
// clue's shard (the partitioner keeps a lineage in exactly one CM-Tree).
func (m *Member) VerifyClue(clue string) ([]*Record, error) {
	b, err := m.stack.clueShard(clue).ProveClue(clue, 0, 0)
	if err != nil {
		return nil, err
	}
	return ledger.VerifyClue(b, m.stack.LSP.Public())
}

// AppendBatch signs and commits several payloads under one batch receipt
// (the amortized write path). payloads[i] gets clues[i] when clues is
// non-nil. The batch must route to a single shard (always true in
// single-node mode); spanning batches use AppendBatchSharded.
func (m *Member) AppendBatch(payloads [][]byte, clues [][]string) (*ledger.BatchReceipt, error) {
	reqs, err := m.batchRequests(payloads, clues)
	if err != nil {
		return nil, err
	}
	target := m.stack.Route(reqs[0])
	for _, req := range reqs[1:] {
		if got := m.stack.Route(req); got != target {
			return nil, fmt.Errorf("ledgerdb: batch spans shards %d and %d; use AppendBatchSharded", target, got)
		}
	}
	br, _, err := m.stack.Shards[target].AppendBatch(reqs)
	return br, err
}

// AppendBatchSharded splits a batch by shard and commits one sub-batch
// per shard, returning the receipts keyed by shard index. Sub-batches
// commit independently: on error, sub-batches already committed stay
// committed (the per-shard receipt map returned is complete for them).
func (m *Member) AppendBatchSharded(payloads [][]byte, clues [][]string) (map[int]*ledger.BatchReceipt, error) {
	reqs, err := m.batchRequests(payloads, clues)
	if err != nil {
		return nil, err
	}
	groups := make(map[int][]*journal.Request)
	for _, req := range reqs {
		i := m.stack.Route(req)
		groups[i] = append(groups[i], req)
	}
	out := make(map[int]*ledger.BatchReceipt, len(groups))
	for i, group := range groups {
		br, _, err := m.stack.Shards[i].AppendBatch(group)
		if err != nil {
			return out, fmt.Errorf("ledgerdb: shard %d batch: %w", i, err)
		}
		out[i] = br
	}
	return out, nil
}

func (m *Member) batchRequests(payloads [][]byte, clues [][]string) ([]*journal.Request, error) {
	if len(payloads) == 0 {
		return nil, errors.New("ledgerdb: empty batch")
	}
	reqs := make([]*journal.Request, len(payloads))
	for i, p := range payloads {
		var cs []string
		if clues != nil {
			cs = clues[i]
		}
		req, err := m.NewRequest(p, cs...)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	return reqs, nil
}

// AppendState signs and commits a journal that also updates the
// world-state entry for key, routed to the key's shard.
func (m *Member) AppendState(key, payload []byte, clues ...string) (*Receipt, error) {
	req, err := m.NewRequest(payload, clues...)
	if err != nil {
		return nil, err
	}
	req.StateKey = key
	if err := req.Sign(m.Key); err != nil {
		return nil, err
	}
	return m.stack.Append(req)
}

// VerifyState runs a verifiable world-state read for key, returning the
// jsn and payload digest of the journal holding the current value. Keys
// route like appends, so the read goes to the shard whose MPT owns key.
// Note: a clued request that also carries a state key routes by its
// clue, so mixing clue-routing and state reads of the same key across
// different clues can split a key's history; keep a key's writers
// clue-consistent (or clueless) if you need VerifyState.
func (m *Member) VerifyState(key []byte) (uint64, hashutil.Digest, error) {
	p, err := m.stack.stateShard(key).ProveState(key)
	if err != nil {
		return 0, hashutil.Zero, err
	}
	return ledger.VerifyState(p, m.stack.LSP.Public())
}

// VerifyClueByTime verifies the clue versions committed in [t1, t2).
func (m *Member) VerifyClueByTime(clue string, t1, t2 int64) ([]*Record, error) {
	b, err := m.stack.clueShard(clue).ProveClueByTime(clue, t1, t2)
	if err != nil {
		return nil, err
	}
	return ledger.VerifyClue(b, m.stack.LSP.Public())
}

// ShardFollowers returns the followers replicating shard i, in replica
// slot order.
func (s *Stack) ShardFollowers(i int) []*Follower {
	var out []*Follower
	for _, f := range s.Followers {
		if f.Shard == i {
			out = append(out, f)
		}
	}
	return out
}

// VerifyExistenceReplica is the degraded-read path: it fetches an
// existence proof from a follower of shardIdx and client-verifies it
// against the primary LSP key. It works even when the primary shard is
// unreachable — the proof anchors to the follower's newest verified
// checkpoint, so the answer is honest about how stale it may be (the
// follower's Status carries the watermark). Payload bytes are returned
// only when the follower holds them: payload blobs are purgeable and
// therefore not replicated, so replica reads return the verified record
// (clues, digests, signatures, tx hash) with a nil payload.
func (s *Stack) VerifyExistenceReplica(shardIdx int, jsn uint64) (*Record, []byte, error) {
	fs := s.ShardFollowers(shardIdx)
	if len(fs) == 0 {
		return nil, nil, fmt.Errorf("ledgerdb: shard %d has no followers", shardIdx)
	}
	var err error
	for _, f := range fs {
		var p *ExistenceProof
		if p, err = f.Ledger.ProveExistence(jsn, true); err != nil {
			continue
		}
		var rec *Record
		if rec, err = ledger.VerifyExistence(p, s.LSP.Public()); err != nil {
			continue
		}
		return rec, p.Payload, nil
	}
	return nil, nil, err
}

// ExportBundle builds a self-contained offline proof for a shard-0 jsn
// (single-node mode: any jsn). Anyone holding the bundle bytes and the
// pinned LSP key can verify the record's existence — and, when a time
// chain is present, its when-bounds — with VerifyBundle, no network and
// no ledger required.
func (s *Stack) ExportBundle(jsn uint64, withPayload bool) (*ProofBundle, error) {
	return s.Ledger.ExportBundle(jsn, withPayload)
}

// clueShard returns the engine owning a clue's lineage.
func (s *Stack) clueShard(clue string) *ledger.Ledger {
	return s.Shards[s.Partitioner.ShardOfClue(clue)]
}

// stateShard returns the engine owning a world-state key (for requests
// routed without clues; see Member.VerifyState for the caveat).
func (s *Stack) stateShard(key []byte) *ledger.Ledger {
	return s.Shards[s.Partitioner.ShardOf(hashutil.Sum(key))]
}

// AnchorTime runs one Protocol 3/4 round through the stack's T-Ledger.
func (s *Stack) AnchorTime() (*Receipt, error) {
	return s.Ledger.AnchorTimeWith(s.TLedger.StampFunc(s.uri, s.clock))
}

// FinalizeTime runs one T-Ledger → TSA finalization (call every Δτ).
func (s *Stack) FinalizeTime() error {
	_, err := s.TLedger.Finalize()
	return err
}

// auditConfig assembles the stack's built-in trust anchors.
func (s *Stack) auditConfig() audit.Config {
	trusted := []sig.PublicKey{s.TLedger.Public()}
	for _, a := range s.TSAs.Members() {
		trusted = append(trusted, a.Public())
	}
	return audit.Config{
		LSP:        s.LSP.Public(),
		DBA:        s.DBA.Public(),
		TrustedTSA: trusted,
		Registry:   s.Registry,
	}
}

// Audit runs the Dasein-complete audit across every shard and returns
// one aggregate report (summed counters). In multi-shard mode it also
// cross-checks the fold: it folds now, replays each shard's digest
// stream up to the folded size to recompute the fam root independently,
// rebuilds the anchor tree over the recomputed heads, and compares
// against the coordinator-signed global root. TimeBounds is only set in
// single-node mode — per-shard jsn keys would collide in an aggregate.
func (s *Stack) Audit() (*AuditReport, error) {
	reports, err := s.AuditShards()
	if err != nil {
		return nil, err
	}
	agg := &audit.Report{}
	for _, r := range reports {
		agg.JournalsReplayed += r.JournalsReplayed
		agg.BlocksVerified += r.BlocksVerified
		agg.TimeJournals += r.TimeJournals
		agg.TimeRanges += r.TimeRanges
		agg.Purges += r.Purges
		agg.Occults += r.Occults
		agg.SignaturesChecked += r.SignaturesChecked
	}
	if err := s.AuditIndexes(); err != nil {
		return nil, err
	}
	if len(reports) == 1 {
		agg.TimeBounds = reports[0].TimeBounds
		return agg, nil
	}
	if err := s.auditFold(); err != nil {
		return nil, err
	}
	return agg, nil
}

// AuditIndexes is the rich-query leg of the audit: every shard's index
// projections are cross-checked against a fresh replay of that shard's
// journal stream (index.CrossCheck). A corrupted or stale projection
// surfaces here as index.ErrMismatch naming the projection.
func (s *Stack) AuditIndexes() error {
	for i, ix := range s.Indexes {
		if err := ix.CrossCheck(); err != nil {
			return fmt.Errorf("ledgerdb: shard %d index audit: %w", i, err)
		}
	}
	return nil
}

// AuditShards audits each shard and returns the per-shard reports.
func (s *Stack) AuditShards() ([]*AuditReport, error) {
	cfg := s.auditConfig()
	reports := make([]*audit.Report, len(s.Shards))
	for i, l := range s.Shards {
		r, err := audit.Audit(l, nil, cfg)
		if err != nil {
			return nil, fmt.Errorf("ledgerdb: shard %d audit: %w", i, err)
		}
		reports[i] = r
	}
	return reports, nil
}

// auditFold is the cross-shard leg of the audit: the signed global root
// must be exactly the anchor tree over the shards' independently
// recomputed fam roots.
func (s *Stack) auditFold() error {
	f, err := s.Coordinator.Fold()
	if err != nil {
		return fmt.Errorf("ledgerdb: audit fold: %w", err)
	}
	if err := f.State.Verify(s.Coordinator.PublicKey()); err != nil {
		return fmt.Errorf("ledgerdb: audit fold: %w", err)
	}
	recomputed := make([]ledger.FamHead, len(s.Shards))
	for i, l := range s.Shards {
		size := f.Heads[i].Size
		if size == 0 {
			continue
		}
		root, err := l.FamRootAt(size)
		if err != nil {
			return fmt.Errorf("ledgerdb: shard %d fam replay: %w", i, err)
		}
		if root != f.Heads[i].Root {
			return fmt.Errorf("ledgerdb: shard %d fam root mismatch at size %d: replayed %s, fold has %s",
				i, size, root, f.Heads[i].Root)
		}
		recomputed[i] = ledger.FamHead{Size: size, Root: root}
	}
	if got := shard.FoldRoot(recomputed); got != f.State.Root {
		return fmt.Errorf("ledgerdb: anchor tree mismatch: rebuilt %s, state signs %s", got, f.State.Root)
	}
	return nil
}

// Purge executes a verifiable purge: the stack gathers the DBA signature
// and the caller supplies the remaining member signatures. Multi-shard
// stacks use PurgeOn — jsns in the descriptor are shard-local.
func (s *Stack) Purge(desc *PurgeDescriptor, signers ...*Member) (*Receipt, error) {
	if len(s.Shards) > 1 {
		return nil, errors.New("ledgerdb: multi-shard stack: use PurgeOn with the owning shard index")
	}
	return s.PurgeOn(0, desc, signers...)
}

// PurgeOn executes a verifiable purge on one shard (jsns in the
// descriptor are that shard's).
func (s *Stack) PurgeOn(shardIdx int, desc *PurgeDescriptor, signers ...*Member) (*Receipt, error) {
	if shardIdx < 0 || shardIdx >= len(s.Shards) {
		return nil, fmt.Errorf("ledgerdb: shard %d out of range [0,%d)", shardIdx, len(s.Shards))
	}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(s.DBA); err != nil {
		return nil, err
	}
	for _, m := range signers {
		if err := ms.SignWith(m.Key); err != nil {
			return nil, err
		}
	}
	return s.Shards[shardIdx].Purge(desc, ms)
}

// Occult executes a verifiable occult with DBA + regulator signatures.
// Multi-shard stacks use OccultOn — the target jsn is shard-local.
func (s *Stack) Occult(desc *OccultDescriptor, regulator *Member) (*Receipt, error) {
	if len(s.Shards) > 1 {
		return nil, errors.New("ledgerdb: multi-shard stack: use OccultOn with the owning shard index")
	}
	return s.OccultOn(0, desc, regulator)
}

// OccultOn executes a verifiable occult on one shard.
func (s *Stack) OccultOn(shardIdx int, desc *OccultDescriptor, regulator *Member) (*Receipt, error) {
	if shardIdx < 0 || shardIdx >= len(s.Shards) {
		return nil, fmt.Errorf("ledgerdb: shard %d out of range [0,%d)", shardIdx, len(s.Shards))
	}
	if regulator == nil {
		return nil, errors.New("ledgerdb: occult requires a regulator signer")
	}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(s.DBA); err != nil {
		return nil, err
	}
	if err := ms.SignWith(regulator.Key); err != nil {
		return nil, err
	}
	return s.Shards[shardIdx].Occult(desc, ms)
}

// URI returns the stack's ledger identifier.
func (s *Stack) URI() string { return s.uri }

// Close shuts the whole deployment down, idempotently: it stops the
// coordinator's fold loop, drains every follower's pull loop (cancel,
// wait, close — a puller must never apply into a closed primary's
// frames mid-flight, and a follower caught mid-catch-up simply stops at
// whatever verified prefix it reached), then drains and closes every
// shard engine (commit pipelines flush, streams sync). Every component
// is closed even if an earlier one errors; the joined error is sticky
// across repeat calls. Reads keep working after Close; further appends
// fail.
func (s *Stack) Close() error {
	s.closeOnce.Do(func() {
		s.Coordinator.Stop()
		var errs []error
		for i, f := range s.Followers {
			if err := f.stop(); err != nil {
				errs = append(errs, fmt.Errorf("ledgerdb: follower %d (shard %d) close: %w", i, f.Shard, err))
			}
		}
		for i, l := range s.Shards {
			if err := l.Close(); err != nil {
				errs = append(errs, fmt.Errorf("ledgerdb: shard %d close: %w", i, err))
			}
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}
