// Package ledgerdb is the public API of this repository: a from-scratch
// reproduction of LedgerDB's ubiquitous verification (ICDE 2022) — a
// centralized ledger database with Dasein-complete (what-when-who)
// auditability, the fam fractal accumulator, the CM-Tree clue index,
// verifiable purge/occult mutations, and the T-Ledger time notary.
//
// The package re-exports the internal building blocks under stable names
// and adds Stack, the single-node deployment the examples and the
// quickstart run in one process: one engine and its query index, its
// read replicas, a CA with a member registry, a TSA pool and the
// T-Ledger. Scale-out is served, not embedded: cmd/ledgerdb-server
// -shards N puts internal/server's Router in front of clue shards.
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
	// Dir persists the ledger under a directory, in the server's
	// single-node layout (Dir/streams, Dir/blobs); empty means in-memory.
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
	// Followers is the number of read replicas (0 = none). Each follower
	// is an apply-only engine continuously pulling the ledger's streams
	// through the sealed-frame replication protocol — crash recovery
	// running as a service — with its own rich-query index. Followers
	// live in memory (a replica is rebuildable from its primary by
	// construction) and drain before the stack closes.
	Followers int
	// FollowerInterval is each follower's idle poll period once caught
	// up (0 = 50ms).
	FollowerInterval time.Duration
}

// DiskOptions re-exports the stream-store tuning knobs.
type DiskOptions = streamfs.DiskOptions

// Stack is a complete local deployment: one ledger and its rich-query
// index, its read replicas, the LSP and DBA identities, a CA with a
// member registry, a TSA pool, and a T-Ledger.
type Stack struct {
	Ledger    *ledger.Ledger
	Index     *index.Index
	Followers []*Follower
	TLedger   *tledger.TLedger
	TSAs      *tsa.Pool
	CA        *ca.Authority
	Registry  *ca.Registry
	LSP       *sig.KeyPair
	DBA       *sig.KeyPair

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

// wiring is what the primary and its followers share: one URI, one LSP
// key, one registry, one clock.
type wiring struct {
	opts     StackOptions
	clock    func() int64
	lsp      *sig.KeyPair
	dba      sig.PublicKey
	registry *ca.Registry
}

// openStorage opens the stream store and payload log: in memory, or
// Dir/streams and Dir/blobs on disk. (A Dir/blobs written as one file
// per payload, before the payload log, is refused.)
func (w wiring) openStorage() (streamfs.Store, streamfs.BlobStore, error) {
	if w.opts.Dir == "" {
		return streamfs.NewMemory(), streamfs.NewMemoryBlobs(), nil
	}
	store, err := streamfs.OpenDisk(filepath.Join(w.opts.Dir, "streams"), w.opts.Disk)
	if err != nil {
		return nil, nil, err
	}
	blobs, err := streamfs.OpenDiskBlobs(filepath.Join(w.opts.Dir, "blobs"))
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, blobs, nil
}

// openLedger opens (or recovers) the primary engine.
func (w wiring) openLedger() (*ledger.Ledger, error) {
	store, blobs, err := w.openStorage()
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
func (w wiring) startFollower(primary *ledger.Ledger) (*Follower, error) {
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
	// Certify the built-in parties.
	for _, grant := range []struct {
		pk   sig.PublicKey
		role ca.Role
		name string
	}{
		{lsp.Public(), ca.RoleLSP, "lsp"},
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

	w := wiring{opts: opts, clock: clock, lsp: lsp, dba: dba.Public(), registry: registry}
	led, err := w.openLedger()
	if err != nil {
		return nil, fmt.Errorf("ledgerdb: open ledger: %w", err)
	}
	ix, err := index.Open(led, nil)
	if err != nil {
		led.Close()
		return nil, fmt.Errorf("ledgerdb: index: %w", err)
	}
	var followers []*Follower
	for r := 0; r < opts.Followers; r++ {
		f, err := w.startFollower(led)
		if err != nil {
			for _, started := range followers {
				started.stop()
			}
			led.Close()
			return nil, fmt.Errorf("ledgerdb: follower %d: %w", r, err)
		}
		followers = append(followers, f)
	}
	return &Stack{
		Ledger:    led,
		Index:     ix,
		Followers: followers,
		TLedger:   tl,
		TSAs:      pool,
		CA:        authority,
		Registry:  registry,
		LSP:       lsp,
		DBA:       dba,
		uri:       opts.URI,
		clock:     clock,
	}, nil
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
	return s.certify(name, ca.RoleUser)
}

// NewRegulator creates and certifies a regulator identity (occult
// approvals).
func (s *Stack) NewRegulator(name string) *Member {
	return s.certify(name, ca.RoleRegulator)
}

func (s *Stack) certify(name string, role ca.Role) *Member {
	key, err := sig.Generate()
	if err != nil {
		panic(err)
	}
	cert, err := s.CA.Issue(key.Public(), role, name)
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

// Append signs and commits a journal with optional clues.
func (m *Member) Append(payload []byte, clues ...string) (*Receipt, error) {
	req, err := m.NewRequest(payload, clues...)
	if err != nil {
		return nil, err
	}
	return m.stack.Ledger.Append(req)
}

// VerifyExistence fetches and client-verifies an existence proof against
// the signed state.
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

// VerifyClue fetches and client-verifies a clue's full lineage.
func (m *Member) VerifyClue(clue string) ([]*Record, error) {
	b, err := m.stack.Ledger.ProveClue(clue, 0, 0)
	if err != nil {
		return nil, err
	}
	return ledger.VerifyClue(b, m.stack.LSP.Public())
}

// AppendBatch signs and commits several payloads under one batch receipt
// (the amortized write path). payloads[i] gets clues[i] when clues is
// non-nil; a non-nil clues must have one entry per payload.
func (m *Member) AppendBatch(payloads [][]byte, clues [][]string) (*ledger.BatchReceipt, error) {
	if len(payloads) == 0 {
		return nil, errors.New("ledgerdb: empty batch")
	}
	if clues != nil && len(clues) != len(payloads) {
		return nil, fmt.Errorf("%w: %d clue sets for %d payloads", journal.ErrBadRequest, len(clues), len(payloads))
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
	br, _, err := m.stack.Ledger.AppendBatch(reqs)
	return br, err
}

// AppendState signs and commits a journal that also updates the
// world-state entry for key.
func (m *Member) AppendState(key, payload []byte, clues ...string) (*Receipt, error) {
	req, err := m.NewRequest(payload, clues...)
	if err != nil {
		return nil, err
	}
	req.StateKey = key
	if err := req.Sign(m.Key); err != nil {
		return nil, err
	}
	return m.stack.Ledger.Append(req)
}

// VerifyState runs a verifiable world-state read for key, returning the
// jsn and payload digest of the journal holding the current value.
func (m *Member) VerifyState(key []byte) (uint64, hashutil.Digest, error) {
	p, err := m.stack.Ledger.ProveState(key)
	if err != nil {
		return 0, hashutil.Zero, err
	}
	return ledger.VerifyState(p, m.stack.LSP.Public())
}

// VerifyExistenceReplica is the degraded-read path: it fetches an
// existence proof from each follower in turn and client-verifies it
// against the primary LSP key, returning the first that verifies. It
// works even when the primary is unreachable — the proof anchors to the
// follower's newest verified checkpoint, so the answer is honest about
// how stale it may be (the follower's Status carries the watermark).
// Payload bytes are returned only when the follower holds them: payload
// blobs are purgeable and therefore not replicated, so replica reads
// return the verified record (clues, digests, signatures, tx hash) with
// a nil payload.
func (s *Stack) VerifyExistenceReplica(jsn uint64) (*Record, []byte, error) {
	err := errors.New("ledgerdb: stack has no followers")
	for _, f := range s.Followers {
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

// AnchorTime runs one Protocol 3/4 round through the stack's T-Ledger.
func (s *Stack) AnchorTime() (*Receipt, error) {
	return s.Ledger.AnchorTimeWith(s.TLedger.StampFunc(s.uri, s.clock))
}

// FinalizeTime runs one T-Ledger → TSA finalization (call every Δτ).
func (s *Stack) FinalizeTime() error {
	_, err := s.TLedger.Finalize()
	return err
}

// Audit runs the Dasein-complete audit (§V) against the stack's built-in
// trust anchors, then the rich-query leg (AuditIndexes).
func (s *Stack) Audit() (*AuditReport, error) {
	trusted := []sig.PublicKey{s.TLedger.Public()}
	for _, a := range s.TSAs.Members() {
		trusted = append(trusted, a.Public())
	}
	report, err := audit.Audit(s.Ledger, nil, audit.Config{
		LSP:        s.LSP.Public(),
		DBA:        s.DBA.Public(),
		TrustedTSA: trusted,
		Registry:   s.Registry,
	})
	if err != nil {
		return nil, err
	}
	if err := s.AuditIndexes(); err != nil {
		return nil, err
	}
	return report, nil
}

// AuditIndexes is the rich-query leg of the audit: the index projections
// are cross-checked against a fresh replay of the journal stream
// (index.CrossCheck). A corrupted or stale projection surfaces here as
// index.ErrMismatch naming the projection.
func (s *Stack) AuditIndexes() error {
	if err := s.Index.CrossCheck(); err != nil {
		return fmt.Errorf("ledgerdb: index audit: %w", err)
	}
	return nil
}

// Purge executes a verifiable purge: the stack gathers the DBA signature
// and the caller supplies the remaining member signatures.
func (s *Stack) Purge(desc *PurgeDescriptor, signers ...*Member) (*Receipt, error) {
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(s.DBA); err != nil {
		return nil, err
	}
	for _, m := range signers {
		if err := ms.SignWith(m.Key); err != nil {
			return nil, err
		}
	}
	return s.Ledger.Purge(desc, ms)
}

// Occult executes a verifiable occult with DBA + regulator signatures.
func (s *Stack) Occult(desc *OccultDescriptor, regulator *Member) (*Receipt, error) {
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
	return s.Ledger.Occult(desc, ms)
}

// URI returns the stack's ledger identifier.
func (s *Stack) URI() string { return s.uri }

// Close shuts the whole deployment down, idempotently: it drains every
// follower's pull loop (cancel, wait, close — a puller must never apply
// into a closed primary's frames mid-flight, and a follower caught
// mid-catch-up simply stops at whatever verified prefix it reached),
// then drains and closes the engine (the commit pipeline flushes,
// streams sync). Every component is closed even if an earlier one
// errors; the joined error is sticky across repeat calls. Reads keep
// working after Close; further appends fail.
func (s *Stack) Close() error {
	s.closeOnce.Do(func() {
		var errs []error
		for i, f := range s.Followers {
			if err := f.stop(); err != nil {
				errs = append(errs, fmt.Errorf("ledgerdb: follower %d close: %w", i, err))
			}
		}
		if err := s.Ledger.Close(); err != nil {
			errs = append(errs, fmt.Errorf("ledgerdb: ledger close: %w", err))
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}
