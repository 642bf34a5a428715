package ledger

// This file implements the staged commit pipeline (DESIGN.md §"Staged
// commit pipeline"). The serial write path does everything — π_c
// verification, payload hashing, blob I/O, fam/CM-Tree/MPT updates,
// receipt signing — under one global lock, so added cores buy nothing
// (the anti-pattern Fig. 7 of the paper measures against). With
// Config.PipelineDepth > 0 the write path splits into three stages:
//
//	Stage 1 — admission (lock-free, concurrent): structural checks,
//	  signature verification, role checks, request/payload digesting,
//	  and the idempotent blob write all happen on the caller's
//	  goroutine before any lock.
//	Stage 2 — sequencing (short critical section): seqMu orders dense
//	  jsn and commit-timestamp assignment and queue submission.
//	Stage 3 — group commit (single committer goroutine): queued units
//	  drain in groups; each group applies journal/digest stream writes
//	  and fam, clue-index, and world-state updates under ONE
//	  acquisition of the apply lock, then gets ONE π_s signature over
//	  the group's jsn-dense tx-hash run — receipt signing amortizes
//	  across the group instead of costing one ECDSA sign per journal.
//
// The bounded queue provides backpressure: when the committer falls
// behind, sequencing blocks, stalling admission rather than growing
// memory. Close drains every sequenced unit and flushes the streams.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ledgerdb/internal/ca"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/streamfs"
)

// admitted is the output of stage 1: a fully validated request with
// every digest the commit needs already computed and its payload
// already in blob storage. Nothing in it depends on ledger state, so
// admission runs lock-free and concurrently.
type admitted struct {
	req           *journal.Request
	reqHash       hashutil.Digest
	payloadDigest hashutil.Digest
	extra         []byte
}

// commitUnit is one sequenced submission flowing from stage 2 to stage
// 3: a single journal or a whole batch. The committer fills receipt /
// batch-receipt fields and err, then closes done. Single-journal
// receipts come back group-signed by the committer; batch receipts are
// signed by the submitting goroutine (one signature per batch already).
type commitUnit struct {
	recs     []*journal.Record
	txHashes []hashutil.Digest
	batch    bool

	receipt *journal.Receipt // single-journal unit; group-signed by the committer
	br      *BatchReceipt    // batch unit; unsigned until the caller signs
	err     error
	done    chan struct{}
}

// committer is stage 3's state: one goroutine draining sequenced units.
type committer struct {
	queue   chan *commitUnit
	wg      sync.WaitGroup // in-flight units; Add under seqMu, Done after apply
	stopped chan struct{}  // closed when the committer goroutine exits
	closed  atomic.Bool    // set under Ledger.seqMu; Closed reads it lock-free
}

// maxGroupRecords bounds how many records one apply-lock acquisition
// commits, so a deep queue cannot starve readers for arbitrarily long.
const maxGroupRecords = 1024

// buildRecord turns an admitted request into the record for jsn at
// commit timestamp ts.
func buildRecord(adm *admitted, jsn uint64, ts int64) *journal.Record {
	return &journal.Record{
		JSN:           jsn,
		Type:          adm.req.Type,
		Timestamp:     ts,
		RequestHash:   adm.reqHash,
		PayloadDigest: adm.payloadDigest,
		PayloadSize:   uint64(len(adm.req.Payload)),
		Clues:         adm.req.Clues,
		StateKey:      adm.req.StateKey,
		ClientPK:      adm.req.ClientPK,
		ClientSig:     adm.req.ClientSig,
		CoSigners:     adm.req.CoSigners,
		Extra:         adm.extra,
	}
}

// admitChecked is the tail of stage 1, shared with the serial path:
// digest the payload and store the payload blob. reqHash is the
// request-hash the caller already computed for signature verification —
// the hot path hashes each request exactly once. The request must
// already have passed validation.
func (l *Ledger) admitChecked(req *journal.Request, extra []byte, reqHash hashutil.Digest) (admitted, error) {
	// A journal-stream record carries the payload digest, not the
	// payload, so only oversized metadata can overflow a stream record.
	// Reject here: a sequenced jsn that failed to append would leave a
	// hole in the dense jsn space and poison the pipeline.
	meta := len(extra) + len(req.StateKey) + len(req.CoSigners)*256 + 512
	for _, c := range req.Clues {
		meta += len(c) + 16
	}
	if meta > streamfs.MaxRecordSize {
		return admitted{}, fmt.Errorf("%w: record metadata of ~%d bytes exceeds stream record capacity", journal.ErrBadRequest, meta)
	}
	if len(req.Payload) > streamfs.MaxRecordSize {
		return admitted{}, fmt.Errorf("%w: payload of %d bytes exceeds the %d-byte payload capacity", journal.ErrBadRequest, len(req.Payload), streamfs.MaxRecordSize)
	}
	adm := admitted{
		req:           req,
		reqHash:       reqHash,
		payloadDigest: hashutil.Sum(req.Payload),
		extra:         extra,
	}
	if err := l.cfg.Blobs.Put(adm.payloadDigest, req.Payload); err != nil {
		return admitted{}, fmt.Errorf("ledger: store payload: %w", err)
	}
	return adm, nil
}

// admitOne is stage 1 for one client request: every structural,
// signature, and role check — each run exactly once — plus digesting
// and the idempotent blob write, all before any lock.
func (l *Ledger) admitOne(req *journal.Request, batch bool) (admitted, error) {
	if err := req.ValidateShape(); err != nil {
		return admitted{}, err
	}
	h := req.Hash()
	if err := l.verifyAdmission(req, h); err != nil {
		return admitted{}, err
	}
	if req.LedgerURI != l.cfg.URI {
		return admitted{}, fmt.Errorf("%w: request for %q on ledger %q", journal.ErrBadRequest, req.LedgerURI, l.cfg.URI)
	}
	if req.Type != journal.TypeNormal {
		if batch {
			return admitted{}, fmt.Errorf("%w: batches carry only normal journals (got %s)", ErrNotPermitted, req.Type)
		}
		return admitted{}, fmt.Errorf("%w: clients may only append normal journals (got %s)", ErrNotPermitted, req.Type)
	}
	if l.cfg.Registry != nil {
		if err := l.cfg.Registry.Check(req.ClientPK, ca.RoleUser); err != nil {
			return admitted{}, fmt.Errorf("%w: %v", ErrNotPermitted, err)
		}
	}
	return l.admitChecked(req, nil, h)
}

// admitBatch is stage 1 for a batch, fanned out across CPUs (π_c
// verification dominates, but payload digesting and blob writes
// parallelize too). All-or-nothing: any invalid request rejects the
// batch; blobs already written for its siblings are harmless (idempotent
// content-addressed puts, unreferenced until commit).
func (l *Ledger) admitBatch(reqs []*journal.Request) ([]admitted, error) {
	adms := make([]admitted, len(reqs))
	err := forEachChunk(reqs, func(lo int, part []*journal.Request) error {
		for j, req := range part {
			adm, err := l.admitOne(req, true)
			if err != nil {
				return err
			}
			adms[lo+j] = adm
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return adms, nil
}

// sequence is stage 2: under the sequencer lock it assigns dense jsns
// and commit timestamps, fixes each record's tx-hash, and enqueues the
// unit. The send happens while seqMu is held so queue order equals jsn
// order; when the bounded queue is full the send blocks, which is the
// backpressure stalling admission rather than the apply path.
func (l *Ledger) sequence(adms []admitted, batch bool) (*commitUnit, error) {
	unit := &commitUnit{
		recs:     make([]*journal.Record, len(adms)),
		txHashes: make([]hashutil.Digest, len(adms)),
		batch:    batch,
		done:     make(chan struct{}),
	}
	l.seqMu.Lock()
	if l.comm.closed.Load() {
		l.seqMu.Unlock()
		return nil, ErrClosed
	}
	var ts int64
	if batch {
		ts = l.cfg.Clock() // one commit timestamp per batch, as in the serial path
	}
	for i := range adms {
		t := ts
		if !batch {
			t = l.cfg.Clock()
		}
		rec := buildRecord(&adms[i], l.seqNext, t)
		l.seqNext++
		unit.recs[i] = rec
		unit.txHashes[i] = rec.TxHash()
	}
	l.comm.wg.Add(1)
	l.comm.queue <- unit
	l.seqMu.Unlock()
	return unit, nil
}

// runCommitter is the stage 3 goroutine: block for one unit, then
// greedily drain whatever else is already queued (bounded by
// maxGroupRecords) and apply the group under one lock acquisition.
// Between drain passes it yields the processor once or twice — the
// group-commit window — so submitters that are mid-admission can reach
// the sequencer and join the group, which is what lets the per-group
// π_s signature amortize.
func (l *Ledger) runCommitter() {
	c := l.comm
	defer close(c.stopped)
	// The group slice is reused across iterations: applyGroup retains
	// nothing from it (receipts copy what they need), so only the
	// backing array's capacity carries over.
	var group []*commitUnit
	for {
		u, ok := <-c.queue
		if !ok {
			return
		}
		group = append(group[:0], u)
		n := len(u.recs)
		drain := func() bool { // false once the queue is closed
			for n < maxGroupRecords {
				select {
				case u2, ok2 := <-c.queue:
					if !ok2 {
						return false
					}
					group = append(group, u2)
					n += len(u2.recs)
				default:
					return true
				}
			}
			return true
		}
		open := drain()
		for spins := 0; open && spins < 3 && n < maxGroupRecords; spins++ {
			runtime.Gosched()
			open = drain()
		}
		l.applyGroup(group)
	}
}

// applyGroup commits a group of sequenced units under one acquisition
// of the apply lock, signs the group receipt outside it, then wakes
// every submitter. Receipt fields are fixed inside the lock (block
// height depends on cut timing); π_s is one signature per group.
func (l *Ledger) applyGroup(group []*commitUnit) {
	l.mu.Lock()
	l.syncDeferred = true
	for _, u := range group {
		u.err = l.applyUnitLocked(u)
	}
	l.syncDeferred = false
	// One coalesced fsync pass for every commit point the group crossed.
	// If it fails, every unit in the group is failed: their records may
	// not be durable, so no receipt can be released (the submitter sees
	// an ambiguous error, same as a crashed serial commit point).
	if err := l.flushDeferredSyncLocked(); err != nil {
		for _, u := range group {
			if u.err == nil {
				u.err = err
			}
		}
	}
	l.mu.Unlock()
	l.signGroup(group)
	for _, u := range group {
		close(u.done)
		l.comm.wg.Done()
	}
}

// signGroup stamps ONE π_s over the group's jsn-dense tx-hash run and
// shares it across every single-journal receipt in the group. Batch
// units carry their own BatchReceipt (signed by the submitter — one
// signature per batch already), but their tx-hashes still anchor the
// group digest so the jsn arithmetic in Receipt.Verify holds. Only the
// error-free prefix of units is covered: the first apply failure
// latches every unit after it, so that prefix is exactly what
// committed.
func (l *Ledger) signGroup(group []*commitUnit) {
	// Size the group digest run up front: receipts retain the hashes
	// slice for their lifetime, so it must be exactly one fresh
	// allocation per group — never pooled, never regrown.
	total, nSingles := 0, 0
	for _, u := range group {
		if u.err != nil {
			break
		}
		total += len(u.txHashes)
		if !u.batch {
			nSingles++
		}
	}
	if nSingles == 0 {
		return
	}
	hashes := make([]hashutil.Digest, 0, total)
	singles := make([]*commitUnit, 0, nSingles)
	for _, u := range group {
		if u.err != nil {
			break
		}
		hashes = append(hashes, u.txHashes...)
		if !u.batch {
			singles = append(singles, u)
		}
	}
	if len(singles) == 0 {
		return
	}
	firstJSN := group[0].recs[0].JSN
	var signed *journal.Receipt
	for _, u := range singles {
		rc := u.receipt
		rc.GroupHashes = hashes
		rc.GroupIndex = rc.JSN - firstJSN
		if signed == nil {
			if err := rc.Sign(l.cfg.LSP); err != nil {
				// Entropy failure: nothing usable to share — fail the
				// whole group's singles (their journals committed, but
				// the LSP cannot acknowledge them).
				for _, s := range singles {
					s.err = fmt.Errorf("ledger: sign receipt: %w", err)
				}
				return
			}
			signed = rc
		} else {
			// Same group digest by construction: same hashes, same
			// derived first jsn, same LSP key.
			rc.LSPPK = signed.LSPPK
			rc.LSPSig = signed.LSPSig
		}
	}
}

func (l *Ledger) applyUnitLocked(u *commitUnit) error {
	for i, rec := range u.recs {
		if err := l.applyRecordLocked(rec, u.txHashes[i]); err != nil {
			return err
		}
	}
	if u.batch {
		first := u.recs[0]
		u.br = &BatchReceipt{
			FirstJSN:  first.JSN,
			Count:     uint64(len(u.recs)),
			BatchHash: BatchDigest(u.txHashes),
			Timestamp: first.Timestamp,
		}
		return nil
	}
	u.receipt = l.receiptLocked(u.recs[0], u.txHashes[0])
	return nil
}

// appendPipelined runs stages 2–3 for one admitted request and blocks
// until its journal commits; the receipt arrives group-signed by the
// committer.
func (l *Ledger) appendPipelined(adm admitted) (*journal.Receipt, error) {
	unit, err := l.sequence([]admitted{adm}, false)
	if err != nil {
		return nil, err
	}
	<-unit.done
	if unit.err != nil {
		return nil, unit.err
	}
	return unit.receipt, nil
}

// lockExclusive acquires the whole write path: it stops the sequencer,
// waits for every in-flight unit to commit, and takes the apply lock.
// Privileged writes (mutations, time anchoring, manual block cuts) run
// under it so they observe — and extend — fully committed state with a
// dense jsn space.
func (l *Ledger) lockExclusive() {
	l.seqMu.Lock()
	if l.comm != nil {
		// No new units can be sequenced while seqMu is held, so this
		// waits on a fixed set.
		l.comm.wg.Wait()
	}
	l.mu.Lock()
}

// unlockExclusive releases the write path, first re-synchronizing the
// sequencer's jsn counter with whatever the exclusive section appended.
func (l *Ledger) unlockExclusive() {
	l.seqNext = l.nextJSN
	l.mu.Unlock()
	l.seqMu.Unlock()
}

// Close shuts the write path down. In pipelined mode it stops admitting
// new writes (further Append/AppendBatch calls fail with ErrClosed),
// drains every sequenced unit through the committer, and stops the
// committer goroutine. In both modes it then flushes the ledger
// streams. Reads and proofs keep working after Close.
func (l *Ledger) Close() error {
	if l.comm != nil {
		l.seqMu.Lock()
		already := l.comm.closed.Swap(true)
		l.seqMu.Unlock()
		if !already {
			close(l.comm.queue)
		}
		<-l.comm.stopped
	}
	if l.verif != nil {
		// After the committer: in-flight admissions either finished
		// verification already or fall back to inline verify and then
		// fail at sequencing with ErrClosed.
		l.verif.close()
	}
	if err := l.cfg.Blobs.Sync(); err != nil {
		return err
	}
	for _, s := range []streamfs.Stream{l.journals, l.digests, l.blocks, l.survival} {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Closed reports whether Close has shut the pipelined write path: every
// further Append fails with ErrClosed, so a service in front of this
// ledger should be taken out of rotation. A synchronous ledger
// (PipelineDepth 0) has no such state and always reports false.
func (l *Ledger) Closed() bool {
	return l.comm != nil && l.comm.closed.Load()
}

// forEachChunk fans f out over contiguous chunks of reqs, one worker
// per CPU, and returns the first error any worker hit.
func forEachChunk(reqs []*journal.Request, f func(lo int, part []*journal.Request) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	chunk := (len(reqs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(reqs) {
			hi = len(reqs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo int, part []*journal.Request) {
			defer wg.Done()
			if err := f(lo, part); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}(lo, reqs[lo:hi])
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}
