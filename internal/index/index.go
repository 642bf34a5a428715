// Package index is the streamfs-backed secondary index behind the
// verified rich-query layer: it tails the ledger's journal stream and
// materializes by-clue-prefix, by-time-range, and by-signer
// projections.
//
// The hard invariant is **index = cache, ledger = truth**. The sidecar
// store holds nothing the ledger does not; deleting it and reopening
// rebuilds byte-identical projections from the journal stream alone.
// Query answers never ask for trust either: the server wraps every
// match set in an existence proof batch and every empty prefix reply
// in an absence proof, both anchored to the LSP-signed state — a
// tampered or stale index entry fails client-side verification, it is
// never silently served (internal/ledger/query.go).
//
// Determinism: the index reads no clock at all — entry timestamps are
// the ledger's committed record timestamps (which come from
// ledger.Config.Clock), so a rebuild is a pure function of the journal
// stream. Verlint L3 enforces this package-wide.
package index

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/wire"
)

// ErrMismatch is returned by CrossCheck when a projection disagrees
// with a fresh replay of the journal stream.
var ErrMismatch = errors.New("index: projection does not match journal replay")

// streamEntries is the sidecar log: one record per indexed jsn, in jsn
// order. It is a pure replay accelerator — rm -rf and reopen retails
// the whole journal stream instead.
const streamEntries = "entries"

// maxEntryClues mirrors the journal decoder's clue-list cap.
const maxEntryClues = 1024

// entry is the indexed slice of one journal record.
type entry struct {
	jsn    uint64
	ts     int64
	signer sig.PublicKey
	clues  []string
}

func (e *entry) encode(w *wire.Writer) {
	w.Uvarint(e.jsn)
	w.Int64(e.ts)
	sig.EncodePublicKey(w, e.signer)
	w.Uvarint(uint64(len(e.clues)))
	for _, c := range e.clues {
		w.String(c)
	}
}

func decodeEntry(b []byte) (*entry, error) {
	r := wire.NewReader(b)
	e := &entry{jsn: r.Uvarint(), ts: r.Int64(), signer: sig.DecodePublicKey(r)}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxEntryClues {
		return nil, fmt.Errorf("index: entry with %d clues (max %d)", n, maxEntryClues)
	}
	for i := uint64(0); i < n; i++ {
		e.clues = append(e.clues, r.String())
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return e, nil
}

func entryOf(rec *journal.Record) *entry {
	return &entry{jsn: rec.JSN, ts: rec.Timestamp, signer: rec.ClientPK, clues: rec.Clues}
}

// timeEntry is one by-time projection row.
type timeEntry struct {
	ts  int64
	jsn uint64
}

// Index is the sidecar. Safe for concurrent use, with the engine's lock
// discipline (verlint L1): all sidecar I/O — journal reads, entries-log
// appends, truncation — runs inside the single-flight sync slot (syncCh)
// with no mutex held, and ix.mu is only ever taken for the in-memory
// projection mutations and reads.
type Index struct {
	mu  sync.RWMutex
	led *ledger.Ledger
	log streamfs.Stream

	// syncCh is the tailer slot: a one-deep channel acquired for the
	// whole of a Sync or CrossCheck pass. It serializes the sidecar I/O
	// and freezes watermark/base (which only move inside the slot)
	// without holding ix.mu across stream reads or appends.
	syncCh chan struct{}

	watermark uint64 // next jsn to ingest; moves only inside syncCh
	base      uint64 // ledger purge base the projections reflect; ditto

	byClue   map[string][]uint64 // clue -> ascending jsns
	names    []string            // sorted clue names present in byClue
	byTime   []timeEntry         // sorted by (ts, jsn)
	bySigner map[sig.PublicKey][]uint64
}

// Open builds the index over its sidecar store: replay the entries log
// (skipping rows the ledger has since purged), then tail the journal
// stream to the current size. An empty or deleted store degrades to a
// full rebuild — slower, never wrong.
//
// The log may also be AHEAD of the ledger: it flushes on its own
// schedule, so after a power cut it can hold rows for jsns the journal
// stream lost and will issue again to different requests. Rows at or
// past the ledger's size are cut off the log here, before the watermark
// can skip over them.
func Open(led *ledger.Ledger, store streamfs.Store) (*Index, error) {
	log, err := store.Stream(streamEntries)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		led:      led,
		log:      log,
		syncCh:   make(chan struct{}, 1),
		base:     led.Base(),
		byClue:   make(map[string][]uint64),
		bySigner: make(map[sig.PublicKey][]uint64),
	}
	size, ahead := led.Size(), log.Len()
	err = log.Iterate(log.Base(), func(seq uint64, record []byte) error {
		e, err := decodeEntry(record)
		if err != nil {
			return fmt.Errorf("index: entries log seq %d: %w", seq, err)
		}
		if e.jsn >= size {
			ahead = seq // rows ascend by jsn: the rest is ahead too
			return errStopIterate
		}
		ix.watermark = e.jsn + 1
		if e.jsn >= ix.base {
			ix.applyLocked(e) // else purged while the index was closed
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopIterate) {
		return nil, err
	}
	if err := log.TruncateTail(ahead); err != nil {
		return nil, err
	}
	if ix.watermark < ix.base {
		ix.watermark = ix.base
	}
	if err := ix.Sync(); err != nil {
		return nil, err
	}
	return ix, nil
}

// applyLocked folds one entry into every projection. Entries arrive in
// strictly increasing jsn order, so per-clue and per-signer lists stay
// ascending by construction; only the time projection needs a sorted
// insert (the injected clock may step backwards).
func (ix *Index) applyLocked(e *entry) {
	for _, c := range e.clues {
		jsns, known := ix.byClue[c]
		ix.byClue[c] = append(jsns, e.jsn)
		if !known {
			at := sort.SearchStrings(ix.names, c)
			ix.names = append(ix.names, "")
			copy(ix.names[at+1:], ix.names[at:])
			ix.names[at] = c
		}
	}
	te := timeEntry{ts: e.ts, jsn: e.jsn}
	at := sort.Search(len(ix.byTime), func(i int) bool {
		t := ix.byTime[i]
		return t.ts > te.ts || (t.ts == te.ts && t.jsn > te.jsn)
	})
	ix.byTime = append(ix.byTime, timeEntry{})
	copy(ix.byTime[at+1:], ix.byTime[at:])
	ix.byTime[at] = te
	ix.bySigner[e.signer] = append(ix.bySigner[e.signer], e.jsn)
}

// Sync brings the projections up to the ledger's current size and
// purge base: ingest new journals (appending them to the entries log),
// then drop purged rows. Queries call it first, so the index is
// read-triggered — no background goroutine to leak or race.
func (ix *Index) Sync() error {
	ix.syncCh <- struct{}{}
	defer func() { <-ix.syncCh }()
	return ix.syncTail()
}

// syncTail is the body of a sync pass. Caller holds the sync slot, so
// watermark/base are stable and the entries log is ours alone; ix.mu is
// taken only around the in-memory projection updates, never across the
// journal reads or log appends. The appended rows are NOT fsynced: the
// log is a replay accelerator whose loss costs a re-tail, so a query
// never waits on the disk for it. It reaches the disk when the stream
// flushes on its own (DiskOptions.SyncEvery, segment seals) and on Close.
func (ix *Index) syncTail() error {
	size := ix.led.Size()
	for jsn := ix.watermark; jsn < size; jsn++ {
		rec, err := ix.led.GetJournal(jsn)
		if errors.Is(err, ledger.ErrPurged) {
			ix.mu.Lock()
			ix.watermark = jsn + 1 // purged under our feet; pruned below
			ix.mu.Unlock()
			continue
		}
		if err != nil {
			return err
		}
		e := entryOf(rec)
		w := wire.NewWriter(128)
		e.encode(w)
		if _, err := ix.log.Append(w.Bytes()); err != nil {
			return err
		}
		ix.mu.Lock()
		ix.applyLocked(e)
		ix.watermark = jsn + 1
		ix.mu.Unlock()
	}
	if base := ix.led.Base(); base > ix.base {
		if err := ix.pruneLog(base); err != nil {
			return err
		}
		ix.mu.Lock()
		ix.pruneLocked(base)
		ix.base = base
		ix.mu.Unlock()
	}
	return nil
}

// pruneLocked drops every projection row with jsn < base — the live
// half of the purge-replay invariant (the rebuild half falls out of
// Open skipping stale log rows).
func (ix *Index) pruneLocked(base uint64) {
	keep := func(jsns []uint64) []uint64 {
		at := sort.Search(len(jsns), func(i int) bool { return jsns[i] >= base })
		if at == 0 {
			return jsns
		}
		return append(jsns[:0], jsns[at:]...)
	}
	live := ix.names[:0]
	for _, c := range ix.names {
		if jsns := keep(ix.byClue[c]); len(jsns) > 0 {
			ix.byClue[c] = jsns
			live = append(live, c)
		} else {
			delete(ix.byClue, c)
		}
	}
	ix.names = live
	kept := ix.byTime[:0]
	for _, te := range ix.byTime {
		if te.jsn >= base {
			kept = append(kept, te)
		}
	}
	ix.byTime = kept
	for pk, jsns := range ix.bySigner {
		if jsns = keep(jsns); len(jsns) > 0 {
			ix.bySigner[pk] = jsns
		} else {
			delete(ix.bySigner, pk)
		}
	}
}

// pruneLog truncates the entries log's stale prefix. Entries are in
// jsn order, so the cut point is the first row at or above base.
func (ix *Index) pruneLog(base uint64) error {
	cut := ix.log.Base()
	err := ix.log.Iterate(ix.log.Base(), func(seq uint64, record []byte) error {
		e, err := decodeEntry(record)
		if err != nil || e.jsn >= base {
			return errStopIterate
		}
		cut = seq + 1
		return nil
	})
	if err != nil && !errors.Is(err, errStopIterate) {
		return err
	}
	return ix.log.Truncate(cut)
}

var errStopIterate = errors.New("index: stop iteration")

// match runs the query predicate against the projections, returning
// the matched jsns ascending plus whether the limit cut the set. Clue
// and signer lists are ascending already, so a match reads only as far
// into them as the limit reaches — a hot clue's thousands of versions
// are neither copied nor sorted.
func (ix *Index) match(q ledger.Query) (jsns []uint64, truncated bool) {
	limit := q.EffectiveLimit()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	switch q.Kind {
	case ledger.QueryByPrefix:
		var lists [][]uint64
		at := sort.SearchStrings(ix.names, q.Prefix)
		for _, c := range ix.names[at:] {
			if !strings.HasPrefix(c, q.Prefix) {
				break
			}
			lists = append(lists, ix.byClue[c])
		}
		jsns = mergeAscending(lists, limit+1)
	case ledger.QueryByTime:
		from := sort.Search(len(ix.byTime), func(i int) bool { return ix.byTime[i].ts >= q.From })
		for _, te := range ix.byTime[from:] {
			if te.ts >= q.To {
				break
			}
			jsns = append(jsns, te.jsn)
		}
		sort.Slice(jsns, func(i, j int) bool { return jsns[i] < jsns[j] })
	case ledger.QueryBySigner:
		jsns = mergeAscending([][]uint64{ix.bySigner[q.Signer]}, limit+1)
	}
	if uint64(len(jsns)) > limit {
		jsns, truncated = jsns[:limit], true
	}
	return jsns, truncated
}

// mergeAscending returns the max smallest distinct values of the given
// ascending lists, ascending, in fresh storage, merged through a heap of
// cursors. A jsn can repeat across lists (a journal with two matching
// clues) and within one (a request naming the same clue twice), hence
// the dedupe on every path, a lone list included.
func mergeAscending(lists [][]uint64, max uint64) []uint64 {
	h := make(cursorHeap, 0, len(lists))
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, l)
		}
	}
	heap.Init(&h)
	var out []uint64
	for len(h) > 0 && uint64(len(out)) < max {
		v := h[0][0]
		if n := len(out); n == 0 || out[n-1] != v {
			out = append(out, v)
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// cursorHeap orders non-empty ascending lists by their next value.
type cursorHeap [][]uint64

func (h cursorHeap) Len() int           { return len(h) }
func (h cursorHeap) Less(i, j int) bool { return h[i][0] < h[j][0] }
func (h cursorHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)        { *h = append(*h, x.([]uint64)) }
func (h *cursorHeap) Pop() any {
	old := *h
	l := old[len(old)-1]
	*h = old[:len(old)-1]
	return l
}

// Query answers a rich read with a verifiable result: proofs for every
// match, an absence proof for an empty prefix reply. The index only
// ever nominates jsns; all authority comes from the ledger's proofs.
func (ix *Index) Query(q ledger.Query) (*ledger.QueryResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// A concurrent append/purge between matching and proving surfaces
	// as ErrPresent / ErrPurged from the prover; one resync+retry
	// converges because both races move the ledger strictly forward.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := ix.Sync(); err != nil {
			return nil, err
		}
		res, err := ix.queryOnce(q)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ledger.ErrPresent) && !errors.Is(err, ledger.ErrPurged) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

func (ix *Index) queryOnce(q ledger.Query) (*ledger.QueryResult, error) {
	jsns, truncated := ix.match(q)
	res := &ledger.QueryResult{Query: q, Truncated: truncated}
	if len(jsns) == 0 {
		if q.Kind == ledger.QueryByPrefix {
			ap, err := ix.led.ProveAbsence(q.Prefix, true)
			if err != nil {
				return nil, err
			}
			res.Absence = ap
		}
		return res, nil
	}
	batch, err := ix.led.ProveQueryBatch(jsns, q.WithPayload)
	if err != nil {
		return nil, err
	}
	res.Batch = batch
	return res, nil
}

// ProjectionBytes serializes every projection deterministically
// (sorted clue names, time order, byte-sorted signer keys). Two
// indexes over the same ledger — one warm, one cold-rebuilt — must
// produce identical bytes; crashtest and the acceptance check diff
// exactly this.
func (ix *Index) ProjectionBytes() []byte {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return projectionBytes(ix.names, ix.byClue, ix.byTime, ix.bySigner)
}

func projectionBytes(names []string, byClue map[string][]uint64, byTime []timeEntry, bySigner map[sig.PublicKey][]uint64) []byte {
	w := wire.NewWriter(4096)
	w.String("index/projections/v1")
	w.WriteBytes(encodeClues(names, byClue))
	w.WriteBytes(encodeTimes(byTime))
	w.WriteBytes(encodeSigners(bySigner))
	return w.Bytes()
}

// CrossCheck is the audit pass: replay the journal stream from the
// ledger (the truth) into fresh projections and diff them against the
// live ones. Any disagreement — missed record, stale purged row,
// corrupted sidecar — is an ErrMismatch naming the projection.
func (ix *Index) CrossCheck() error {
	// Hold the sync slot for the whole audit: it freezes watermark, base,
	// and the projections (every mutation runs inside the slot), so the
	// replay window and the live encodings stay consistent without
	// holding ix.mu across the journal reads.
	ix.syncCh <- struct{}{}
	defer func() { <-ix.syncCh }()
	if err := ix.syncTail(); err != nil {
		return err
	}
	fresh := &Index{
		led:      ix.led,
		byClue:   make(map[string][]uint64),
		bySigner: make(map[sig.PublicKey][]uint64),
	}
	// Replay exactly the window the live projections have ingested
	// ([base, watermark)); a concurrent append past the watermark cannot
	// manufacture a false mismatch.
	for jsn := ix.base; jsn < ix.watermark; jsn++ {
		rec, err := ix.led.GetJournal(jsn)
		if errors.Is(err, ledger.ErrPurged) {
			continue
		}
		if err != nil {
			return err
		}
		fresh.applyLocked(entryOf(rec))
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	checks := []struct {
		name       string
		live, want []byte
	}{
		{"by-clue", encodeClues(ix.names, ix.byClue), encodeClues(fresh.names, fresh.byClue)},
		{"by-time", encodeTimes(ix.byTime), encodeTimes(fresh.byTime)},
		{"by-signer", encodeSigners(ix.bySigner), encodeSigners(fresh.bySigner)},
	}
	for _, c := range checks {
		if string(c.live) != string(c.want) {
			return fmt.Errorf("%w: %s projection diverges (%d live bytes, %d replayed)",
				ErrMismatch, c.name, len(c.live), len(c.want))
		}
	}
	return nil
}

func encodeClues(names []string, byClue map[string][]uint64) []byte {
	w := wire.NewWriter(1024)
	for _, c := range names {
		w.String(c)
		jsns := byClue[c]
		w.Uvarint(uint64(len(jsns)))
		for _, j := range jsns {
			w.Uvarint(j)
		}
	}
	return w.Bytes()
}

func encodeTimes(byTime []timeEntry) []byte {
	w := wire.NewWriter(1024)
	for _, te := range byTime {
		w.Int64(te.ts)
		w.Uvarint(te.jsn)
	}
	return w.Bytes()
}

func encodeSigners(bySigner map[sig.PublicKey][]uint64) []byte {
	w := wire.NewWriter(1024)
	signers := make([]sig.PublicKey, 0, len(bySigner))
	for pk := range bySigner {
		signers = append(signers, pk)
	}
	sort.Slice(signers, func(i, j int) bool { return string(signers[i][:]) < string(signers[j][:]) })
	for _, pk := range signers {
		sig.EncodePublicKey(w, pk)
		jsns := bySigner[pk]
		w.Uvarint(uint64(len(jsns)))
		for _, j := range jsns {
			w.Uvarint(j)
		}
	}
	return w.Bytes()
}
