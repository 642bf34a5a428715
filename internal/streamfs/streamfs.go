// Package streamfs implements the append-only stream file system that
// backs LedgerDB's journal storage (§II-C of the paper: "LedgerDB
// implements a stream file system ... to manage journals").
//
// A Store is a namespace of independent append-only Streams. LedgerDB uses
// one stream for journals, one for block headers, one for time journals,
// and one "survival" stream holding milestone journals that outlive purges
// (§III-A2). Records are addressed by dense sequence numbers starting at 0.
//
// Two backends are provided: an in-memory store for tests and benchmarks,
// and a disk store that frames records as
//
//	[u32 payload length][u32 CRC32C of payload][payload]
//
// inside fixed-capacity segment files. The disk store detects torn tails
// (a crash mid-append) and recovers by truncating the damaged suffix; any
// CRC mismatch in the interior is reported as corruption, never silently
// skipped — the ledger's tamper-evidence depends on reads failing loudly.
package streamfs

import (
	"errors"
	"fmt"
)

// Errors returned by stream operations.
var (
	ErrNotFound   = errors.New("streamfs: record sequence not found")
	ErrCorrupt    = errors.New("streamfs: corrupt record")
	ErrClosed     = errors.New("streamfs: store closed")
	ErrBadName    = errors.New("streamfs: invalid stream name")
	ErrTooLarge   = errors.New("streamfs: record exceeds maximum size")
	ErrOutOfRange = errors.New("streamfs: iteration start beyond stream end")
)

// MaxRecordSize bounds one record (16 MiB); journal payloads above it must
// be chunked by the caller.
const MaxRecordSize = 16 << 20

// Store is a namespace of append-only streams.
type Store interface {
	// Stream opens (creating if absent) the named stream. Names must be
	// non-empty and use only [a-z0-9._-].
	Stream(name string) (Stream, error)
	// Streams lists the names of existing streams.
	Streams() ([]string, error)
	// Close releases resources. Streams obtained from the store must not
	// be used afterwards.
	Close() error
}

// Stream is a single append-only record log.
type Stream interface {
	// Append writes a record and returns its sequence number (dense,
	// starting at 0). The record is copied.
	Append(record []byte) (uint64, error)
	// Read returns the record at seq. The returned slice is owned by the
	// caller.
	Read(seq uint64) ([]byte, error)
	// Len returns the number of records.
	Len() uint64
	// Base returns the first readable sequence number (0 unless Truncate
	// has purged a prefix).
	Base() uint64
	// Iterate calls fn for each record with sequence >= from, in order,
	// until the end of the stream or fn returns an error. record is a
	// view valid only during the call — the disk backend reuses one
	// chunk buffer for the whole walk — so fn must copy whatever it
	// keeps. Every caller decodes into fresh storage or copies:
	// ledger recovery (digests, blocks, journals, the pseudo-genesis
	// search and seed), Ledger.ScanJournals, Survivors, proof bundles'
	// time-journal search and ReadRange.
	Iterate(from uint64, fn func(seq uint64, record []byte) error) error
	// Truncate discards all records with sequence < before, releasing
	// their storage where the backend allows. Reads of purged sequences
	// fail with ErrNotFound. It implements the physical side of the
	// ledger purge operation.
	Truncate(before uint64) error
	// TruncateTail discards all records with sequence >= from. It exists
	// solely for crash-recovery reconciliation — dropping an unsynced
	// suffix so sibling streams agree on one durable prefix — and must
	// never be used on a stream that is serving appends.
	TruncateTail(from uint64) error
	// Sync forces durability of everything appended so far.
	Sync() error
}

// Rebaser is an optional Stream capability: resetting an empty (or
// fully discardable) stream so its next sequence starts at base. It
// exists for replication catch-up — a follower that lagged past the
// primary's purge point cannot replay the erased prefix and instead
// re-bases its journal stream at the primary's base before reseeding
// from the purge snapshot. Both provided backends implement it.
type Rebaser interface {
	// SetBase discards every record and positions the stream so the
	// next Append is assigned sequence base. base must be >= Len()
	// (rebasing below live records would orphan them); streams that
	// still hold records the caller wants must TruncateTail first.
	SetBase(base uint64) error
}

// SelfSyncer is an optional Stream capability for backends that flush a
// stream on their own, between the caller's Sync calls — the disk stream
// does when it seals a segment and on DiskOptions.SyncEvery. BeforeSelfSync
// registers a barrier that runs ahead of every such flush; if it fails,
// so does the flush. The ledger registers its payload store's Sync on
// the journal stream, which keeps the flush order (payloads before the
// journals that name them) true for flushes it did not ask for.
type SelfSyncer interface {
	BeforeSelfSync(barrier func() error)
}

func validName(name string) error {
	if name == "" || name[0] == '.' {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: %q", ErrBadName, name)
		}
	}
	return nil
}
