package streamfs

import (
	"errors"
	"fmt"
	"sync"

	"ledgerdb/internal/hashutil"
)

// BlobStore is the "shared storage" of Figure 1: the ledger proxy writes
// raw transaction payloads here and hands only the digest to the ledger
// server, so journals stay small and — critically for the purge and
// occult mutations of §III-A — payload bytes can be physically erased
// without touching the append-only journal stream that carries the
// tamper-evidence.
type BlobStore interface {
	// Put stores data under key, which must be hashutil.Sum(data): the
	// store is content addressed and the disk backend re-derives keys
	// from the bytes when it reopens. Storing the same digest twice is a
	// no-op. Payloads above MaxRecordSize fail with ErrTooLarge.
	Put(key hashutil.Digest, data []byte) error
	// Get returns the payload for key, or ErrBlobNotFound. Any other
	// error means the bytes exist but could not be read back intact.
	Get(key hashutil.Digest) ([]byte, error)
	// Delete physically erases the payloads: once it returns, no file of
	// the store contains their bytes. Absent keys are skipped — erasure
	// must be idempotent for the async occult reorganizer and for
	// recovery's purge roll-forward. Batching matters on disk: every
	// storage unit holding some of the keys is rewritten once per call,
	// not once per key.
	Delete(keys ...hashutil.Digest) error
	// Sync forces every payload Put so far to stable storage. The ledger
	// calls it first at each flush point, and the journal stream calls
	// it ahead of its own flushes (SelfSyncer), so a durable journal
	// never names a payload a crash can still lose.
	Sync() error
}

// Errors returned by blob stores.
var (
	// ErrBlobNotFound is returned by Get for absent or erased payloads.
	ErrBlobNotFound = errors.New("streamfs: blob not found (absent or erased)")
	// ErrBlobKey is returned by the disk store's Put when key is not the
	// digest of data.
	ErrBlobKey = errors.New("streamfs: blob key is not the digest of its data")
)

// memBlobStore is the in-memory BlobStore.
type memBlobStore struct {
	mu    sync.RWMutex
	blobs map[hashutil.Digest][]byte
}

// NewMemoryBlobs returns an empty in-memory blob store.
func NewMemoryBlobs() BlobStore {
	return &memBlobStore{blobs: make(map[hashutil.Digest][]byte)}
}

func (s *memBlobStore) Put(key hashutil.Digest, data []byte) error {
	if len(data) > MaxRecordSize {
		return ErrTooLarge
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[key]; !ok {
		s.blobs[key] = cp
	}
	return nil
}

func (s *memBlobStore) Get(key hashutil.Digest) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, key.Short())
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

func (s *memBlobStore) Delete(keys ...hashutil.Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range keys {
		delete(s.blobs, key)
	}
	return nil
}

func (s *memBlobStore) Sync() error { return nil }
