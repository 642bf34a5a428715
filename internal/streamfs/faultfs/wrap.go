package faultfs

import (
	"sync"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/streamfs"
)

// Script is a shared op-level failpoint controller for the Store, Stream,
// and BlobStore decorators. All wrappers sharing one Script count against
// the same operation counters, so a test can say "the 7th append anywhere
// in the stack fails" or "freeze the whole stack now".
type Script struct {
	mu         sync.Mutex
	appendN    int64
	failAppend int64
	syncN      int64
	failSync   int64
	putN       int64
	failPut    int64
	crashed    bool
}

// NewScript returns a controller with no armed failpoints.
func NewScript() *Script { return &Script{} }

// FailNthAppend arms the nth upcoming Append (1 = next) across every
// wrapped stream to fail with ErrInjected without reaching the backend.
func (s *Script) FailNthAppend(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAppend = s.appendN + int64(n)
}

// FailNthSync arms the nth upcoming Sync across every wrapped stream and
// blob store.
func (s *Script) FailNthSync(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failSync = s.syncN + int64(n)
}

// FailNthPut arms the nth upcoming blob Put.
func (s *Script) FailNthPut(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failPut = s.putN + int64(n)
}

// CrashNow makes every subsequent operation on wrapped stores fail with
// ErrCrashed, modelling a process that lost its storage mid-flight.
func (s *Script) CrashNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
}

// Reset disarms all failpoints and un-crashes the script.
func (s *Script) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAppend, s.failSync, s.failPut = 0, 0, 0
	s.crashed = false
}

func (s *Script) gate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

func (s *Script) gateAppend() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	s.appendN++
	if s.failAppend != 0 && s.appendN == s.failAppend {
		s.failAppend = 0
		return ErrInjected
	}
	return nil
}

func (s *Script) gateSync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	s.syncN++
	if s.failSync != 0 && s.syncN == s.failSync {
		s.failSync = 0
		return ErrInjected
	}
	return nil
}

func (s *Script) gatePut() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	s.putN++
	if s.failPut != 0 && s.putN == s.failPut {
		s.failPut = 0
		return ErrInjected
	}
	return nil
}

// WrapStore decorates a Store so that streams it hands out honour the
// script's failpoints.
func WrapStore(inner streamfs.Store, script *Script) streamfs.Store {
	return &store{inner: inner, script: script}
}

type store struct {
	inner  streamfs.Store
	script *Script
}

func (s *store) Stream(name string) (streamfs.Stream, error) {
	if err := s.script.gate(); err != nil {
		return nil, err
	}
	st, err := s.inner.Stream(name)
	if err != nil {
		return nil, err
	}
	return &stream{inner: st, script: s.script}, nil
}

func (s *store) Streams() ([]string, error) {
	if err := s.script.gate(); err != nil {
		return nil, err
	}
	return s.inner.Streams()
}

func (s *store) Close() error { return s.inner.Close() }

type stream struct {
	inner  streamfs.Stream
	script *Script
}

func (st *stream) Append(record []byte) (uint64, error) {
	if err := st.script.gateAppend(); err != nil {
		return 0, err
	}
	return st.inner.Append(record)
}

func (st *stream) Read(seq uint64) ([]byte, error) {
	if err := st.script.gate(); err != nil {
		return nil, err
	}
	return st.inner.Read(seq)
}

func (st *stream) Len() uint64  { return st.inner.Len() }
func (st *stream) Base() uint64 { return st.inner.Base() }

func (st *stream) Iterate(from uint64, fn func(uint64, []byte) error) error {
	if err := st.script.gate(); err != nil {
		return err
	}
	return st.inner.Iterate(from, fn)
}

func (st *stream) Truncate(before uint64) error {
	if err := st.script.gate(); err != nil {
		return err
	}
	return st.inner.Truncate(before)
}

func (st *stream) TruncateTail(from uint64) error {
	if err := st.script.gate(); err != nil {
		return err
	}
	return st.inner.TruncateTail(from)
}

func (st *stream) Sync() error {
	if err := st.script.gateSync(); err != nil {
		return err
	}
	return st.inner.Sync()
}

// WrapBlobs decorates a BlobStore with the script's failpoints.
func WrapBlobs(inner streamfs.BlobStore, script *Script) streamfs.BlobStore {
	return &blobs{inner: inner, script: script}
}

type blobs struct {
	inner  streamfs.BlobStore
	script *Script
}

func (b *blobs) Put(key hashutil.Digest, data []byte) error {
	if err := b.script.gatePut(); err != nil {
		return err
	}
	return b.inner.Put(key, data)
}

func (b *blobs) Get(key hashutil.Digest) ([]byte, error) {
	if err := b.script.gate(); err != nil {
		return nil, err
	}
	return b.inner.Get(key)
}

func (b *blobs) Delete(keys ...hashutil.Digest) error {
	if err := b.script.gate(); err != nil {
		return err
	}
	return b.inner.Delete(keys...)
}

func (b *blobs) Sync() error {
	if err := b.script.gateSync(); err != nil {
		return err
	}
	return b.inner.Sync()
}
