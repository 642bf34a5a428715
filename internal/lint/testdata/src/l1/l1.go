// Package l1 is the golden fixture for rule L1 (lock discipline): sinks
// reachable while a mutex is held. Loaded only by the lint golden tests;
// the go tool ignores testdata.
package l1

import (
	"os"
	"sync"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

type engine struct {
	mu      sync.RWMutex
	st      streamfs.Stream
	key     *sig.KeyPair
	lastSig sig.Signature
	n       int
}

func (e *engine) lockExclusive()   { e.mu.Lock() }
func (e *engine) unlockExclusive() { e.mu.Unlock() }

// spill is an I/O helper: not a violation by itself, but reaching it
// under a lock is.
func spill(p []byte) { _ = os.WriteFile("spill.bin", p, 0o644) }

// Direct stream I/O inside a Lock/Unlock region.
func (e *engine) appendUnderLock(p []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, _ = e.st.Append(p) // want "L1: stream/blob I/O"
}

// Read-side: stream I/O under RLock is still I/O under a lock.
func (e *engine) readUnderRLock(seq uint64) []byte {
	e.mu.RLock()
	defer e.mu.RUnlock()
	raw, _ := e.st.Read(seq) // want "L1: stream/blob I/O"
	return raw
}

// Signing under the lockExclusive/unlockExclusive pair.
func (e *engine) signUnderExclusive(d hashutil.Digest) {
	e.lockExclusive()
	defer e.unlockExclusive()
	e.lastSig = e.key.MustSign(d) // want "L1: ECDSA signing"
}

// lockWrite takes the same exclusive lock, refusing the write when it
// cannot run.
func (e *engine) lockWrite() error {
	e.lockExclusive()
	return nil
}

// Signing after lockWrite is signing under the exclusive lock.
func (e *engine) signUnderWriteLock(d hashutil.Digest) error {
	if err := e.lockWrite(); err != nil {
		return err
	}
	defer e.unlockExclusive()
	e.lastSig = e.key.MustSign(d) // want "L1: ECDSA signing"
	return nil
}

// The sink is not called here directly — it is reachable through spill.
func (e *engine) flushUnderLock(p []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	spill(p) // want "L1: file I/O reachable"
}

// The *Locked suffix means "called with the lock held": the whole body
// is a lock region even though no Lock appears.
func (e *engine) appendOneLocked(p []byte) error {
	_, err := e.st.Append(p) // want "L1: stream/blob I/O"
	return err
}

// Negative: the region ends at the first non-deferred Unlock, so I/O
// after it is fine.
func (e *engine) okAfterUnlock(p []byte) {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
	_, _ = e.st.Append(p)
}

// Negative: a closure built under the lock runs later, outside it.
func (e *engine) closureOK(p []byte) func() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	return func() { _, _ = e.st.Append(p) }
}
