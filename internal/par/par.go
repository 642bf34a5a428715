// Package par runs independent checks on every core with a verdict
// that does not depend on how many cores there are.
//
// Verifiers, batch admission and batch signing all have the same shape:
// n independent, CPU-bound calls (mostly P-256 operations) whose
// outcome is "all passed" or "the first one that failed". Each is that
// shape and nothing more. It has no knob: GOMAXPROCS bounds it, and the
// answer is the same at any setting.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls f(i) for every i in [0, n) and returns the error of the
// lowest i whose call failed, or nil: the error a serial loop that stops
// at its first failure returns, whatever the scheduling.
//
// It runs on min(GOMAXPROCS, n) goroutines, the caller's included, so
// n ≤ 1 or GOMAXPROCS = 1 starts none. Workers claim indices in
// ascending order and stop claiming past the lowest failure seen so
// far; every index below a failure has then already been claimed, so
// the lowest failure is always found. Calls above it may run too (f
// must not rely on being skipped), and calls for distinct i run
// concurrently, so f must be safe for that.
func Each(n int, f func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		first    atomic.Int64 // lowest failing index so far; n while none
		mu       sync.Mutex   // orders the updates of first and firstErr
		firstErr error
		wg       sync.WaitGroup
	)
	first.Store(int64(n))
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= first.Load() {
				return
			}
			if err := f(int(i)); err != nil {
				mu.Lock()
				if i < first.Load() {
					first.Store(i)
					firstErr = err
				}
				mu.Unlock()
			}
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
