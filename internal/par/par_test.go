package par

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// serial is the loop Each must agree with.
func serial(n int, f func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// TestEachMatchesSerial: for random sizes and random failure sets, at
// GOMAXPROCS 1, 2, 3 and 8, Each returns exactly the serial loop's
// error, every index up to the first failure ran once, and no index ran
// twice.
func TestEachMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(26))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(70)
			fails := make([]bool, n)
			for i := range fails {
				fails[i] = trial%4 != 0 && rng.Intn(8) == 0 // every 4th trial has no failure
			}
			check := func(i int) error {
				if fails[i] {
					return fmt.Errorf("index %d failed", i)
				}
				return nil
			}
			want := serial(n, check)
			calls := make([]atomic.Int32, n)
			got := Each(n, func(i int) error {
				calls[i].Add(1)
				return check(i)
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("GOMAXPROCS %d, n %d, fails %v: Each = %v, serial = %v", procs, n, fails, got, want)
			}
			stop := n
			for i, f := range fails {
				if f {
					stop = i
					break
				}
			}
			for i := range calls {
				if c := calls[i].Load(); c > 1 || (i <= stop && c != 1) {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d called %d times (first failure %d)", procs, n, i, c, stop)
				}
			}
		}
	}
}

// TestEachSlowLowFailureWins: a failure at a low index that returns
// last still beats every faster failure above it.
func TestEachSlowLowFailureWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	release := make(chan struct{})
	var high atomic.Int32
	err := Each(16, func(i int) error {
		switch {
		case i == 1:
			<-release // held until a higher index has failed
			return fmt.Errorf("index 1")
		case i >= 2:
			if high.Add(1) == 1 {
				close(release)
			}
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 1" {
		t.Fatalf("Each = %v, want index 1", err)
	}
}

// TestEachEmptyAndSingle: n = 0 calls nothing, and n = 1 runs on the
// caller's goroutine, starting none.
func TestEachEmptyAndSingle(t *testing.T) {
	if err := Each(0, func(int) error { return fmt.Errorf("called") }); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := Each(1, func(int) error {
		if n := runtime.NumGoroutine(); n != before {
			return fmt.Errorf("%d goroutines during a single call, %d before", n, before)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
