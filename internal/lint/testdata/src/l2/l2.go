// Package l2 is the golden fixture for rule L2 (unchecked errors on the
// verification path).
package l2

import (
	"fmt"
	"os"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/sig"
)

func VerifyThing() error       { return nil }
func CheckPair() (bool, error) { return true, nil }
func doIO() error              { return os.Remove("nope") }

type closer struct{}

func (closer) Close() error { return nil }

func drops() {
	VerifyThing()      // want "L2: result of VerifyThing dropped"
	_ = VerifyThing()  // want "L2: verdict of VerifyThing discarded with _"
	doIO()             // want "L2: error from doIO dropped on the floor"
	go doIO()          // want "L2: go error from doIO dropped on the floor" "L7: goroutine is not provably joinable"
	_, _ = CheckPair() // want "L2: verdict of CheckPair discarded with _"
}

// A memoised verdict is still a verdict: dropping it is the same bug
// whether or not the memo answered.
func dropsMemo(m *sig.Memo, pk sig.PublicKey, d hashutil.Digest, sg sig.Signature) {
	m.Verify(pk, d, sg)     // want "L2: result of Verify dropped"
	_ = m.Verify(pk, d, sg) // want "L2: verdict of Verify discarded with _"
}

func consumes() error {
	if err := VerifyThing(); err != nil {
		return err
	}
	ok, err := CheckPair()
	if !ok || err != nil {
		return fmt.Errorf("check failed: %v", err)
	}
	fmt.Println("fmt is display-only, never load-bearing")
	c := closer{}
	defer c.Close()
	return doIO()
}
