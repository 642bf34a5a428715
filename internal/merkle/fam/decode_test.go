package fam

import (
	"testing"
	"testing/quick"

	"ledgerdb/internal/wire"
)

// Proof decoders consume untrusted bytes; they must reject garbage with
// an error, never panic.
func TestDecodeProofNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, err := DecodeBatchProof(wire.NewReader(b))
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
