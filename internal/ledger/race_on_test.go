//go:build race

package ledger

// RaceEnabled reports whether the race detector is active. Race
// instrumentation changes allocation behavior (sync.Pool intentionally
// drops items to widen the race window), so strict allocs/op
// assertions are meaningless under -race and skip themselves. It is
// exported for the external test package (proofsize_test.go).
const RaceEnabled = true
