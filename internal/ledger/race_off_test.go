//go:build !race

package ledger

// See race_on_test.go.
const RaceEnabled = false
