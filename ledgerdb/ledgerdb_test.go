package ledgerdb

import (
	"errors"
	"path/filepath"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/streamfs"
)

func TestStackLifecycle(t *testing.T) {
	stack, err := NewStack(StackOptions{URI: "ledger://facade", FractalHeight: 4, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	alice := stack.NewMember("alice")
	bob := stack.NewMember("bob")

	r1, err := alice.Append([]byte("alice-doc"), "trail")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Append([]byte("bob-doc"), "trail"); err != nil {
		t.Fatal(err)
	}
	rec, payload, err := alice.VerifyExistence(r1.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "alice-doc" || rec.JSN != r1.JSN {
		t.Fatalf("verified %d %q", rec.JSN, payload)
	}
	recs, err := bob.VerifyClue("trail")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("lineage = %d", len(recs))
	}
	if _, err := stack.AnchorTime(); err != nil {
		t.Fatal(err)
	}
	if err := stack.FinalizeTime(); err != nil {
		t.Fatal(err)
	}
	report, err := stack.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if report.TimeJournals != 1 {
		t.Fatalf("report: %+v", report)
	}
}

func TestStackMutations(t *testing.T) {
	stack, err := NewStack(StackOptions{URI: "ledger://facade", FractalHeight: 4, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	alice := stack.NewMember("alice")
	reg := stack.NewRegulator("watchdog")
	var last *Receipt
	for i := 0; i < 6; i++ {
		last, err = alice.Append([]byte{byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Occult the latest journal.
	if _, err := stack.Occult(&OccultDescriptor{URI: stack.URI(), JSN: last.JSN}, reg); err != nil {
		t.Fatalf("Occult: %v", err)
	}
	// Purge the first half (alice must co-sign: she owns journals there).
	desc := &PurgeDescriptor{URI: stack.URI(), Point: 3, ErasePayloads: true}
	if _, err := stack.Purge(desc, alice); err != nil {
		t.Fatalf("Purge: %v", err)
	}
	if stack.Ledger.Base() != 3 {
		t.Fatalf("base = %d", stack.Ledger.Base())
	}
	// The mutated ledger still audits clean.
	if _, err := stack.Audit(); err != nil {
		t.Fatalf("post-mutation audit: %v", err)
	}
}

func TestStackBatchAppend(t *testing.T) {
	stack, err := NewStack(StackOptions{URI: "ledger://facade", FractalHeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	alice := stack.NewMember("alice")
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	clues := [][]string{{"k"}, {"k"}, {"k"}}
	br, err := alice.AppendBatch(payloads, clues)
	if err != nil {
		t.Fatal(err)
	}
	if br.Count != 3 {
		t.Fatalf("count = %d", br.Count)
	}
	lineage, err := alice.VerifyClue("k")
	if err != nil || len(lineage) != 3 {
		t.Fatalf("lineage: %d, %v", len(lineage), err)
	}
	if _, err := stack.Audit(); err != nil {
		t.Fatalf("audit after batch: %v", err)
	}
}

// TestStackBatchClueCount: a clue list that does not match the payloads
// one to one is refused before anything is signed or committed.
func TestStackBatchClueCount(t *testing.T) {
	stack, err := NewStack(StackOptions{URI: "ledger://facade", FractalHeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	alice := stack.NewMember("alice")
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	before := stack.Ledger.Size()
	for _, clues := range [][][]string{{{"k"}}, {{"k"}, {"k"}, {"k"}, {"k"}}} {
		if _, err := alice.AppendBatch(payloads, clues); !errors.Is(err, journal.ErrBadRequest) {
			t.Fatalf("%d clue sets for %d payloads: %v, want ErrBadRequest", len(clues), len(payloads), err)
		}
	}
	if got := stack.Ledger.Size(); got != before {
		t.Fatalf("refused batches moved the size %d -> %d", before, got)
	}
}

// TestStackOnDisk: a stack's data directory is the server's single-node
// layout, so after Close the engine opened on Dir/streams + Dir/blobs the
// way cmd/ledgerdb-server -dir opens it recovers the same ledger.
func TestStackOnDisk(t *testing.T) {
	dir := t.TempDir()
	stack, err := NewStack(StackOptions{URI: "ledger://disk", Dir: dir, FractalHeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := stack.NewMember("m")
	r, err := m.Append([]byte("persisted"), "trail")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.VerifyExistence(r.JSN); err != nil {
		t.Fatal(err)
	}
	size := stack.Ledger.Size()
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := streamfs.OpenDisk(filepath.Join(dir, "streams"), streamfs.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := streamfs.OpenDiskBlobs(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.Open(ledger.Config{
		URI:           stack.URI(),
		FractalHeight: 4,
		LSP:           stack.LSP,
		DBA:           stack.DBA.Public(),
		Store:         store,
		Blobs:         blobs,
	})
	if err != nil {
		t.Fatalf("reopen the stack's directory: %v", err)
	}
	defer led.Close()
	if got := led.Size(); got != size {
		t.Fatalf("reopened size %d, stack had %d", got, size)
	}
	p, err := led.ProveExistence(r.JSN, true)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ledger.VerifyExistence(p, stack.LSP.Public())
	if err != nil {
		t.Fatalf("existence after reopen: %v", err)
	}
	if rec.JSN != r.JSN || string(p.Payload) != "persisted" {
		t.Fatalf("reopened jsn %d payload %q", rec.JSN, p.Payload)
	}
}
