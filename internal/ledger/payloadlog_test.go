package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// newDiskBlobEnv is newEnv over the disk payload log; it returns the
// log's directory too.
func newDiskBlobEnv(t *testing.T) (*testEnv, string) {
	t.Helper()
	dir := t.TempDir()
	blobs, err := streamfs.OpenDiskBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, func(c *Config) { c.Blobs = blobs })
	e.blobs = blobs
	return e, dir
}

// corruptPayloadOnDisk flips one byte of payload inside the payload
// log's segment file, behind the store's back.
func corruptPayloadOnDisk(t *testing.T, dir string, payload []byte) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "payload.seg.*"))
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if at := bytes.Index(b, payload); at >= 0 {
			f, err := os.OpenFile(seg, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{b[at] ^ 0xff}, int64(at)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("payload %q is in no segment of %s", payload, dir)
}

// TestProofsSurfacePayloadReadErrors is the regression test for proofs
// that swallowed every Blobs.Get failure as "no payload": a damaged frame
// must fail the four payload-carrying proof builders, while an erased
// payload (ErrBlobNotFound) still yields a digest-only proof.
func TestProofsSurfacePayloadReadErrors(t *testing.T) {
	e, dir := newDiskBlobEnv(t)
	damaged := e.append(t, "payload whose frame gets damaged")
	erased := e.append(t, "payload that gets erased")
	size := e.ledger.Size()

	builders := map[string]func(jsn uint64, withPayload bool) ([]byte, error){
		"ProveExistence": func(jsn uint64, with bool) ([]byte, error) {
			p, err := e.ledger.ProveExistence(jsn, with)
			if err != nil {
				return nil, err
			}
			return p.Payload, nil
		},
		"ProveExistenceBatch": func(jsn uint64, with bool) ([]byte, error) {
			b, err := e.ledger.ProveExistenceBatch([]uint64{jsn}, with)
			if err != nil {
				return nil, err
			}
			return b.Items[0].Payload, nil
		},
		"ExportBundle": func(jsn uint64, with bool) ([]byte, error) {
			b, err := e.ledger.ExportBundle(jsn, with)
			if err != nil {
				return nil, err
			}
			return b.Payload, nil
		},
		"ProveExistenceAt": func(jsn uint64, with bool) ([]byte, error) {
			p, err := e.ledger.ProveExistenceAt(jsn, size, with)
			if err != nil {
				return nil, err
			}
			return p.Payload, nil
		},
	}
	for name, build := range builders {
		if got, err := build(damaged.JSN, true); err != nil || string(got) != "payload whose frame gets damaged" {
			t.Fatalf("%s on a healthy log: %q, %v", name, got, err)
		}
	}

	rec, err := e.ledger.GetJournal(erased.JSN)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.blobs.Delete(rec.PayloadDigest); err != nil {
		t.Fatal(err)
	}
	corruptPayloadOnDisk(t, dir, []byte("payload whose frame gets damaged"))
	for name, build := range builders {
		if got, err := build(damaged.JSN, true); !errors.Is(err, streamfs.ErrCorrupt) {
			t.Errorf("%s over a damaged frame: payload %q, err %v; want ErrCorrupt", name, got, err)
		}
		if _, err := build(damaged.JSN, false); err != nil {
			t.Errorf("%s digest-only over a damaged frame: %v", name, err)
		}
		if got, err := build(erased.JSN, true); err != nil || got != nil {
			t.Errorf("%s over an erased payload: payload %q, err %v; want a digest-only proof", name, got, err)
		}
	}
}

// TestOccultThenPurgeKeepsSharedPayload: a synchronously occulted journal
// gave its payload reference up at the occult; a later purge covering it
// must not release it a second time and erase the payload from under a
// live journal that shares it.
func TestOccultThenPurgeKeepsSharedPayload(t *testing.T) {
	e, _ := newDiskBlobEnv(t)
	first := e.append(t, "shared")
	for i := 0; i < 4; i++ {
		e.append(t, "filler")
	}
	second := e.append(t, "shared")

	occ := &OccultDescriptor{URI: "ledger://test", JSN: first.JSN}
	ms := sig.NewMultiSig(occ.Digest())
	ms.SignWith(e.dba)
	if _, err := e.ledger.Occult(occ, ms); err != nil {
		t.Fatal(err)
	}
	purge := &PurgeDescriptor{URI: "ledger://test", Point: second.JSN, ErasePayloads: true}
	ms = sig.NewMultiSig(purge.Digest())
	ms.SignWith(e.dba)
	ms.SignWith(e.client)
	if _, err := e.ledger.Purge(purge, ms); err != nil {
		t.Fatal(err)
	}
	if got, err := e.ledger.GetPayload(second.JSN); err != nil || string(got) != "shared" {
		t.Fatalf("payload of the live journal after occult+purge of its twin: %q, %v", got, err)
	}
}

func TestAppendRejectsOversizedPayload(t *testing.T) {
	e := newEnv(t, nil)
	req := &journal.Request{
		LedgerURI: "ledger://test",
		Type:      journal.TypeNormal,
		Payload:   make([]byte, streamfs.MaxRecordSize+1),
		Nonce:     1,
	}
	if err := req.Sign(e.client); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Append(req); !errors.Is(err, journal.ErrBadRequest) {
		t.Fatalf("append of a %d-byte payload: %v", len(req.Payload), err)
	}
}
