package ledger

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tsa"
)

// TestAdmittedPayloadSurvivesErasure pins the dedupe/erase race: a
// request is admitted (its payload put dedupes against the blob an
// earlier journal with the same content already stored), then an erasure
// drops that blob because no applied journal references it any more,
// and only then does the admitted request sequence and apply. Its
// payload must still be readable.
func TestAdmittedPayloadSurvivesErasure(t *testing.T) {
	for name, erase := range erasures {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, func(c *Config) { c.PipelineDepth = 8 })
			defer e.ledger.Close()
			twin := e.append(t, "twin payload")
			e.append(t, "filler")
			adm, err := e.ledger.admitOne(e.request(t, "twin payload"), false)
			if err != nil {
				t.Fatal(err)
			}
			if err := erase(e, twin.JSN); err != nil {
				t.Fatal(err)
			}
			rc, err := e.ledger.appendPipelined(adm)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := e.ledger.GetPayload(rc.JSN); err != nil || string(got) != "twin payload" {
				t.Fatalf("payload of jsn %d admitted before the erasure of its twin: %q, %v", rc.JSN, got, err)
			}
		})
	}
}

// erasures are the three ways a payload blob gets physically erased,
// each applied to the journal at jsn.
var erasures = map[string]func(e *testEnv, jsn uint64) error{
	"occult": func(e *testEnv, jsn uint64) error {
		desc := &OccultDescriptor{URI: "ledger://test", JSN: jsn}
		ms := sig.NewMultiSig(desc.Digest())
		ms.SignWith(e.dba)
		_, err := e.ledger.Occult(desc, ms)
		return err
	},
	"async occult + reorganize": func(e *testEnv, jsn uint64) error {
		desc := &OccultDescriptor{URI: "ledger://test", JSN: jsn, Async: true}
		ms := sig.NewMultiSig(desc.Digest())
		ms.SignWith(e.dba)
		if _, err := e.ledger.Occult(desc, ms); err != nil {
			return err
		}
		_, err := e.ledger.Reorganize()
		return err
	},
	"purge": func(e *testEnv, jsn uint64) error {
		desc := &PurgeDescriptor{URI: "ledger://test", Point: jsn + 1, ErasePayloads: true}
		ms := sig.NewMultiSig(desc.Digest())
		ms.SignWith(e.dba)
		ms.SignWith(e.client)
		_, err := e.ledger.Purge(desc, ms)
		return err
	},
}

// deleteHook runs before every Delete reaches the wrapped store.
type deleteHook struct {
	streamfs.BlobStore
	before func(keys []hashutil.Digest)
}

func (h *deleteHook) Delete(keys ...hashutil.Digest) error {
	h.before(keys)
	return h.BlobStore.Delete(keys...)
}

// TestAdmissionDuringEraseKeepsPayload narrows the same race to the
// erasure itself: admission runs while the erasure is inside
// Blobs.Delete, after the erase decision but before the blob is gone,
// so its put dedupes against bytes about to vanish. The erasure count
// must not move until the delete is done, or sequence would miss it.
func TestAdmissionDuringEraseKeepsPayload(t *testing.T) {
	for name, erase := range erasures {
		t.Run(name, func(t *testing.T) {
			payload := []byte("twin payload")
			var (
				adm      admitted
				admitErr error
				admitted bool
			)
			var e *testEnv
			hook := &deleteHook{before: func(keys []hashutil.Digest) {
				for _, k := range keys {
					if k == hashutil.Sum(payload) && !admitted {
						admitted = true
						adm, admitErr = e.ledger.admitOne(e.request(t, string(payload)), false)
					}
				}
			}}
			e = newEnv(t, func(c *Config) {
				hook.BlobStore = c.Blobs
				c.Blobs = hook
			})
			defer e.ledger.Close()
			twin := e.append(t, string(payload))
			e.append(t, "filler")
			if err := erase(e, twin.JSN); err != nil {
				t.Fatal(err)
			}
			if !admitted || admitErr != nil {
				t.Fatalf("admission inside Delete: ran %v, err %v", admitted, admitErr)
			}
			rc, err := e.ledger.appendPipelined(adm)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := e.ledger.GetPayload(rc.JSN); err != nil || string(got) != string(payload) {
				t.Fatalf("payload of jsn %d admitted during the erasure of its twin: %q, %v", rc.JSN, got, err)
			}
		})
	}
}

// TestWritesRefusedAfterClose: once Close has run, every write fails
// with ErrClosed and commits nothing, on a ledger opened with no
// write-path settings at all.
func TestWritesRefusedAfterClose(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "before close") // leaves a block pending, so CutBlock would commit
	authority := tsa.New("close", tsa.Options{Clock: e.cfg.Clock})
	ta, err := authority.Stamp(hashutil.Sum([]byte("close")))
	if err != nil {
		t.Fatal(err)
	}
	late := e.request(t, "after close")
	batch := []*journal.Request{e.request(t, "batch after close")}
	occult := &OccultDescriptor{URI: "ledger://test", JSN: 1}
	occultSigs := sig.NewMultiSig(occult.Digest())
	occultSigs.SignWith(e.dba)
	purge := &PurgeDescriptor{URI: "ledger://test", Point: 2}
	purgeSigs := sig.NewMultiSig(purge.Digest())
	purgeSigs.SignWith(e.dba)
	purgeSigs.SignWith(e.client)

	if err := e.ledger.Close(); err != nil {
		t.Fatal(err)
	}
	if !e.ledger.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	size, height := e.ledger.Size(), e.ledger.Height()
	writes := []struct {
		name string
		run  func() error
	}{
		{"Append", func() error { _, err := e.ledger.Append(late); return err }},
		{"AppendBatch", func() error { _, _, err := e.ledger.AppendBatch(batch); return err }},
		{"CutBlock", func() error { _, err := e.ledger.CutBlock(); return err }},
		{"AnchorTime", func() error { _, err := e.ledger.AnchorTime(ta); return err }},
		{"AnchorTimeWith", func() error { _, err := e.ledger.AnchorTimeWith(authority.Stamp); return err }},
		{"Purge", func() error { _, err := e.ledger.Purge(purge, purgeSigs); return err }},
		{"Occult", func() error { _, err := e.ledger.Occult(occult, occultSigs); return err }},
	}
	for _, w := range writes {
		if err := w.run(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", w.name, err)
		}
	}
	if e.ledger.Size() != size || e.ledger.Height() != height {
		t.Fatalf("writes after Close moved the ledger: size %d → %d, height %d → %d",
			size, e.ledger.Size(), height, e.ledger.Height())
	}
}

// TestSharedPayloadsSurviveConcurrentOccults drives the same race from
// many goroutines: every payload has one committed twin, writers append
// it again (single appends and batches) while an occulter erases the
// twins. Each occult moves the erasure count, so admissions that
// overlap one take the re-store path in sequence. Every journal that
// was not occulted must still serve its payload.
func TestSharedPayloadsSurviveConcurrentOccults(t *testing.T) {
	const twins, writers = 96, 4
	var clk atomic.Int64
	e := newEnv(t, func(c *Config) {
		c.PipelineDepth = 8
		c.BlockSize = 16
		c.Clock = func() int64 { return clk.Add(1) }
	})
	defer e.ledger.Close()
	payload := func(i int) string { return fmt.Sprintf("payload %d", i) }
	first := make([]uint64, twins)
	for i := range first {
		first[i] = e.append(t, payload(i)).JSN
	}
	reqs := make([][]*journal.Request, writers)
	for i := 0; i < twins; i++ {
		reqs[i%writers] = append(reqs[i%writers], e.request(t, payload(i)))
	}
	var (
		mu     sync.Mutex
		copies = make(map[uint64]string)
		wg     sync.WaitGroup
	)
	for _, rs := range reqs {
		wg.Add(1)
		go func(rs []*journal.Request) {
			defer wg.Done()
			for len(rs) > 0 {
				n := min(1+len(rs)%3, len(rs))
				var jsn uint64
				if n == 1 {
					rc, err := e.ledger.Append(rs[0])
					if err != nil {
						t.Error(err)
						return
					}
					jsn = rc.JSN
				} else {
					br, _, err := e.ledger.AppendBatch(rs[:n])
					if err != nil {
						t.Error(err)
						return
					}
					jsn = br.FirstJSN
				}
				mu.Lock()
				for k, req := range rs[:n] {
					copies[jsn+uint64(k)] = string(req.Payload)
				}
				mu.Unlock()
				rs = rs[n:]
			}
		}(rs)
	}
	for _, jsn := range first {
		desc := &OccultDescriptor{URI: "ledger://test", JSN: jsn}
		ms := sig.NewMultiSig(desc.Digest())
		ms.SignWith(e.dba)
		if _, err := e.ledger.Occult(desc, ms); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for jsn, want := range copies {
		if got, err := e.ledger.GetPayload(jsn); err != nil || string(got) != want {
			t.Fatalf("payload of jsn %d: %q, %v; want %q", jsn, got, err, want)
		}
	}
}
