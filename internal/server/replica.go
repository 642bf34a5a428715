// Replication endpoints: offset-addressed stream pulls serving sealed
// segment frames, and self-contained offline proof bundles. Both are
// read-only and safe to serve from primaries and followers alike — a
// follower re-serving /v1/replica/pull is how chained (fan-out)
// replication topologies compose.
package server

import (
	"fmt"
	"net/http"
	"strconv"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/replica"
)

// Per-pull ceilings, enforced server-side regardless of what the client
// asks for: one frame stays well under the decoder's hard caps so a
// lagging follower catches up in bounded memory.
const (
	maxPullRecords = 4096
	maxPullBytes   = 4 << 20
)

// handleReplicaPull answers GET /v1/replica/pull?stream=S&from=N&max=M
// with one sealed SegmentFrame. An out-of-range from is not an error:
// the frame comes back empty with the stream's Base/Len, which is
// exactly how a follower discovers purge gaps and its own lag.
func (s *Server) handleReplicaPull(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	q := r.URL.Query()
	stream := q.Get("stream")
	switch stream {
	case ledger.StreamJournals, ledger.StreamDigests, ledger.StreamBlocks, ledger.StreamSurvival:
	default:
		return nil, fmt.Errorf("%w: unknown stream %q", journal.ErrBadRequest, stream)
	}
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad from %q", journal.ErrBadRequest, q.Get("from"))
	}
	max := maxPullRecords
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: bad max %q", journal.ErrBadRequest, v)
		}
		if n > 0 && n < max {
			max = n
		}
	}
	recs, base, size, err := s.Ledger.ReadStreamRange(stream, from, max, maxPullBytes)
	if err != nil {
		return nil, err
	}
	f := &replica.SegmentFrame{Stream: stream, Base: base, Len: size, Offset: from, Records: recs}
	f.Seal()
	return &Envelope{Frame: b64(f.EncodeBytes())}, nil
}

// handleBundle answers GET /v1/bundle/{jsn}?payload=1 with a
// self-contained ProofBundle: record, fam path, anchored checkpoint,
// and (when the ledger holds a later time anchor) the TSA when-chain —
// everything VerifyBundle needs with zero network access.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) (*Envelope, error) {
	jsn, err := pathJSN(r)
	if err != nil {
		return nil, err
	}
	return proofReply(s.Ledger.ExportBundle(jsn, r.URL.Query().Get("payload") == "1"))
}

// health populates the replication fields every /healthz and /readyz
// reply carries.
func (s *Server) health(env *Envelope) *Envelope {
	if s.Ledger == nil {
		return env
	}
	gen, jsn := s.Ledger.Generation(), s.Ledger.Size()
	watermark := jsn
	if info, ok := s.Ledger.ReplicaStatus(); ok {
		watermark = info.CheckpointJSN
	}
	env.Generation, env.Jsn, env.Watermark = &gen, &jsn, &watermark
	return env
}
