package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ledgerdb/internal/client"
)

// tracedOps is the fixed length of a traced run. A fixed op count from
// one client (not a time window) is what makes the counts repeat.
const tracedOps = 5000

// kindLayers is the per-kind breakdown of the detail report: where a
// call of that kind spent its time, per call.
type kindLayers struct {
	Count       int     `json:"count"`
	TotalUS     float64 `json:"client_observed_us"`
	ClientUS    float64 `json:"client_self_us"`
	TransportUS float64 `json:"transport_self_us"`
	RouterUS    float64 `json:"router_self_us"`
	FanoutUS    float64 `json:"fanout_self_us"`
	ServerUS    float64 `json:"server_handle_us"`
	RespBytes   float64 `json:"resp_bytes"`
}

// tracedResult is everything a -trace 1 run measured.
type tracedResult struct {
	Metrics       map[string]float64    `json:"metrics"`
	ByKind        map[string]kindLayers `json:"by_kind"`
	Attempted     int                   `json:"attempted"`
	Failed        int                   `json:"failed"`
	FirstErr      string                `json:"first_error,omitempty"`
	UntracedWallS float64               `json:"untraced_wall_s"`
	TracedWallS   float64               `json:"traced_wall_s"`
	Spans         int                   `json:"spans"`
	TraceFile     string                `json:"trace_file"`
}

// pass is one in-process execution of the fixed op sequence.
type pass struct {
	w         Workload
	st        *stack
	cl        *client.Client
	view      *ledgerView
	dir       string
	rmDir     func()
	wall      time.Duration
	fs        fsSnapshot // stream I/O during the measured ops
	attempted int
	failed    int
	firstErr  error
	stale     int
	proofs    int
}

func (p *pass) close() {
	p.st.close()
	p.rmDir()
}

// runPass stands the topology up in-process, runs set-up and the gates
// exactly as an untraced run does, then issues the first ops operations of
// client 0's stream from one client. With tr == nil nothing is wrapped: that pass is the
// denominator of trace.overhead_ratio.
func runPass(w Workload, seed int64, cfg config, tr *Tracer, ops int) (_ *pass, err error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.Name+"-inproc-")
	if err != nil {
		return nil, err
	}
	p := &pass{w: w, dir: dir, view: &ledgerView{sharded: w.Shards > 1}}
	p.rmDir = onExit(func() { _ = os.RemoveAll(dir) }) // scratch data
	defer func() {
		if err != nil {
			if p.st != nil {
				p.st.close()
			}
			p.rmDir()
		}
	}()
	open := func() error {
		if p.st, err = newStack(w, dir, tr); err != nil {
			return err
		}
		p.cl, err = tracedClient(p.st.baseURL, seed, w, tr)
		return err
	}
	if err := open(); err != nil {
		return nil, err
	}
	// One connection: set-up order, and so the ledger's content, is the
	// same on every run. The traced run reports no set-up time, so the
	// host-speed probes go nowhere.
	if err := preload(p.cl, w, p.view, seed, 1, new(hostSpeed)); err != nil {
		return nil, err
	}
	if w.Restart {
		p.st.close()
		if err := open(); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		if err := reverifySample(p.cl, w, p.view, seed); err != nil {
			return nil, fmt.Errorf("receipt acknowledged before the reopen no longer proves: %w", err)
		}
	}
	if err := tamperGate(p.cl, w, p.view, seed); err != nil {
		return nil, err
	}

	ex := &executor{cl: p.cl, w: w, view: p.view}
	gen := NewGenerator(w, seed, 0)
	var fs0 fsSnapshot
	if tr != nil {
		fs0 = p.st.fs.snapshot()
		tr.on.Store(true)
	}
	t0 := time.Now()
	for i := 1; i <= ops; i++ {
		op := gen.Next()
		if op.Kind == KProof {
			p.proofs++
		}
		if tr != nil {
			err = tr.call(int32(i), layerClient+"."+op.Kind.String(), func() error { return ex.do(op) })
		} else {
			err = ex.do(op)
		}
		p.attempted++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
			}
		}
	}
	p.wall = time.Since(t0)
	if tr != nil {
		tr.on.Store(false)
		p.fs = p.st.fs.snapshot().sub(fs0)
	}
	p.stale = ex.staleRetries
	if err := reverifySample(p.cl, w, p.view, seed+1); err != nil {
		return nil, fmt.Errorf("post-run receipt check: %w", err)
	}
	return p, nil
}

// layerMetrics turns the spans of the measured ops into per-layer
// numbers. Where spans nest without overlap the self times of one op
// sum to its client-observed time, so nothing is hidden between layers:
// client.self + transport.self + router.self + fanout.self +
// server.handle = trace.op_mean. Concurrent fan-out children are each
// counted in full, so on sharded queries the sum can exceed wall time.
func layerMetrics(spans []Span, ops int) (map[string]float64, map[string]kindLayers) {
	self := selfTimes(spans)
	kindOf := make(map[int32]string) // op id -> kind
	for _, s := range spans {
		if s.Op > 0 && layerOf(s.Name) == layerClient {
			kindOf[s.Op] = s.Name[len(layerClient)+1:]
		}
	}
	layerNS := make(map[string]float64)
	byKind := make(map[string]kindLayers)
	var total, respBytes, fanoutCalls float64
	var durs []float64
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		layer := layerOf(s.Name)
		ns := float64(self[s.ID])
		layerNS[layer] += ns
		k := byKind[kindOf[s.Op]]
		switch layer {
		case layerClient:
			d := float64(s.End - s.Start)
			total += d
			durs = append(durs, d/1e3)
			k.Count++
			k.TotalUS += d
			k.ClientUS += ns
		case layerTransport:
			respBytes += float64(s.Bytes)
			k.RespBytes += float64(s.Bytes)
			k.TransportUS += ns
		case layerRouter:
			k.RouterUS += ns
		case layerFanout:
			fanoutCalls++
			k.FanoutUS += ns
		case layerServer:
			k.ServerUS += ns
		}
		byKind[kindOf[s.Op]] = k
	}
	for name, k := range byKind {
		n := float64(k.Count) * 1e3 // ns totals -> us per call
		k.TotalUS, k.ClientUS, k.TransportUS = k.TotalUS/n, k.ClientUS/n, k.TransportUS/n
		k.RouterUS, k.FanoutUS, k.ServerUS = k.RouterUS/n, k.FanoutUS/n, k.ServerUS/n
		k.RespBytes /= float64(k.Count)
		byKind[name] = k
	}
	n := float64(ops)
	return map[string]float64{
		"client.self_us":       layerNS[layerClient] / n / 1e3,
		"transport.self_us":    layerNS[layerTransport] / n / 1e3,
		"transport.resp_bytes": respBytes / n,
		"server.handle_us":     layerNS[layerServer] / n / 1e3,
		"router.self_share":    layerNS[layerRouter] / total,
		"router.fanout_share":  layerNS[layerFanout] / total,
		"router.fanout_calls":  fanoutCalls / n,
		"trace.op_mean_us":     total / n / 1e3,
		"trace.op_p50_us":      median(durs),
	}, byKind
}

// runTraced is one -trace 1 run: an untraced in-process pass, the same
// ops traced, then direct timings of the leaf layers on the traced
// engine. Gate failures are errors: no metrics.
func runTraced(w Workload, seed int64, cfg config) (*tracedResult, error) {
	plain, err := runPass(w, seed, cfg, nil, tracedOps)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	plain.close()

	tr := newTracer()
	p, err := runPass(w, seed, cfg, tr, tracedOps)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	defer p.close()

	spans := tr.snapshot()
	metrics, byKind := layerMetrics(spans, p.attempted)
	metrics["server.shed_count"] = float64(tr.shed.Load())
	metrics["server.idem_hits"] = float64(tr.idemHits.Load())
	metrics["shard.global_retry_ratio"] = 0
	if w.Shards > 1 && p.proofs > 0 {
		metrics["shard.global_retry_ratio"] = float64(p.stale) / float64(p.proofs)
	}
	metrics["streamfs.write_calls"] = float64(p.fs.writeCalls)
	metrics["streamfs.write_bytes"] = float64(p.fs.writeBytes)
	metrics["streamfs.fsync_calls"] = float64(p.fs.fsyncCalls)
	metrics["streamfs.read_calls"] = float64(p.fs.readCalls)
	metrics["streamfs.read_bytes"] = float64(p.fs.readBytes)
	metrics["trace.overhead_ratio"] = p.wall.Seconds() / plain.wall.Seconds()

	leaf, err := leafMetrics(p, seed)
	if err != nil {
		return nil, fmt.Errorf("leaf timings: %w", err)
	}
	for k, v := range leaf {
		metrics[k] = v
	}

	traceFile := filepath.Join(cfg.outDir, w.Name+".trace.json")
	if err := writeJSONFile(traceFile, map[string]any{"workload": w.Name, "seed": seed, "spans": spans}); err != nil {
		return nil, err
	}
	res := &tracedResult{
		Metrics: metrics, ByKind: byKind,
		Attempted: p.attempted, Failed: p.failed,
		UntracedWallS: plain.wall.Seconds(), TracedWallS: p.wall.Seconds(),
		Spans: len(spans), TraceFile: traceFile,
	}
	if p.firstErr != nil {
		res.FirstErr = p.firstErr.Error()
	}
	return res, nil
}
