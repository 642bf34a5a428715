package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/sig"
)

const (
	benchURI = "ledger://ledgerbench"
	// warmup precedes every measured window: connections are open, the
	// index has caught up, segment handles and pools are warm.
	warmup = time.Second
	// reps is how many times a run sets the system up from nothing and
	// measures it; --seconds is split evenly over the reps.
	reps = 3
	// slice is the unit of measurement. A repetition's window is a row
	// of slices, each measured on its own (latencies, calls, CPU of both
	// processes, reply bytes), and every timing metric is the median over
	// all slices of the run. This host has noisy-neighbour episodes that
	// slow everything for a second or several: a total over the window
	// takes them in in proportion, the median slice does not see them
	// until they cover half the run.
	slice = time.Second
	// gateSamples receipts are re-verified after a restart and after
	// the measured window.
	gateSamples = 200
	// preloadBatch is the AppendBatch size of set-up traffic.
	preloadBatch = 256
)

// setupConns is how many connections the preload uses: min(nproc, 4).
func setupConns() int { return min(runtime.NumCPU(), 4) }

// clientCount is how many closed-loop clients the measured window runs:
// half of setupConns, at least one. A call keeps a client thread busy
// (signing, verifying) or a server thread busy, and verification costs a
// client more CPU than the proof costs the server; with as many clients
// as cores the server has no core of its own, and the window measures
// how the host's scheduler shares two cores among three busy threads.
func clientCount() int { return max(1, setupConns()/2) }

// config is what a run needs from the command line.
type config struct {
	serverBin string // built ledgerdb-server
	tmpRoot   string // parent of the per-run data dirs
	outDir    string // server logs, detail reports, traces
	seconds   int
}

// env is one running system under test with its pinned client.
type env struct {
	dir     string
	logPath string
	srv     *child
	root    *client.Client
	view    *ledgerView
	reopen  time.Duration // exec -> ready of the last restart
	rmDir   func()
}

func (e *env) close() {
	e.srv.stop()
	e.rmDir()
}

// newClient builds the member client for a server and pins its keys via
// trust-on-first-use discovery, once.
func newClient(baseURL string, seed int64, rt http.RoundTripper, sharded bool) (*client.Client, error) {
	cl := &client.Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Transport: rt},
		Key:     sig.GenerateDeterministic(fmt.Sprintf("ledgerbench/member/%d", seed)),
		URI:     benchURI,
	}
	lsp, err := cl.DiscoverLSP()
	if err != nil {
		return nil, fmt.Errorf("discover LSP key: %w", err)
	}
	cl.LSP = lsp
	if sharded {
		if cl.Coordinator, err = cl.DiscoverCoordinator(); err != nil {
			return nil, fmt.Errorf("discover coordinator key: %w", err)
		}
	}
	return cl, nil
}

// perClient derives one worker's client: a clone (shared nonce counter)
// with its own single keep-alive connection behind the byte counter.
func (e *env) perClient() *client.Client {
	cl := e.root.Clone()
	cl.HTTP = &http.Client{Transport: &countingTransport{inner: newKeepAliveTransport()}}
	return cl
}

// preloadOps is the seeded set-up traffic: batches until n journals are
// in, the first clueSpace of them one per clue so that every clue has a
// version and no clue proof or query of the run can come back empty.
func preloadOps(w Workload, seed int64) []Op {
	g := NewGenerator(w, seed, -1)
	var ops []Op
	for done := 0; done < w.Preload; done += preloadBatch {
		op := g.Batch(min(preloadBatch, w.Preload-done))
		for j := range op.Clues {
			if done+j < clueSpace {
				op.Clues[j] = done + j
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// probeEvery is how many preload batches the first connection sends
// between two host-speed probes.
const probeEvery = 2

// preload commits the set-up journals over n connections, probing the
// host's speed along the way.
func preload(root *client.Client, w Workload, view *ledgerView, seed int64, n int, host *hostSpeed) error {
	ops := preloadOps(w, seed)
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		go func(c int) {
			ex := &executor{cl: root.Clone(), w: w, view: view}
			ex.cl.HTTP = &http.Client{Transport: newKeepAliveTransport()}
			for i := c; i < len(ops); i += n {
				if c == 0 && i/n%probeEvery == 0 {
					host.probe()
				}
				if err := ex.do(ops[i]); err != nil {
					errs <- fmt.Errorf("preload batch %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < n; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setup brings one system up: launch, pin keys, preload.
func setup(w Workload, seed int64, cfg config, rep int, host *hostSpeed) (*env, error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{
		dir:     dir,
		logPath: filepath.Join(cfg.outDir, w.Name+".server.log"),
		view:    &ledgerView{sharded: w.Shards > 1},
	}
	e.rmDir = onExit(func() { _ = os.RemoveAll(dir) }) // scratch data; nothing to do if it fails
	if rep == 0 {
		_ = os.Remove(e.logPath) // start each run's log afresh; absent is fine
	}
	if e.srv, _, err = startServer(cfg.serverBin, dir, e.logPath, w.Shards); err != nil {
		e.rmDir()
		return nil, err
	}
	if e.root, err = newClient(e.srv.baseURL, seed, newKeepAliveTransport(), w.Shards > 1); err == nil {
		err = preload(e.root, w, e.view, seed, setupConns(), host)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// restart SIGKILLs the server, reopens it on the same directory, pins
// the new process's keys and re-proves sampled receipts acknowledged
// before the kill (the durability gate).
func (e *env) restart(w Workload, seed int64, cfg config) (err error) {
	e.srv.stop()
	if e.srv, e.reopen, err = startServer(cfg.serverBin, e.dir, e.logPath, w.Shards); err != nil {
		return fmt.Errorf("reopen after SIGKILL: %w", err)
	}
	// The server draws a fresh LSP key per process: pin again.
	if e.root, err = newClient(e.srv.baseURL, seed, newKeepAliveTransport(), w.Shards > 1); err != nil {
		return err
	}
	if err := reverifySample(e.root, w, e.view, seed); err != nil {
		return fmt.Errorf("receipt acknowledged before SIGKILL no longer proves: %w", err)
	}
	return nil
}

// reverifySample re-proves gateSamples seeded receipts.
func reverifySample(cl *client.Client, w Workload, view *ledgerView, seed int64) error {
	ex := &executor{cl: cl, w: w, view: view}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < gateSamples; i++ {
		if err := ex.reverify(view.receiptAt(rng.Uint64())); err != nil {
			return err
		}
	}
	return nil
}

// distinctKinds lists the kinds a workload issues, in schedule order.
func distinctKinds(w Workload) []Kind {
	var seen [nKinds]bool
	var out []Kind
	for _, k := range w.Pattern {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// tamperGate proves verification is on: one reply of every kind the
// workload uses is bit-flipped in transit and the client must refuse it.
func tamperGate(root *client.Client, w Workload, view *ledgerView, seed int64) error {
	tt := &tamperTransport{inner: newKeepAliveTransport()}
	cl := root.Clone()
	cl.HTTP = &http.Client{Transport: tt}
	ex := &executor{cl: cl, w: w, view: view}
	g := NewGenerator(w, seed, -2)
	for _, k := range distinctKinds(w) {
		before := tt.flipped
		err := ex.do(g.Of(k))
		var te *client.TamperError
		switch {
		case tt.flipped == before:
			return fmt.Errorf("tamper gate: %s reply carried no blob to flip (err: %v)", k, err)
		case err == nil:
			return fmt.Errorf("tamper gate: client ACCEPTED a bit-flipped %s reply", k)
		case !errors.As(err, &te):
			return fmt.Errorf("tamper gate: %s failed, but not as tamper evidence: %w", k, err)
		}
	}
	return nil
}

// worker is one closed-loop client.
type worker struct {
	ex  *executor
	gen *Generator
	// lat holds the verified-call latencies in ms per kind since the
	// last harvest; failed counts calls that errored or verified the
	// wrong thing.
	lat       [nKinds][]float64
	attempted int
	failed    int
	firstErr  error
}

// loop issues ops back to back until the deadline. Each op starts only
// after the previous one returned verified: a ledger member blocks on
// pi_s before its next step.
func (wk *worker) loop(until time.Time, record bool) {
	for time.Now().Before(until) {
		op := wk.gen.Next()
		t0 := time.Now()
		err := wk.ex.do(op)
		d := time.Since(t0)
		if !record {
			continue
		}
		wk.attempted++
		if err != nil {
			wk.failed++
			if wk.firstErr == nil {
				wk.firstErr = fmt.Errorf("%s: %w", op.Kind, err)
			}
			continue
		}
		wk.lat[op.Kind] = append(wk.lat[op.Kind], float64(d)/float64(time.Millisecond))
	}
}

// kindStats is the per-kind latency row of the detail report.
type kindStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	// Tail is the highest percentile with >= 10 samples beyond it.
	TailPct float64 `json:"tail_percentile,omitempty"`
	Tail    float64 `json:"tail_ms,omitempty"`
}

// e2eResult is everything an untraced run measured.
type e2eResult struct {
	// Metrics are the medians of Slices (timings) and of Reps (set-up,
	// memory, disk).
	Metrics   map[string]float64   `json:"metrics"`
	Reps      []map[string]float64 `json:"reps"`
	Slices    []map[string]float64 `json:"slices"`
	PerKind   map[string]kindStats `json:"latency_by_kind"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	FirstErr  string               `json:"first_error,omitempty"`
	Clients   int                  `json:"clients"`
	Stale     int                  `json:"stale_fold_retries"`
	FSType    string               `json:"data_dir_fs"`

	lat [nKinds][]float64 // all slices pooled, for PerKind
}

// measureRep measures one repetition on a system that set-up has just
// brought up: tamper gate, warm-up, n measured slices, receipt gate. It
// appends the slices' metrics to res.Slices and returns the repetition's
// own (memory, disk). A gate failure is an error: no metrics.
func measureRep(e *env, w Workload, seed int64, rep, n int, res *e2eResult) (map[string]float64, error) {
	if err := tamperGate(e.root, w, e.view, seed); err != nil {
		return nil, err
	}
	workers := make([]*worker, res.Clients)
	transports := make([]*countingTransport, res.Clients)
	for i := range workers {
		cl := e.perClient()
		transports[i] = cl.HTTP.Transport.(*countingTransport)
		workers[i] = &worker{
			ex: &executor{cl: cl, w: w, view: e.view},
			// Each repetition continues nowhere: it gets its own stream.
			gen: NewGenerator(w, seed, rep*res.Clients+i),
		}
	}
	runAll := func(d time.Duration, record bool) {
		until := time.Now().Add(d)
		var wg sync.WaitGroup
		for _, wk := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk.loop(until, record)
			}()
		}
		wg.Wait()
	}
	respBytes := func() (n uint64) {
		for _, t := range transports {
			n += t.bytes.Load()
		}
		return n
	}
	runAll(warmup, false)
	// Set-up leaves tens of thousands of dirty and deleted files behind
	// (the blob store keeps one file per payload); their writeback
	// would otherwise land at a random point of the window.
	syscall.Sync()

	for s := 0; s < n; s++ {
		var host hostSpeed
		host.probe()
		bytes0 := respBytes()
		srvCPU0, err := e.srv.cpuTime()
		if err != nil {
			return nil, err
		}
		cliCPU0 := selfCPU()
		t0 := time.Now()
		runAll(slice, true)
		elapsed := time.Since(t0).Seconds()
		cliCPU := selfCPU() - cliCPU0
		srvCPU1, err := e.srv.cpuTime()
		if err != nil {
			return nil, err
		}
		bytes := respBytes() - bytes0
		host.probe()

		var all []float64
		for _, wk := range workers {
			for k := range wk.lat {
				all = append(all, wk.lat[k]...)
				res.lat[k] = append(res.lat[k], wk.lat[k]...)
				wk.lat[k] = wk.lat[k][:0]
			}
		}
		if len(all) == 0 {
			continue // every call of the slice failed; the counts below say so
		}
		sort.Float64s(all)
		ok := float64(len(all))
		// Time-derived values are divided by the host's slowdown over
		// the slice (hostspeed.go); raw = reported * host_slowdown.
		slow := host.slowdown()
		res.Slices = append(res.Slices, map[string]float64{
			"host_slowdown":        slow,
			"probe_before_ms":      host.probes[0] / float64(time.Millisecond),
			"probe_after_ms":       host.probes[1] / float64(time.Millisecond),
			"throughput_ops_s":     ok / elapsed * slow,
			"op_p50_ms":            percentile(all, 50) / slow,
			"op_p99_ms":            percentile(all, 99) / slow,
			"server_cpu_ms_per_op": float64(srvCPU1-srvCPU0) / float64(time.Millisecond) / ok / slow,
			"client_cpu_ms_per_op": float64(cliCPU) / float64(time.Millisecond) / ok / slow,
			"resp_bytes_per_op":    float64(bytes) / ok,
		})
	}
	for _, wk := range workers {
		res.Attempted += wk.attempted
		res.Failed += wk.failed
		res.Stale += wk.ex.staleRetries
		if wk.firstErr != nil && res.FirstErr == "" {
			res.FirstErr = wk.firstErr.Error()
		}
	}

	// Post-window gate: what the run was told is committed must prove.
	if err := reverifySample(e.root, w, e.view, seed+1); err != nil {
		return nil, fmt.Errorf("post-run receipt check: %w", err)
	}
	rss, err := e.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"server_peak_rss_mb":       rss,
		"disk_bytes_per_user_byte": float64(disk) / float64(e.view.userBytes.Load()),
	}, nil
}

// medians reduces a list of measurements to the median of every metric.
func medians(into map[string]float64, rows []map[string]float64) {
	for name := range rows[0] {
		var v []float64
		for _, m := range rows {
			v = append(v, m[name])
		}
		into[name] = median(v)
	}
}

// runE2E is one untraced run: reps repetitions of seconds/reps slices.
// Timing metrics are the median over all slices, set-up, memory and disk
// the median over the repetitions. A repetition sets the system up from
// nothing — except on Restart workloads, whose window never writes: they
// preload once, and every repetition SIGKILLs and reopens the same
// directory, with the one preload time counted in each repetition's
// setup_s.
func runE2E(w Workload, seed int64, cfg config) (*e2eResult, error) {
	res := &e2eResult{Clients: clientCount(), FSType: fsTypeOf(cfg.tmpRoot)}
	slices := max(1, int(time.Duration(cfg.seconds)*time.Second/slice)/reps)
	var e *env
	var preloadS float64
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	// timed runs one set-up step and returns its duration in seconds,
	// divided by the host's slowdown while it ran.
	timed := func(step func(host *hostSpeed) error) (float64, error) {
		var host hostSpeed
		host.probe()
		t0 := time.Now()
		err := step(&host)
		d := time.Since(t0).Seconds()
		host.probe()
		return d / host.slowdown(), err
	}
	for rep := 0; rep < reps; rep++ {
		var err error
		if e == nil {
			preloadS, err = timed(func(host *hostSpeed) (err error) {
				e, err = setup(w, seed, cfg, rep, host)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setupS := preloadS
		if w.Restart {
			restartS, err := timed(func(*hostSpeed) error { return e.restart(w, seed, cfg) })
			if err != nil {
				return nil, fmt.Errorf("repetition %d: %w", rep+1, err)
			}
			setupS += restartS
		}
		m, err := measureRep(e, w, seed, rep, slices, res)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep+1, err)
		}
		m["setup_s"] = setupS
		if w.Restart {
			m["reopen_s"] = e.reopen.Seconds()
		} else {
			e.close()
			e = nil
		}
		res.Reps = append(res.Reps, m)
	}
	if len(res.Slices) == 0 {
		return nil, fmt.Errorf("no call verified in the run (first error: %s)", res.FirstErr)
	}
	res.Metrics = make(map[string]float64)
	medians(res.Metrics, res.Reps)
	medians(res.Metrics, res.Slices)
	res.PerKind = make(map[string]kindStats)
	for k, lat := range res.lat {
		if len(lat) == 0 {
			continue
		}
		s := sortedCopy(lat)
		ks := kindStats{Count: len(s), P50: percentile(s, 50)}
		if p := tailPercentile(len(s)); p > 0 {
			ks.TailPct, ks.Tail = p, percentile(s, p)
		}
		res.PerKind[Kind(k).String()] = ks
	}
	return res, nil
}
