// Command ledgerbench is the repository's benchmark: client-observed,
// verification-included cost of a ledgerdb-server launched as a separate
// process (end-to-end metrics, -trace 0), and a span-traced in-process
// replay of the same generated traffic that attributes time to layers
// (per-layer metrics, -trace 1). See README.md.
//
// It is started through run.sh, which builds it and the server:
//
//	bash ledgerbench/run.sh --workload proof_read --seed 1 --seconds 12 --trace 0
//	bash ledgerbench/run.sh --all --repeat 2
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract of the last stdout line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef is one metric declaration in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads: the
// declared metrics are the single source of names, units and bounds.
type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// header describes the host and run; it leads every detail report so a
// number is never separated from the machine that produced it.
type header struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Clients    int    `json:"clients"`
	Loop       string `json:"loop"`
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// selectMetrics builds the result metrics from measured values, insisting that
// every declared metric was measured: a silent gap would read as a pass.
func selectMetrics(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runOne runs one workload in one mode, writes its detail report and
// returns its result line.
func runOne(w Workload, seed int64, trace bool, cfg config, bf *benchmarkFile, root string) (*resultLine, error) {
	hdr := header{
		Workload: w.Name, Why: w.Why, Seed: seed, Seconds: cfg.seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: gitCommit(root), Clients: clientCount(), Loop: "closed",
	}
	var (
		result    any
		got       map[string]float64
		line      resultLine
		defs, ext = bf.EndToEnd, ".e2e.json"
	)
	if trace {
		hdr.Clients = 1
		defs, ext = bf.PerLayer, ".layers.json"
		tr, err := runTraced(w, seed, cfg)
		if err != nil {
			return nil, err
		}
		result, got, line.Attempted, line.Failed = tr, tr.Metrics, tr.Attempted, tr.Failed
	} else {
		res, err := runE2E(w, seed, cfg)
		if err != nil {
			return nil, err
		}
		result, got, line.Attempted, line.Failed = res, res.Metrics, res.Attempted, res.Failed
	}
	var err error
	if line.Metrics, err = selectMetrics(defs, got); err != nil {
		return nil, err
	}
	line.Correct = line.Failed == 0
	report := map[string]any{"header": hdr, "result": result, "claim": nil}
	return &line, writeJSONFile(filepath.Join(cfg.outDir, w.Name+ext), report)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ledgerbench: "+format+"\n", args...)
	runCleanups()
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "workload name (see -list)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics against a child process; 1 = per-layer metrics from the traced in-process run")
	all := flag.Bool("all", false, "run every workload as -repeat full sets and compare the sets")
	repeat := flag.Int("repeat", 2, "number of full sets with -all")
	list := flag.Bool("list", false, "list workloads and exit")
	root := flag.String("root", ".", "repository root (holds BENCHMARK.json)")
	serverBin := flag.String("server", ".bench_build/ledgerdb-server", "built ledgerdb-server binary")
	dataRoot := flag.String("data", "", "parent of the per-run data dirs (default: .bench_build/data under -root); its file system sets the fsync cost")
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.Name, w.Why)
		}
		return
	}
	bf, err := loadBenchmarkFile(*root)
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		serverBin: *serverBin,
		tmpRoot:   filepath.Join(absRoot, ".bench_build", "data"),
		outDir:    filepath.Join(absRoot, "ledgerbench", "out"),
		seconds:   *seconds,
	}
	if *dataRoot != "" {
		cfg.tmpRoot = *dataRoot
	}
	for _, d := range []string{cfg.tmpRoot, cfg.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	// Child and temp dir die with the harness on every exit path.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "ledgerbench: %v: stopping server and removing data dir\n", s)
		runCleanups()
		os.Exit(130)
	}()

	if *all {
		if err := runSets(*repeat, *seed, cfg, bf, absRoot); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fatalf("unknown workload %q (try -list)", *workload)
	}
	line, err := runOne(w, *seed, *trace != 0, cfg, bf, absRoot)
	if err != nil {
		// A gate or set-up failure prints no metrics at all.
		fatalf("%s: %v (server log: %s)", w.Name, err, filepath.Join(cfg.outDir, w.Name+".server.log"))
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	runCleanups()
}
