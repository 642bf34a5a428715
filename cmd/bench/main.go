// Command bench regenerates every table and figure of the paper's
// evaluation (§VI) plus the §III-B attack analysis. Each subcommand maps
// to one experiment; see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured notes.
//
// Usage:
//
//	bench [-full] [-cpuprofile f] [-memprofile f] [-mutexprofile f] [experiment]
//
// Experiments: table1 table2 storage fig5 fig7 fig8a fig8b fig8p fig9a
// fig9b fig10 paraudit shards hotpath profile all.
//
// -full extends the size sweeps toward the paper's upper ends (slower).
//
// The profile flags wrap whichever experiment runs in the corresponding
// pprof collection; the `profile` pseudo-experiment drives the two
// hottest workloads (pipelined append and proof serving) long enough to
// make a useful flame graph. `hotpath` additionally writes the
// machine-readable BENCH_hotpath.json consumed by scripts/check.sh perf.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ledgerdb/internal/benchkit"
)

func main() {
	full := flag.Bool("full", false, "extend size sweeps (slower, closer to the paper's axes)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiment to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the run) to `file`")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to `file`")
	hotpathJSON := flag.String("hotpath-json", "BENCH_hotpath.json", "output `file` for the hotpath experiment's machine-readable results")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bench [-full] [-cpuprofile f] [-memprofile f] [-mutexprofile f] [experiment]\nexperiments: table1 table2 storage fig5 fig7 fig8a fig8b fig8p fig9a fig9b fig10 paraudit shards hotpath profile all (default all)\n")
	}
	flag.Parse()

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer func() {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fatalf("mutexprofile: %v", err)
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fatalf("mutexprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // surface only live + cumulative allocation sites
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	experiments := map[string]func() []*benchkit.Table{
		"table1":   func() []*benchkit.Table { return []*benchkit.Table{benchkit.Table1()} },
		"table2":   func() []*benchkit.Table { return []*benchkit.Table{benchkit.Table2()} },
		"fig5":     func() []*benchkit.Table { return []*benchkit.Table{benchkit.Fig5()} },
		"fig7":     func() []*benchkit.Table { return []*benchkit.Table{benchkit.Fig7()} },
		"fig8a":    func() []*benchkit.Table { return []*benchkit.Table{benchkit.Fig8a(*full)} },
		"fig8b":    func() []*benchkit.Table { return []*benchkit.Table{benchkit.Fig8b(*full)} },
		"fig8p":    func() []*benchkit.Table { return []*benchkit.Table{benchkit.Fig8PathLens(*full)} },
		"fig9a":    func() []*benchkit.Table { return []*benchkit.Table{benchkit.Fig9a(*full)} },
		"fig9b":    func() []*benchkit.Table { return []*benchkit.Table{benchkit.Fig9b(*full)} },
		"storage":  func() []*benchkit.Table { return []*benchkit.Table{benchkit.StorageTable()} },
		"paraudit": func() []*benchkit.Table { return []*benchkit.Table{benchkit.ParAudit(*full)} },
		"shards":   func() []*benchkit.Table { return []*benchkit.Table{benchkit.ShardScaling(*full)} },
		"fig10": func() []*benchkit.Table {
			return []*benchkit.Table{
				benchkit.Fig10a(*full), benchkit.Fig10b(*full),
				benchkit.Fig10c(*full), benchkit.Fig10d(*full),
			}
		},
		"hotpath": func() []*benchkit.Table {
			t, rep := benchkit.HotPath()
			f, err := os.Create(*hotpathJSON)
			if err != nil {
				fatalf("hotpath: %v", err)
			}
			defer f.Close()
			if err := rep.WriteJSON(f); err != nil {
				fatalf("hotpath: write %s: %v", *hotpathJSON, err)
			}
			t.Note += fmt.Sprintf("; machine-readable results written to %s", *hotpathJSON)
			return []*benchkit.Table{t}
		},
		"profile": func() []*benchkit.Table {
			return []*benchkit.Table{benchkit.ProfileWorkloads(*full)}
		},
	}

	order := []string{"table1", "storage", "fig5", "fig7", "fig8a", "fig8b", "fig8p", "fig9a", "fig9b", "fig10", "paraudit", "shards", "hotpath", "table2"}

	run := func(name string) {
		gen, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
		start := time.Now()
		for _, table := range gen() {
			table.Print(os.Stdout)
		}
		fmt.Printf("  (%s completed in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}

	if which == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(which)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
