package main

import (
	"fmt"
	"os"
	"slices"
)

// gap returns by what share of the best value the worst of v is worse,
// given the metric's direction.
func gap(def metricDef, v []float64) float64 {
	lo, hi := slices.Min(v), slices.Max(v)
	if def.Better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}

// runs holds one workload's result lines, one per run.
type runs []map[string]metricValue

func (r runs) values(name string, skip int) []float64 {
	var v []float64
	for i, m := range r {
		if i != skip {
			v = append(v, m[name].Value)
		}
	}
	return v
}

// agree reports whether every end-to-end metric stays within its bound
// across the runs, leaving run skip out (-1 = none).
func (r runs) agree(defs []metricDef, skip int) bool {
	for _, def := range defs {
		if gap(def, r.values(def.Name, skip)) > def.Bound {
			return false
		}
	}
	return true
}

// runSets is the repeatability check (-all -repeat N): every workload
// runs as N full sets, in alternating order so that no workload always
// follows the same neighbour, each set with its own seed. It prints how
// far the sets differ on every end-to-end metric and fails if runs of
// the same commit disagree by more than the metric's own regression
// bound — a bound the benchmark cannot hold against itself would reject
// innocent changes.
//
// On a shared host a noisy-neighbour episode can slow one whole run. A
// workload whose runs disagree therefore gets one tie-break run, and
// passes if dropping a single run (the same one for all metrics) leaves
// the rest in agreement; the dropped run is reported.
func runSets(repeat int, seed int64, cfg config, bf *benchmarkFile, root string) error {
	if repeat < 2 {
		return fmt.Errorf("-repeat must be at least 2 to compare sets")
	}
	results := make(map[string]runs)
	one := func(w Workload, seed int64, label string) error {
		fmt.Fprintf(os.Stderr, "%s: %s\n", label, w.Name)
		line, err := runOne(w, seed, false, cfg, bf, root)
		if err != nil {
			return fmt.Errorf("%s %s: %w", label, w.Name, err)
		}
		if !line.Correct {
			return fmt.Errorf("%s %s: %d of %d calls failed", label, w.Name, line.Failed, line.Attempted)
		}
		results[w.Name] = append(results[w.Name], line.Metrics)
		return nil
	}
	for set := 0; set < repeat; set++ {
		order := slices.Clone(workloads)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			if err := one(w, seed+int64(set), fmt.Sprintf("set %d/%d", set+1, repeat)); err != nil {
				return err
			}
		}
	}
	failed := 0
	for _, w := range workloads {
		dropped := -1
		if !results[w.Name].agree(bf.EndToEnd, -1) {
			if err := one(w, seed+int64(repeat), "tie-break"); err != nil {
				return err
			}
			for i := range results[w.Name] {
				if results[w.Name].agree(bf.EndToEnd, i) {
					dropped = i
					break
				}
			}
		}
		r := results[w.Name]
		fmt.Printf("%s (%d runs", w.Name, len(r))
		if dropped >= 0 {
			fmt.Printf(", run %d set aside as an outlier", dropped+1)
		}
		fmt.Println(")")
		for _, def := range bf.EndToEnd {
			v := r.values(def.Name, dropped)
			g := gap(def, v)
			verdict := "ok"
			if g > def.Bound {
				verdict = "EXCEEDS BOUND"
				failed++
			}
			fmt.Printf("  %-26s %-4s median %12.4f  runs differ by %5.1f%%  bound %4.0f%%  %s\n",
				def.Name, def.Unit, median(v), 100*g, 100*def.Bound, verdict)
		}
	}
	fmt.Println(`{"claim": null}`)
	if failed > 0 {
		return fmt.Errorf("%d metric/workload pairs differ between runs of the same commit by more than their bound", failed)
	}
	return nil
}
