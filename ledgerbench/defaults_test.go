package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The traced stack is only the same system as the child process if it
// uses the settings cmd/ledgerdb-server uses. This pins serverDefaults
// to the flag defaults in main.go and to the README that quotes them.
func TestServerDefaultsMatchMain(t *testing.T) {
	src, err := os.ReadFile("../cmd/ledgerdb-server/main.go")
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile(`flag\.\w+\("([\w-]+)", ([^,]+),`)
	got := map[string]string{}
	for _, m := range flagRE.FindAllStringSubmatch(string(src), -1) {
		got[m[1]] = m[2]
	}
	dur := func(d time.Duration) string {
		if d == time.Second {
			return "time.Second"
		}
		return fmt.Sprintf("%d*time.Second", d/time.Second)
	}
	for _, c := range []struct{ flag, want string }{
		{"height", fmt.Sprint(serverDefaults.Height)},
		{"block", fmt.Sprint(serverDefaults.Block)},
		{"pipeline", fmt.Sprint(serverDefaults.Pipeline)},
		{"max-inflight", fmt.Sprint(serverDefaults.MaxInflight)},
		{"req-timeout", dur(serverDefaults.ReqTimeout)},
		{"fold", dur(serverDefaults.Fold)},
	} {
		if got[c.flag] != c.want {
			t.Errorf("main.go -%s defaults to %q, serverDefaults says %q", c.flag, got[c.flag], c.want)
		}
	}
	syncs := regexp.MustCompile(`SyncEvery: (\d+)`).FindAllStringSubmatch(string(src), -1)
	if len(syncs) == 0 {
		t.Error("main.go no longer sets DiskOptions.SyncEvery literally")
	}
	for _, m := range syncs {
		if m[1] != fmt.Sprint(serverDefaults.SyncEvery) {
			t.Errorf("main.go opens a store with SyncEvery %s, serverDefaults says %d", m[1], serverDefaults.SyncEvery)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, quoted := range []string{
		fmt.Sprintf("-height %d", serverDefaults.Height),
		fmt.Sprintf("-block %d", serverDefaults.Block),
		fmt.Sprintf("-pipeline %d", serverDefaults.Pipeline),
		fmt.Sprintf("-max-inflight %d", serverDefaults.MaxInflight),
		fmt.Sprintf("-req-timeout %s", serverDefaults.ReqTimeout),
		fmt.Sprintf("-fold %s", serverDefaults.Fold),
		fmt.Sprintf("SyncEvery=%d", serverDefaults.SyncEvery),
	} {
		if !strings.Contains(string(readme), quoted) {
			t.Errorf("README.md does not quote %q", quoted)
		}
	}
}

// BENCHMARK.json and the code must name the same workloads, and every
// declared per-layer and end-to-end metric must be one the harness
// produces (runOne fails at run time otherwise; this fails sooner).
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.Contains(string(raw), fmt.Sprintf(`"name": %q`, w.Name)) {
			t.Errorf("BENCHMARK.json does not list workload %s", w.Name)
		}
		if !strings.Contains(string(raw), w.Why) {
			t.Errorf("BENCHMARK.json's why for %s differs from the code's", w.Name)
		}
	}
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	hasSetup := false
	for _, d := range bf.EndToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
