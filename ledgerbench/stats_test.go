package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN, not a number that looks measured")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

// The glossary rule: the highest percentile with >= 10 samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.query", Op: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "transport", Op: 1, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "router", Op: 1, Start: 20, End: 80},
		// Two concurrent fan-out calls overlapping on [40,50], and one
		// that outlives its parent (clipped at 80).
		{ID: 4, Parent: 3, Name: "fanout", Op: 1, Start: 30, End: 50},
		{ID: 5, Parent: 3, Name: "fanout", Op: 1, Start: 40, End: 60},
		{ID: 6, Parent: 3, Name: "fanout", Op: 1, Start: 70, End: 95},
		{ID: 7, Parent: 4, Name: "server", Op: 1, Start: 32, End: 48},
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 20,      // 100 - [10,90]
		2: 20,      // 80 - [20,80]
		3: 60 - 40, // [30,60] u [70,80] = 40 covered
		4: 20 - 16,
		5: 20,
		6: 25,
		7: 16,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestLayerMetricsAttributeWholeCall(t *testing.T) {
	// Two sequential single-node ops, each client 100 = 30 client self
	// + 20 transport self + 50 server.
	var spans []Span
	for op := int32(1); op <= 2; op++ {
		base := int64(op) * 1000
		id := (op - 1) * 3
		spans = append(spans,
			Span{ID: id + 1, Name: "client.proof", Op: op, Start: base, End: base + 100_000},
			Span{ID: id + 2, Parent: id + 1, Name: "transport", Op: op, Start: base + 10_000, End: base + 80_000, Bytes: 500},
			Span{ID: id + 3, Parent: id + 2, Name: "server", Op: op, Start: base + 20_000, End: base + 70_000},
		)
	}
	// Set-up traffic (op 0) must not count.
	spans = append(spans, Span{ID: 7, Name: "server", Op: 0, Start: 0, End: 999_999})
	m, byKind := layerMetrics(spans, 2)
	for name, want := range map[string]float64{
		"client.self_us": 30, "transport.self_us": 20, "server.handle_us": 50,
		"transport.resp_bytes": 500, "trace.op_mean_us": 100, "trace.op_p50_us": 100,
		"router.self_share": 0, "router.fanout_calls": 0,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if sum := m["client.self_us"] + m["transport.self_us"] + m["server.handle_us"]; sum != m["trace.op_mean_us"] {
		t.Errorf("layer self times sum to %v, client observed %v", sum, m["trace.op_mean_us"])
	}
	if k := byKind["proof"]; k.Count != 2 || k.ServerUS != 50 || k.TotalUS != 100 {
		t.Errorf("by-kind row = %+v", k)
	}
}

func TestSetsAgreeWithinBoundOrAfterDroppingOneRun(t *testing.T) {
	defs := []metricDef{
		{Name: "throughput_ops_s", Better: "higher", Bound: 0.25},
		{Name: "op_p50_ms", Better: "lower", Bound: 0.25},
	}
	run := func(tput, p50 float64) map[string]metricValue {
		return map[string]metricValue{"throughput_ops_s": {Value: tput}, "op_p50_ms": {Value: p50}}
	}
	if g := gap(defs[0], []float64{1000, 800}); math.Abs(g-0.2) > 1e-12 {
		t.Errorf("higher-is-better gap = %v, want 0.2 of the best", g)
	}
	if g := gap(defs[1], []float64{1.0, 1.3}); math.Abs(g-0.3) > 1e-12 {
		t.Errorf("lower-is-better gap = %v, want 0.3 of the best", g)
	}
	r := runs{run(1000, 1.0), run(600, 1.7), run(980, 1.05)}
	if r.agree(defs, -1) {
		t.Error("runs with a 40% throughput gap agree")
	}
	if r.agree(defs, 0) || !r.agree(defs, 1) {
		t.Error("only dropping the slow run (index 1) restores agreement")
	}
}
