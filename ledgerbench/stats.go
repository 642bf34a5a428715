package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. Nearest rank never interpolates, so a
// reported latency is always one that a caller actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile picks the highest of p99.9 / p99 / p95 / p90 that
// still has at least ten samples beyond it — the percentile rule of the
// metric glossary. It returns 0 when even p90 is unsupported (n < 100).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 0.1% of 10000 is 9.999… in floats
			return p
		}
	}
	return 0
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }
