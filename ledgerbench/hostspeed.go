package main

import (
	"crypto/ed25519"
	"time"
)

// The benchmark runs on a few virtual cores of a shared host whose speed
// is not constant: for seconds to minutes at a time every process on it
// — an idle-machine SHA-256 loop included — runs 1.2x to 3x slower
// (neighbours on the same physical cores; sometimes visible as steal
// time, often not). Such phases last longer than a run, so no statistic
// over one run's samples removes them, and they moved every timing
// metric of ten same-code runs by 15-20 %.
//
// What removes them is a control measurement. hostSpeed times a fixed
// piece of pure computation that is no part of the repository (standard
// library Ed25519, the same kind of work the client and server spend most
// of their CPU on) right next to what is being measured, and every
// time-derived metric is divided by how much slower than refNominal the
// reference ran. A code change cannot move the reference, so it moves
// the reported value exactly as it moves the raw one; a slow host moves
// both and cancels. The detail report carries the slowdown of every
// slice, so the raw values can be recovered.

const (
	// refPairs sign+verify pairs make one probe (~3 ms).
	refPairs = 40
	// refNominal is a probe's duration on the undisturbed calibration
	// host (2.1 GHz Xeon vCPU). It only fixes the scale: on another
	// machine every time-derived metric reads as if that machine ran the
	// reference at this speed.
	refNominal = 3 * time.Millisecond
)

var refKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))

// hostSpeed collects the reference probes taken around and during one
// measured interval. Probes come from one goroutine at a time.
type hostSpeed struct {
	probes []float64 // durations in ns
}

// probe runs the reference computation once on the calling goroutine.
func (h *hostSpeed) probe() {
	pub := refKey.Public().(ed25519.PublicKey)
	msg := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < refPairs; i++ {
		sg := ed25519.Sign(refKey, msg)
		if !ed25519.Verify(pub, msg, sg) {
			panic("ledgerbench: Ed25519 rejects its own signature") // a broken toolchain, not a run-time condition
		}
		copy(msg, sg) // chain the iterations so none can be hoisted
	}
	h.probes = append(h.probes, float64(time.Since(t0)))
}

// slowdown is how many times slower than refNominal the interval's
// probes ran, taken at their nearest-rank median: the middle probe of a
// set-up step's dozen or more, the faster of the two around a slice. A
// probe lasts 3 ms, and interference that happens to hit one says little
// about the second next to it: with two probes their mean over-corrected
// (spread 0.035-0.10 over ten runs), the faster one gave the steadiest
// metrics on every workload (0.02-0.06, against 0.06-0.15 raw).
func (h *hostSpeed) slowdown() float64 {
	return median(h.probes) / float64(refNominal)
}
