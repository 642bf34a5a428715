package main

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// opsDigest hashes every byte a generator emits.
func opsDigest(w Workload, seed int64, client, n int) [32]byte {
	g := NewGenerator(w, seed, client)
	h := sha256.New()
	var b [8]byte
	for i := 0; i < n; i++ {
		op := g.Next()
		h.Write([]byte{byte(op.Kind)})
		binary.BigEndian.PutUint64(b[:], op.Pick)
		h.Write(b[:])
		for j, c := range op.Clues {
			binary.BigEndian.PutUint64(b[:], uint64(c))
			h.Write(b[:])
			if j < len(op.Payloads) {
				h.Write(op.Payloads[j])
			}
		}
	}
	return [32]byte(h.Sum(nil))
}

func TestGeneratorIsByteReproducible(t *testing.T) {
	for _, w := range workloads {
		a, b := opsDigest(w, 7, 0, 2000), opsDigest(w, 7, 0, 2000)
		if a != b {
			t.Errorf("%s: same (workload, seed, client) produced different bytes", w.Name)
		}
		if a == opsDigest(w, 8, 0, 2000) {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", w.Name)
		}
		if a == opsDigest(w, 7, 1, 2000) {
			t.Errorf("%s: clients 0 and 1 produced the same stream", w.Name)
		}
	}
	if opsDigest(workloads[0], 7, 0, 100) == opsDigest(workloads[2], 7, 0, 100) {
		t.Error("two workloads share a stream under the same seed")
	}
}

func TestScheduleFollowsPattern(t *testing.T) {
	for _, w := range workloads {
		g := NewGenerator(w, 1, 0)
		var got [nKinds]int
		n := 10 * len(w.Pattern)
		for i := 0; i < n; i++ {
			op := g.Next()
			got[op.Kind]++
			if op.Kind == KBatch && len(op.Payloads) != batchSize {
				t.Fatalf("%s: batch of %d journals, want %d", w.Name, len(op.Payloads), batchSize)
			}
			for _, p := range op.Payloads {
				if len(p) != payloadSize {
					t.Fatalf("%s: payload of %d bytes, want %d", w.Name, len(p), payloadSize)
				}
			}
		}
		var want [nKinds]int
		for _, k := range w.Pattern {
			want[k] += 10
		}
		if got != want {
			t.Errorf("%s: kind counts %v over %d ops, want %v", w.Name, got, n, want)
		}
	}
}

func TestPreloadIsExactAndCoversEveryClue(t *testing.T) {
	for _, w := range workloads {
		seen := make(map[int]bool)
		journals := 0
		for _, op := range preloadOps(w, 3) {
			journals += len(op.Payloads)
			for _, c := range op.Clues {
				if c < 0 || c >= clueSpace {
					t.Fatalf("%s: clue index %d out of range", w.Name, c)
				}
				seen[c] = true
			}
		}
		if journals != w.Preload {
			t.Errorf("%s: preload generates %d journals, want exactly %d", w.Name, journals, w.Preload)
		}
		if len(seen) != clueSpace {
			t.Errorf("%s: preload touches %d of %d clues; a clue proof or query could come back empty", w.Name, len(seen), clueSpace)
		}
	}
}
