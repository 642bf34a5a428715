package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Kind is one client-visible operation type. Every kind ends in a local
// verification inside internal/client; the harness never times an
// unverified reply.
type Kind uint8

const (
	KAppend Kind = iota // Append / AppendRouted: one signed journal, π_s checked
	KBatch              // AppendBatch of batchSize journals, one batch receipt
	KProof              // VerifyExistence (single node) / VerifyExistenceGlobal (sharded)
	KClue               // VerifyClue over the newest <= clueVersions versions
	KQuery              // QueryRecords by clue prefix, Limit=queryLimit
	nKinds
)

var kindNames = [nKinds]string{"append", "batch", "proof", "clue", "query"}

func (k Kind) String() string { return kindNames[k] }

// Fixed traffic dimensions (ISSUE 11). They are constants, not flags:
// the benchmark is only comparable across commits if they never move.
const (
	payloadSize  = 256  // bytes per journal payload
	clueSpace    = 1000 // clue names c0000..c0999
	zipfS        = 1.1  // clue popularity skew
	batchSize    = 32   // journals per AppendBatch call
	clueVersions = 64   // newest versions a clue proof covers
	queryLimit   = 16   // Limit of every prefix query
)

// Workload is one traffic mix plus the state it runs against.
type Workload struct {
	Name string
	// Why is recorded with every result: the reason the workload exists.
	Why string
	// Shards > 1 starts the server with -shards N -fold 1s and sends
	// every call through the router.
	Shards int
	// Preload is the number of journals committed during set-up.
	Preload int
	// Restart SIGKILLs the server after the preload and reopens it on
	// the same -dir before the measured window.
	Restart bool
	// Pattern is the kind schedule: op i of a client is
	// Pattern[(i+offset)%len]. A fixed schedule rather than a weighted
	// draw keeps the mix identical between runs, so run-to-run spread
	// comes from the system and not from how many 32-journal batches
	// the dice happened to produce.
	Pattern []Kind
	// ProofWindow restricts existence proofs to the newest N journals;
	// 0 draws uniformly over the whole ledger.
	ProofWindow uint64
}

var workloads = []Workload{
	{
		Name:    "append_durable",
		Why:     "write path only: 7/8 Append + 1/8 AppendBatch(32); sequencing, fam/CM-Tree insert, stream append, fsync and pi_s do all the work, proofs none",
		Shards:  1,
		Preload: 8000,
		Pattern: []Kind{KAppend, KAppend, KAppend, KAppend, KAppend, KAppend, KAppend, KBatch},
	},
	{
		Name:    "proof_read",
		Why:     "read path only on a 40000-journal ledger reopened after SIGKILL: 80% existence, 10% clue, 10% query; generation never moves so the signed-state cache always hits",
		Shards:  1,
		Preload: 40000,
		Restart: true,
		Pattern: []Kind{KProof, KProof, KProof, KProof, KClue, KProof, KProof, KProof, KProof, KQuery},
	},
	{
		Name:        "mixed_verify",
		Why:         "50% Append against 30% existence (newest 4096), 10% clue, 10% query: every commit bumps the generation, so each proof pays a fresh state signature and each query makes the index ingest the backlog",
		Shards:      1,
		Preload:     10000,
		Pattern:     []Kind{KAppend, KProof, KAppend, KProof, KAppend, KClue, KAppend, KProof, KAppend, KQuery},
		ProofWindow: 4096,
	},
	{
		Name:    "sharded_mixed",
		Why:     "-shards 2 behind the router: 50% AppendRouted, 40% VerifyExistenceGlobal, 10% fanned-out query; the only workload where Router, Coordinator and the router-to-shard hop do work",
		Shards:  2,
		Preload: 8000,
		Pattern: []Kind{KAppend, KProof, KAppend, KProof, KAppend, KQuery, KAppend, KProof, KAppend, KProof},
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Op is one generated operation. It is a pure function of (workload,
// seed, client, index): targets that depend on run-time state (which
// jsn exists, how many versions a clue has) are carried as raw picks
// that the executor reduces against the state it observes.
type Op struct {
	Kind     Kind
	Clues    []int    // clue indices: one per journal (append, batch), or the target (clue, query)
	Payloads [][]byte // append: 1, batch: batchSize
	Pick     uint64   // proof target selector
}

func clueName(i int) string { return fmt.Sprintf("c%04d", i) }

// Generator yields a client's op sequence. All randomness descends
// from the seed; the server only ever sees the generated requests.
type Generator struct {
	w    Workload
	rng  *rand.Rand
	zipf *rand.Zipf
	i    int
}

// NewGenerator seeds one client's stream. Streams of different clients,
// workloads and seeds are independent; the same triple replays byte for
// byte.
func NewGenerator(w Workload, seed int64, client int) *Generator {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w.Name, seed, client)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return &Generator{
		w:    w,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, clueSpace-1),
		// Stagger clients so they do not hit the batch slot in lock step.
		i: client * 3,
	}
}

func (g *Generator) payload() []byte {
	p := make([]byte, payloadSize)
	g.rng.Read(p)
	return p
}

func (g *Generator) clue() int { return int(g.zipf.Uint64()) }

// Next returns the next op of the workload's schedule.
func (g *Generator) Next() Op {
	k := g.w.Pattern[g.i%len(g.w.Pattern)]
	g.i++
	return g.Of(k)
}

// Of generates one op of a given kind from the same stream (preload and
// gates use it so their inputs are seeded too).
func (g *Generator) Of(k Kind) Op {
	op := Op{Kind: k}
	switch k {
	case KAppend:
		op.Clues = []int{g.clue()}
		op.Payloads = [][]byte{g.payload()}
	case KBatch:
		return g.Batch(batchSize)
	case KProof:
		op.Pick = g.rng.Uint64()
	case KClue, KQuery:
		op.Clues = []int{g.clue()}
	}
	return op
}

// Batch generates one AppendBatch op of n journals.
func (g *Generator) Batch(n int) Op {
	op := Op{Kind: KBatch, Clues: make([]int, n), Payloads: make([][]byte, n)}
	for j := range op.Payloads {
		op.Clues[j] = g.clue()
		op.Payloads[j] = g.payload()
	}
	return op
}
