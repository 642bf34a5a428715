// HTTP service: the full client/server trust split of §II-C. A ledger
// service (LSP, T-Ledger, TSA pool) runs in one goroutine; a distrusting
// client talks to it over real HTTP, pins the LSP key, and re-verifies
// every response locally — receipts, existence proofs, anchored proofs,
// lineage, and state reads.
//
//	go run ./examples/http-service
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

func main() {
	// ---- Service side (the LSP's infrastructure).
	clock := func() int64 { return time.Now().UnixNano() }
	lsp, err := sig.Generate()
	if err != nil {
		log.Fatal(err)
	}
	dba, err := sig.Generate()
	if err != nil {
		log.Fatal(err)
	}
	pool := tsa.NewPool(tsa.New("tsa-1", tsa.Options{Clock: clock}))
	tl, err := tledger.New(tledger.Config{
		Clock:     clock,
		Tolerance: int64(time.Second),
		TSA:       pool,
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://service",
		FractalHeight: 4, // small epochs so the demo seals a few
		BlockSize:     8,
		LSP:           lsp,
		DBA:           dba.Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         clock,
	})
	if err != nil {
		log.Fatal(err)
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(listener, server.New(l, tl))
	baseURL := "http://" + listener.Addr().String()
	fmt.Printf("service listening on %s\n", baseURL)

	// ---- Client side: pins the LSP key out of band.
	key, err := sig.Generate()
	if err != nil {
		log.Fatal(err)
	}
	cli := &client.Client{
		BaseURL: baseURL,
		Key:     key,
		LSP:     lsp.Public(), // the out-of-band pin
		URI:     "ledger://service",
	}

	var receipts []*journal.Receipt
	for i := 0; i < 40; i++ {
		r, err := cli.Append([]byte(fmt.Sprintf("record %02d", i)), "stream-a")
		if err != nil {
			log.Fatal(err)
		}
		receipts = append(receipts, r)
	}
	fmt.Printf("appended %d journals; every receipt verified against the pinned LSP key\n", len(receipts))

	// Cold verification: full merged-leaf chain.
	if _, _, err := cli.VerifyExistence(receipts[3].JSN, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cold existence verification passed (full fam chain)")

	// Learned-anchor verification (fam-aoa, Figure 4(a)): every cold
	// proof that crosses a merged-leaf hop teaches the client the root of
	// the sealed epoch it starts in, and a later read of a journal there
	// comes back as its in-epoch path alone, checked against that root.
	// No anchor is fetched or adopted on the server's word.
	for _, jsn := range []uint64{1, 10, 20, 39, 20} {
		if _, _, err := cli.VerifyExistence(jsn, false); err != nil {
			log.Fatalf("verify %d: %v", jsn, err)
		}
	}
	_, _, short := cli.StateSlotStats()
	fmt.Printf("learned-anchor verification passed: %d of 6 existence proofs were in-epoch paths alone\n", short)

	// Lineage over HTTP (§IV-C client side).
	recs, err := cli.VerifyClue("stream-a", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineage verification passed: %d records under clue stream-a\n", len(recs))
	// The client rebuilt every record it appended from its own request
	// (each receipt was checked against it), so reads of them came back
	// as placeholders it filled before verifying.
	hits, misses := cli.HeldStats()
	fmt.Printf("held records: %d read back as placeholders, %d received in full\n", hits, misses)

	// Time anchoring through the service's T-Ledger (Protocol 4).
	if _, err := cli.AnchorTime(); err != nil {
		log.Fatal(err)
	}
	if _, err := tl.Finalize(); err != nil { // the service's Δτ tick
		log.Fatal(err)
	}
	fmt.Println("time journal anchored via T-Ledger and TSA-finalized")

	// The trust model in action: a client pinned to the WRONG key
	// rejects everything the service says.
	wrong, err := sig.Generate()
	if err != nil {
		log.Fatal(err)
	}
	evil := &client.Client{BaseURL: baseURL, Key: key, LSP: wrong.Public(), URI: "ledger://service"}
	if _, err := evil.State(); err != nil {
		fmt.Printf("client with wrong LSP pin correctly rejects the service: %v\n", err)
	} else {
		log.Fatal("wrong pin accepted — must never happen")
	}
}
