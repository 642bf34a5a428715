// Command ledgerdb is the CLI client for a ledgerdb-server instance.
// Every read that matters is verified locally against the pinned LSP key
// before anything is printed.
//
// Usage:
//
//	ledgerdb [-server http://localhost:8420] [-lsp <hex>] <command> [args]
//
// Commands:
//
//	info                         show ledger counters
//	append <payload> [clue...]   sign and append a journal
//	get <jsn>                    fetch a journal record
//	payload <jsn>                fetch (and digest-check) a raw payload
//	verify <jsn>                 client-side existence verification
//	verify-state <key>           verifiable world-state read
//	verify-clue <clue>           client-side lineage verification
//	query prefix <P> [limit]     verified rich read: clues starting with P
//	query time <from> <to> [limit]   verified rich read: commit ts in [from,to)
//	query signer <hexpk> [limit] verified rich read: records signed by a key
//	absence [-prefix] <clue>     verified proof that no live clue matches
//	anchor-time                  run one time-notary round
//	state                        fetch and verify the signed state
//	bundle export <jsn> [-payload] [-o file]   export an offline proof bundle
//	bundle verify <file>         verify a bundle OFFLINE (-lsp required, no server)
//
// Without -lsp the key is discovered from the server (trust on first
// use) and printed so it can be pinned for later invocations. The one
// exception is `bundle verify`, which never touches the network: the
// bundle file plus the pinned -lsp key (and optionally -tsa keys) are
// the entire trust base.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ledgerdb/internal/client"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
)

func main() {
	serverURL := flag.String("server", "http://localhost:8420", "ledgerdb-server base URL")
	lspHex := flag.String("lsp", "", "pinned LSP public key (hex); empty = trust on first use")
	tsaHex := flag.String("tsa", "", "comma-separated pinned TSA public keys (hex) for bundle verify; empty = any TSA")
	keySeed := flag.String("key-seed", "", "deterministic client key seed (testing); empty = fresh key")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ledgerdb [flags] <info|append|get|payload|verify|verify-batch|verify-state|verify-clue|query|absence|anchor-time|state|bundle> [args]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// `bundle verify` runs before any server contact — it is the whole
	// point of the bundle that no server is needed (or trusted).
	if flag.Arg(0) == "bundle" && flag.NArg() >= 2 && flag.Arg(1) == "verify" {
		bundleVerify(*lspHex, *tsaHex, flag.Args()[2:])
		return
	}

	var key *sig.KeyPair
	var err error
	if *keySeed != "" {
		key = sig.GenerateDeterministic(*keySeed)
	} else if key, err = sig.Generate(); err != nil {
		fail("generate key: %v", err)
	}
	cli := &client.Client{BaseURL: *serverURL, Key: key}

	uri, _, _, _, err := cli.Info()
	if err != nil {
		fail("reach server: %v", err)
	}
	cli.URI = uri
	if *lspHex != "" {
		pk, err := sig.ParsePublicKey(*lspHex)
		if err != nil {
			fail("parse -lsp: %v", err)
		}
		cli.LSP = pk
	} else {
		pk, err := cli.DiscoverLSP()
		if err != nil {
			fail("discover LSP key: %v", err)
		}
		cli.LSP = pk
		fmt.Fprintf(os.Stderr, "note: trusting discovered LSP key %s — pin with -lsp %s\n", pk, pk.Hex())
	}

	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "info":
		uri, size, base, height, err := cli.Info()
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("ledger:   %s\njournals: %d (first live: %d)\nblocks:   %d\n", uri, size, base, height)
	case "append":
		if len(args) < 1 {
			fail("append needs a payload")
		}
		r, err := cli.Append([]byte(args[0]), args[1:]...)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("committed jsn %d\n  request-hash %s\n  tx-hash      %s\n  receipt verified against LSP %s\n",
			r.JSN, r.RequestHash.Short(), r.TxHash.Short(), cli.LSP)
	case "get":
		rec, err := cli.GetJournal(argJSN(args))
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("jsn %d  type %s  ts %d  clues %v  occulted %v\n  payload digest %s (%dB)\n",
			rec.JSN, rec.Type, rec.Timestamp, rec.Clues, rec.Occulted, rec.PayloadDigest.Short(), rec.PayloadSize)
	case "payload":
		p, err := cli.GetPayload(argJSN(args))
		if err != nil {
			fail("%v", err)
		}
		if _, err := os.Stdout.Write(p); err != nil {
			fail("%v", err)
		}
		fmt.Println()
	case "verify":
		rec, payload, err := cli.VerifyExistence(argJSN(args), true)
		if err != nil {
			fail("VERIFICATION FAILED: %v", err)
		}
		fmt.Printf("VERIFIED jsn %d (what+who)\n  tx-hash %s\n  signer  %s\n  payload %dB present=%v\n",
			rec.JSN, rec.TxHash().Short(), rec.ClientPK, rec.PayloadSize, payload != nil)
	case "verify-batch":
		if len(args) == 0 {
			fail("verify-batch needs jsns")
		}
		jsns := make([]uint64, len(args))
		for i := range args {
			jsns[i] = argJSN(args[i : i+1])
		}
		recs, payloads, err := cli.VerifyExistenceBatch(jsns, true)
		if err != nil {
			fail("VERIFICATION FAILED: %v", err)
		}
		fmt.Printf("VERIFIED %d journals against ONE signed state\n", len(recs))
		for i, rec := range recs {
			fmt.Printf("  jsn %-6d tx-hash %s  payload %dB present=%v\n",
				rec.JSN, rec.TxHash().Short(), rec.PayloadSize, payloads[i] != nil)
		}
	case "verify-state":
		if len(args) != 1 {
			fail("verify-state needs a key")
		}
		jsn, digest, err := cli.VerifyState([]byte(args[0]))
		if err != nil {
			fail("VERIFICATION FAILED: %v", err)
		}
		fmt.Printf("VERIFIED state %q -> set by jsn %d, payload digest %s\n", args[0], jsn, digest.Short())
	case "verify-clue":
		if len(args) != 1 {
			fail("verify-clue needs a clue name")
		}
		recs, err := cli.VerifyClue(args[0], 0, 0)
		if err != nil {
			fail("VERIFICATION FAILED: %v", err)
		}
		fmt.Printf("VERIFIED clue %q: %d journals (N-lineage intact)\n", args[0], len(recs))
		for _, rec := range recs {
			fmt.Printf("  jsn %-6d ts %-12d %s\n", rec.JSN, rec.Timestamp, rec.TxHash().Short())
		}
	case "query":
		q := queryFromArgs(args)
		recs, err := cli.QueryRecords(q)
		if err != nil {
			fail("VERIFICATION FAILED: %v", err)
		}
		if len(recs) == 0 {
			if q.Kind == ledger.QueryByPrefix {
				fmt.Printf("VERIFIED EMPTY: no live clue starts with %q (authenticated absence)\n", q.Prefix)
			} else {
				fmt.Println("no matches (empty time/signer replies carry no absence proof)")
			}
			break
		}
		fmt.Printf("VERIFIED query %s: %d journals, every one proven against the signed state\n", q.Kind, len(recs))
		for _, rec := range recs {
			fmt.Printf("  jsn %-6d ts %-12d clues %v  %s\n", rec.JSN, rec.Timestamp, rec.Clues, rec.TxHash().Short())
		}
	case "absence":
		prefix := false
		if len(args) > 0 && args[0] == "-prefix" {
			prefix, args = true, args[1:]
		}
		if len(args) != 1 {
			fail("absence needs a clue name (optionally after -prefix)")
		}
		proofs, err := cli.VerifyAbsence(args[0], prefix)
		if client.IsPresent(err) {
			fail("clue %q is PRESENT in the ledger", args[0])
		}
		if err != nil {
			fail("VERIFICATION FAILED: %v", err)
		}
		what := "clue"
		if prefix {
			what = "clue prefix"
		}
		fmt.Printf("VERIFIED ABSENT: no live %s %q (%d shard proof(s) against the signed clue-set root)\n",
			what, args[0], len(proofs))
	case "anchor-time":
		r, err := cli.AnchorTime()
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("time journal committed at jsn %d\n", r.JSN)
	case "bundle":
		if len(args) == 0 {
			fail("bundle needs a subcommand: export|verify")
		}
		switch args[0] {
		case "export":
			bundleExport(cli, args[1:])
		default:
			fail("unknown bundle subcommand %q (want export|verify)", args[0])
		}
	case "state":
		st, err := cli.State()
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("signed state (verified)\n  jsn          %d\n  journal root %s\n  clue root    %s\n  state root   %s\n",
			st.JSN, st.JournalRoot.Short(), st.ClueRoot.Short(), st.StateRoot.Short())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// queryFromArgs parses the query subcommand's arguments:
// prefix <P> [limit] | time <from> <to> [limit] | signer <hexpk> [limit].
func queryFromArgs(args []string) ledger.Query {
	if len(args) == 0 {
		fail("query needs a kind: prefix|time|signer")
	}
	var q ledger.Query
	rest := args[1:]
	switch args[0] {
	case "prefix":
		q.Kind = ledger.QueryByPrefix
		if len(rest) == 0 {
			fail("query prefix needs a clue prefix")
		}
		q.Prefix, rest = rest[0], rest[1:]
	case "time":
		q.Kind = ledger.QueryByTime
		if len(rest) < 2 {
			fail("query time needs <from> <to>")
		}
		var err error
		if q.From, err = strconv.ParseInt(rest[0], 10, 64); err != nil {
			fail("bad from %q", rest[0])
		}
		if q.To, err = strconv.ParseInt(rest[1], 10, 64); err != nil {
			fail("bad to %q", rest[1])
		}
		rest = rest[2:]
	case "signer":
		q.Kind = ledger.QueryBySigner
		if len(rest) == 0 {
			fail("query signer needs a hex public key")
		}
		pk, err := sig.ParsePublicKey(rest[0])
		if err != nil {
			fail("bad signer key: %v", err)
		}
		q.Signer, rest = pk, rest[1:]
	default:
		fail("unknown query kind %q (want prefix|time|signer)", args[0])
	}
	if len(rest) > 0 {
		n, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			fail("bad limit %q", rest[0])
		}
		q.Limit = n
	}
	return q
}

// bundleExport fetches a proof bundle (verified against the pinned LSP
// key by the client before it is accepted) and writes its wire form to
// a file, ready to be mailed to a verifier with no ledger access.
// Args: <jsn> [-payload] [-o file]; -o - writes to stdout.
func bundleExport(cli *client.Client, args []string) {
	if len(args) == 0 {
		fail("bundle export needs a jsn")
	}
	jsn, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		fail("bad jsn %q", args[0])
	}
	withPayload := false
	out := fmt.Sprintf("bundle-%d.ldbp", jsn)
	for rest := args[1:]; len(rest) > 0; {
		switch rest[0] {
		case "-payload":
			withPayload, rest = true, rest[1:]
		case "-o":
			if len(rest) < 2 {
				fail("-o needs a file name")
			}
			out, rest = rest[1], rest[2:]
		default:
			fail("unknown bundle export argument %q", rest[0])
		}
	}
	b, err := cli.FetchBundle(jsn, withPayload)
	if err != nil {
		fail("%v", err)
	}
	raw := b.EncodeBytes()
	if out == "-" {
		if _, err := os.Stdout.Write(raw); err != nil {
			fail("%v", err)
		}
		return
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fail("%v", err)
	}
	when := "no time chain (record younger than the last anchor)"
	if b.TimeRecordBytes != nil {
		when = "when-chain attached (time journal + TSA attestation)"
	}
	fmt.Printf("exported jsn %d -> %s (%dB)\n  payload included: %v\n  %s\n  verify offline with: ledgerdb -lsp %s bundle verify %s\n",
		jsn, out, len(raw), b.Payload != nil, when, cli.LSP.Hex(), out)
}

// bundleVerify is the fully-offline leg: read the file, check every
// signature and hash path against the pinned keys, print what the
// bundle proves. No client, no server, no network.
func bundleVerify(lspHex, tsaHex string, args []string) {
	if lspHex == "" {
		fail("bundle verify is offline: -lsp <hex> is required (there is no server to discover it from)")
	}
	lsp, err := sig.ParsePublicKey(lspHex)
	if err != nil {
		fail("parse -lsp: %v", err)
	}
	var tsaKeys []sig.PublicKey
	if tsaHex != "" {
		for _, h := range strings.Split(tsaHex, ",") {
			pk, err := sig.ParsePublicKey(strings.TrimSpace(h))
			if err != nil {
				fail("parse -tsa: %v", err)
			}
			tsaKeys = append(tsaKeys, pk)
		}
	}
	if len(args) != 1 {
		fail("bundle verify needs exactly one bundle file")
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		fail("%v", err)
	}
	b, err := ledger.DecodeProofBundle(raw)
	if err != nil {
		fail("%v", err)
	}
	rec, ta, err := ledger.VerifyBundle(b, lsp, tsaKeys)
	if err != nil {
		fail("VERIFICATION FAILED: %v", err)
	}
	fmt.Printf("VERIFIED OFFLINE jsn %d\n  tx-hash   %s\n  signer    %s\n  clues     %v\n  payload   %dB present=%v\n",
		rec.JSN, rec.TxHash().Short(), rec.ClientPK, rec.Clues, rec.PayloadSize, b.Payload != nil)
	if ta != nil {
		trust := "any TSA (pin with -tsa to restrict)"
		if len(tsaKeys) > 0 {
			trust = "pinned TSA key"
		}
		fmt.Printf("  when      committed at or before TSA time %d (%s)\n", ta.Timestamp, trust)
	} else {
		fmt.Println("  when      unanchored: record is newer than the bundle's last time journal")
	}
	fmt.Printf("  anchored to LSP-signed checkpoint at jsn %d\n", b.State.JSN)
}

func argJSN(args []string) uint64 {
	if len(args) != 1 {
		fail("expected exactly one jsn argument")
	}
	jsn, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		fail("bad jsn %q", args[0])
	}
	return jsn
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ledgerdb: "+format+"\n", args...)
	os.Exit(1)
}
