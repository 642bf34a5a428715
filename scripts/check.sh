#!/usr/bin/env bash
# Full verification pass: build, vet, verlint, tests (with race), fuzz
# seed smoke, every example, and a quick pass of every experiment
# harness. This is what CI would run.
#
# Stages are individually invocable:
#
#   scripts/check.sh          # everything (same as `all`)
#   scripts/check.sh lint     # build + gofmt + vet (ledgerbench too) + verlint only
#   scripts/check.sh fuzz     # 10s native fuzz smoke per wire decoder
#   scripts/check.sh race     # the -race suites only
#   scripts/check.sh crash    # crash-recovery torture (1000 crash points) + payload-log byte sweeps
#   scripts/check.sh chaos    # network-chaos torture (500 fault schedules, -race)
#   scripts/check.sh shard    # multi-shard topology e2e incl. kill-one-shard chaos + local/remote backend parity (-race)
#   scripts/check.sh query    # rich-query layer: index + absence tests (-race), crash + fuzz smoke
#   scripts/check.sh replica  # replication: puller/bundle tests (-race), partition chaos, follower crash torture
#   scripts/check.sh perf     # hot-path bench smoke + allocs/op, proof-size, trie-proof, ECDSA-count, signature fan-out, held-record (own writes included), held-state, read-cost, reopen, payload-log and routed-append guards + the ledgerbench module's own vet/tests
#   scripts/check.sh all      # everything
set -euo pipefail
cd "$(dirname "$0")/.."

stage_build() {
    echo "== build =="
    go build ./...
}

stage_lint() {
    echo "== gofmt (any listed file fails) =="
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "$unformatted"
        exit 1
    fi

    echo "== vet =="
    go vet ./...

    echo "== vet (ledgerbench: its own module, so ./... above does not reach it) =="
    (cd ledgerbench && go vet ./...)

    echo "== verlint (L1-L9 verification invariants, per-rule timing on stderr) =="
    # JSON mode piped through a tiny jq-free parser so failures print
    # clickable file:line locations; pipefail preserves verlint's exit
    # status through the pipe.
    go run ./cmd/verlint -json -timing ./... |
        sed -E 's/^\{"file":"([^"]*)","line":([0-9]+),"rule":"([^"]*)","msg":"(.*)"\}$/\1:\2: [\3] \4/'
}

stage_tests() {
    echo "== tests =="
    go test ./...
}

stage_fuzz() {
    echo "== fuzz smoke (10s per wire decoder) =="
    go test -run xxx -fuzz 'FuzzDecodeExistenceProof$' -fuzztime 10s ./internal/ledger > /dev/null
    go test -run xxx -fuzz FuzzDecodeExistenceProofBatch -fuzztime 10s ./internal/ledger > /dev/null
    go test -run xxx -fuzz FuzzDecodeClueBundle -fuzztime 10s ./internal/ledger > /dev/null
    go test -run xxx -fuzz FuzzDecodeReceipt -fuzztime 10s ./internal/ledger > /dev/null
    go test -run xxx -fuzz FuzzDecodeSchedule -fuzztime 10s ./internal/netchaos > /dev/null
    go test -run xxx -fuzz FuzzMutateEnvelope -fuzztime 10s ./internal/netchaos > /dev/null
    go test -run xxx -fuzz FuzzDecodeProof -fuzztime 10s ./internal/mpt > /dev/null
}

stage_race() {
    echo "== tests (race: parallel verification path) =="
    go test -race -timeout 600s ./internal/ledger ./internal/audit

    echo "== tests (race: service e2e, shared-client SDK) =="
    go test -race -timeout 600s ./internal/server ./internal/client

    echo "== tests (race: signature fan-out — par.Each, 8 clones verifying overlapping cold clue ranges, batch admission) =="
    go test -race -timeout 600s -count 3 ./internal/par
    go test -race -timeout 600s -count 3 -run 'TestColdClueFanOutRace|TestMemoSharedByClonesRace' ./internal/client
    go test -race -timeout 600s -count 3 -run 'TestBatchRejectNamesFirstBadRequest|TestAppendBatch' ./internal/ledger

    echo "== tests (race: clones filing their own writes into one held store) =="
    go test -race -timeout 600s -count 10 -run 'TestOwnWritesFromConcurrentClones' ./internal/client

    echo "== tests (race: depth-16 staged pipeline read stress) =="
    go test -race -timeout 600s -run 'TestPipelineDepth16ReadStress|TestPipelineStress' -count 2 ./internal/ledger

    echo "== tests (race) =="
    go test -race -timeout 600s ./...
}

stage_crash() {
    echo "== crash-recovery torture (faultfs, 1000 randomized crash points) =="
    CRASHTEST_ITERS=1000 go test -run TestCrashRecoveryTorture -count 1 ./internal/integration/crashtest

    echo "== coalesced group-fsync crash torture (pipelined, both crash models) =="
    PIPECRASH_ITERS=30 go test -run TestPipelineCoalescedSyncCrash -count 1 ./internal/integration/crashtest

    echo "== crash-recovery regressions (durability failpoints) =="
    go test -run 'TestSerialCommitDurability|TestPurgeRollForwardAfterCrash|TestTornPurgeJournalStaysInert|TestSelfSyncedJournalKeepsItsPayload' -count 1 ./internal/integration/crashtest
    go test -run 'TestTornHeaderReopen|TestShortWrite|TestSyncFailureKeepsSeq|TestDropUnsynced|TestSelfSyncBarrier' -count 1 ./internal/streamfs/...

    echo "== payload-log crash torture (every byte of Put / group flush / erasure rewrite, both crash models) =="
    go test -run 'TestPayloadLogCrash' -count 1 ./internal/streamfs/faultfs
    PAYLOADCRASH_STRIDE=1 go test -run 'TestPayloadCrashSweep' -count 1 ./internal/integration/crashtest
}

stage_chaos() {
    echo "== network-chaos torture (netchaos, 500 seeded fault schedules, -race) =="
    CHAOSTEST_ITERS=500 go test -race -timeout 600s -run TestNetworkChaosTorture -count 1 ./internal/integration/chaostest

    echo "== network-chaos regressions (deterministic fault points) =="
    go test -race -run 'TestAmbiguousLossRetriesExactlyOnce|TestMiddleboxDuplicateCommitsOnce|TestCorruptReceiptSurfacesEvidenceWithoutRetry|TestSlowLorisBoundedByDeadline|TestRetryAfterHonoredEndToEnd|TestDrainLosesNoCommittedGroup' -count 1 ./internal/integration/chaostest
    go test -run 'TestRetrySemanticsByStatus|TestBreakerTripHalfOpenReset|TestLoadShed429UnderSaturation|TestReadyzFlipsDuringDrain' -count 1 ./internal/client ./internal/server
}

stage_shard() {
    echo "== sharded topology e2e (global proof path, kill-one-shard chaos, cross-shard audit, -race) =="
    go test -race -timeout 600s -count 1 ./internal/shard ./internal/integration/shardtest

    echo "== local and remote shard backends are the same service (one session against both; drain under load; ECDSA and loopback counts, -race) =="
    go test -race -timeout 600s -count 1 -run 'TestBackendParity|TestLocalRoutedAppendCosts|TestRouterReadyzFlipsWhenAShardDrains' ./internal/server

    echo "== shard partitioner fuzz seeds =="
    go test -run xxx -fuzz FuzzRoute -fuzztime 10s ./internal/shard > /dev/null
}

stage_query() {
    echo "== rich-query layer: sidecar index + clue-set commitment (-race) =="
    go test -race -timeout 600s -count 1 ./internal/index ./internal/cmtree
    go test -race -timeout 600s -run 'TestAbsence|TestQuery|TestVerifyQueryResult' -count 1 ./internal/ledger

    echo "== query/absence e2e (single node + sharded router) =="
    go test -race -timeout 600s -run 'TestEndToEndQuery|TestEndToEndPurgeThenQuery|TestQueryWithoutIndex' -count 1 ./internal/server
    go test -race -timeout 600s -run 'TestShardedQueryAndAbsence|TestRouterPurgeStatusCodes|TestRouterOccultStatusCode' -count 1 ./internal/integration/shardtest

    echo "== index over a crashed ledger (power cut under the ledger, both crash models) + the index touches no store =="
    go test -run 'TestIndexCrashBothStores' -count 1 ./internal/integration/crashtest
    go test -run 'TestIndexStoreUntouched' -count 1 ./internal/server

    echo "== absence proof fuzz smoke =="
    go test -run xxx -fuzz FuzzDecodeAbsenceProof -fuzztime 10s ./internal/ledger > /dev/null
}

stage_replica() {
    echo "== replication: verified catch-up, frames, offline bundles (-race) =="
    go test -race -timeout 600s -count 1 ./internal/replica
    go test -race -timeout 600s -run 'TestBundle|TestStackFollower|TestStackClose' -count 1 ./internal/ledger ./ledgerdb
    go test -race -timeout 600s -run 'TestReplicationOverHTTP|TestFollowerStaleProofRejected|TestBundleEndpoint|TestPullEndpointValidation|TestHealthzJSONShape|TestRouterReadFallbackToReplica|TestRouterAppendsNeverFallBack|TestRouterWithReplicas|TestRouterNoReplicas' -count 1 ./internal/server

    echo "== partition tolerance (netchaos cut/heal cycles, -race) =="
    go test -race -timeout 600s -run TestPartitionTolerantReads -count 1 ./internal/integration/chaostest

    echo "== follower crash torture (measured byte offsets, both crash models) =="
    REPLICA_CRASHTEST_ITERS=200 go test -run TestReplicaCrashTorture -count 1 ./internal/integration/crashtest

    echo "== replication wire fuzz smoke =="
    go test -run xxx -fuzz FuzzDecodeSegmentFrame -fuzztime 10s ./internal/replica > /dev/null
    go test -run xxx -fuzz FuzzDecodeProofBundle -fuzztime 10s ./internal/ledger > /dev/null
}

stage_bench() {
    echo "== write-path parallelism bench smoke =="
    go test -run xxx -bench BenchmarkAppendParallelism -benchtime 1x . > /dev/null

    echo "== audit/proof bench smoke =="
    go test -run xxx -bench BenchmarkAudit -benchtime 1x ./internal/audit > /dev/null
    go test -run xxx -bench 'BenchmarkProveExistence|BenchmarkExistenceBatch' -benchtime 1x ./internal/ledger > /dev/null
}

stage_perf() {
    echo "== hot-path bench smoke =="
    go test -run xxx -bench 'BenchmarkHotPathEncodeDigest|BenchmarkAppendSequential|BenchmarkAppendPipelined|BenchmarkGetJournalZeroCopy' \
        -benchtime 10x ./internal/ledger > /dev/null
    go test -run xxx -bench 'BenchmarkReadBuf|BenchmarkPooledWriter' -benchtime 10x ./internal/streamfs ./internal/wire > /dev/null 2>&1 || true
    go test -run xxx -bench 'BenchmarkDiskBlobs' -benchtime 1000x ./internal/streamfs > /dev/null

    echo "== allocs/op regression guards (encode+digest must be 0; Append within checked-in budget) =="
    go test -run 'TestEncodeDigestZeroAlloc|TestAppendAllocBudget' -count 1 -v ./internal/ledger | grep -E 'allocs/op|PASS|FAIL|ok '
    go test -run 'TestDigestHelpersDoNotAllocate' -count 1 ./internal/hashutil
    go test -run 'TestReadBufSteadyStateAllocs' -count 1 ./internal/streamfs
    go test -run 'TestInsertAllocBound|TestProveClueAllocsIgnoreClueCount' -count 1 -v ./internal/cmtree | grep -E 'allocs/op|PASS|FAIL|ok '

    echo "== compact trie proofs (4 branch hashes per branch a 1 000-clue insert rewrites; state proof within testdata/state_proof_bytes_budget; roots and proofs of every version match the from-definition trie; path mutation sweeps, bare and inside clue and state proofs; decoder fuzz seeds) =="
    go test -run 'TestInsertBranchHashes|TestClueProofPathMutations' -count 1 -v ./internal/cmtree | grep -E 'branch hashes|PASS|FAIL|ok '
    go test -run 'TestStateProofBytesBudget|TestStateProofPathMutations' -count 1 -v ./internal/ledger | grep -E 'state proof|PASS|FAIL|ok '
    go test -run 'TestTrieMatchesDefinition|TestProofMutationSoundness|FuzzDecodeProof' -count 1 ./internal/mpt

    echo "== proof-size budget (16-match batch on the 40 000-journal fixture within testdata/proof_batch16_bytes_budget; every shipped fam node consumed) =="
    go test -run 'TestProofBatch16BytesBudget' -count 1 -v ./internal/ledger | grep -E 'bytes|PASS|FAIL|ok '
    go test -run 'TestBatchProofMutations|TestFoldMultiNodeListMutations' -count 1 ./internal/merkle/fam ./internal/merkle/shrubs
    go test -run 'TestExistenceBatchMutationSoundness' -count 1 ./internal/ledger

    echo "== payload-log guards (10 000 payloads = one file per segment, <= 16 B framing each; erased bytes in no file; one rewrite per touched segment; memory-store parity) =="
    go test -run 'TestPayloadLogFileCount|TestPayloadLogEraseLeavesNoBytes|TestPayloadLogDeleteRewritesEachSegmentOnce|TestPayloadLogMatchesMemoryModel' -count 1 ./internal/streamfs

    echo "== verified-signature memo guard (repeat clue proof = 0 ECDSA; reads of the client's own writes = 1 ECDSA per distinct signed state; tampered replies still refused) =="
    go test -run 'TestMemoPerfGuard|TestOwnWritesVerifyWithoutECDSA|TestOwnWritesTamperVerdicts' -count 1 ./internal/client

    echo "== signature fan-out guards (warm 64-record clue verify within testdata/verify_clue_warm64_allocs_budget: no goroutine; cold one = one ECDSA verify per signature; forged lineage = 0 ECDSA; sweeps identical at GOMAXPROCS 1 and 4) =="
    go test -run 'TestVerifyClue64Costs' -count 1 -v ./internal/ledger | grep -E 'clue verify|PASS|FAIL|ok '
    go test -run 'TestVerifyClueFoldsBeforeSignatures|TestVerifierMemoDifferential' -count 1 ./internal/ledger

    echo "== held-record guard (repeat 64-version clue read and Limit-16 query read 0 journals; warm clue reply within testdata/clue_warm64_bytes_budget; own writes read back as placeholders only, within testdata/proof_own_bytes_budget; receipts bound to the request; placeholder mutation sweeps, warm and cold) =="
    go test -run 'TestHeldReadsSendNoRecordBytes|TestOwnWritesHeld' -count 1 -v ./internal/server | grep -E 'version clue|own writes|PASS|FAIL|ok '
    go test -run 'TestReceiptBindsRequest|TestOwnWritePlaceholderRefusals|TestOwnWritesFromConcurrentClones' -count 1 ./internal/client
    go test -run 'TestHeldMutationSoundness|TestHeldPlaceholderListMutations' -count 1 ./internal/ledger

    echo "== held-state guard (warm sealed-epoch proof on the 40 001-journal fixture within testdata/proof_warm_bytes_budget; 1 000 of them sign no state; unasked-for and forked state slots refused) =="
    go test -run 'TestWarmSealedProofBytes' -count 1 -v ./internal/server | grep -E 'epoch-0 journal|PASS|FAIL|ok '
    go test -run 'TestHeldStateLies|TestHeldStateMovesForward|TestHeldStateCloneMidRequest' -count 1 ./internal/client

    echo "== read-cost guard (mixed_verify cycle through Server: <= 2 state signatures per cycle where every read used to sign, 0 creates/writes/fsyncs of the index store on the query path) =="
    go test -run 'TestReadsDoNotPayForTheCommitBefore' -count 1 -v ./internal/server | grep -E 'state signatures|PASS|FAIL|ok '

    echo "== reopen guard (4 096-journal disk ledger + index: exact ReadAt count, chunked scans, 0 writes to the index store) =="
    go test -run 'TestReopenReadCount' -count 1 -v ./internal/server | grep -E 'ReadAt|PASS|FAIL|ok '

    echo "== routed-append guard (in-process shard backends >= 1.2x faster than client backends: one loopback round trip + one cold P-256 verify must not come back) =="
    ROUTED_PERF_GUARD=1 go test -run 'TestRoutedAppendLocalBeatsRemote' -count 1 -v ./internal/benchkit | grep -E 'routed append|PASS|FAIL|ok '

    echo "== ledgerbench (its own module: tier-1 does not reach it; TestServerDefaultsMatchMain pins the traced stack to main.go) =="
    (cd ledgerbench && go vet ./... && go test ./...)
}

stage_examples() {
    echo "== examples =="
    for ex in examples/*/; do
        echo "-- $ex"
        go run "./$ex" > /dev/null
    done
}

stage_cli() {
    echo "== cli smoke =="
    go build -o /tmp/ldbsrv-check ./cmd/ledgerdb-server
    go build -o /tmp/ldb-check ./cmd/ledgerdb
    /tmp/ldbsrv-check -addr 127.0.0.1:18421 -uri ledger://check &
    SRV=$!
    trap 'kill $SRV 2>/dev/null || true' EXIT
    sleep 1
    /tmp/ldb-check -server http://127.0.0.1:18421 -key-seed check append "hello" trail 2>/dev/null
    /tmp/ldb-check -server http://127.0.0.1:18421 verify 1 2>/dev/null
    /tmp/ldb-check -server http://127.0.0.1:18421 verify-clue trail 2>/dev/null
    /tmp/ldb-check -server http://127.0.0.1:18421 query prefix trail 2>/dev/null
    /tmp/ldb-check -server http://127.0.0.1:18421 absence no-such-clue 2>/dev/null
    kill $SRV
}

stage_experiments() {
    echo "== experiments (quick) =="
    # BENCH_hotpath.json is checked in; a smoke run must not rewrite it.
    go run ./cmd/bench -hotpath-json "$(mktemp)" all > /dev/null
}

stage_all() {
    stage_build
    stage_lint
    stage_tests
    stage_fuzz
    stage_race
    stage_crash
    stage_chaos
    stage_shard
    stage_query
    stage_replica
    stage_bench
    stage_perf
    stage_examples
    stage_cli
    stage_experiments
    echo "ALL CHECKS PASSED"
}

case "${1:-all}" in
    lint) stage_build; stage_lint ;;
    fuzz) stage_fuzz ;;
    race) stage_race ;;
    crash) stage_crash ;;
    chaos) stage_chaos ;;
    shard) stage_shard ;;
    query) stage_query ;;
    replica) stage_replica ;;
    perf) stage_perf ;;
    all) stage_all ;;
    *)
        echo "usage: $0 [lint|fuzz|race|crash|chaos|shard|query|replica|perf|all]" >&2
        exit 2
        ;;
esac
