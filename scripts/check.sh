#!/bin/sh
# Pre-PR gate: vet, build, and race-test the whole module.
# Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."

# need PKG RE: fail unless every |-separated alternative of RE names at
# least one test, benchmark or fuzz target in PKG. go test exits 0 with
# "[no tests to run]" (or "no fuzz tests to fuzz") when a selector matches
# nothing, so a renamed test would otherwise drop out of its gate silently.
need() {
	list=$(go test -list "$2" "$1")
	for alt in $(printf '%s\n' "$2" | tr '|' ' '); do
		if ! printf '%s\n' "$list" | grep -Eq "$alt"; then
			echo "check.sh: '$alt' names nothing in $1" >&2
			exit 1
		fi
	done
}

# gate PKG RE FLAGS...: need PKG RE, then go test FLAGS -run RE PKG.
gate() {
	pkg=$1 re=$2
	shift 2
	need "$pkg" "$re"
	go test "$@" -run "$re" "$pkg"
}

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
test -z "$unformatted" || { echo "check.sh: not gofmt-clean: $unformatted" >&2; exit 1; }
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== portable field kernel: GOARCH=arm64 go vet ./... and go build ./..."
GOARCH=arm64 go vet ./...
GOARCH=arm64 go build ./...
echo "== go test -race -short ./..."
go test -race -short ./...
echo "== streaming-batch race gate (+ RPC listener close with a client connected)"
gate ./internal/cloud/ 'TestStreamingBatchRace|TestFetchDuringReEncryptNoRace|TestRPCListenerCloseWithOpenClient' -race -count=2
echo "== storage race gate: crash recovery + multi-owner mixed traffic"
gate ./internal/cloud/ 'TestFileStoreCrashRecovery|TestMultiOwnerMixedRace' -race -count=2
echo "== group-commit race gate: concurrent writers + kill-at-any-point"
gate ./internal/cloud/ 'TestFileStoreGroupCommit|TestFileStoreKillAnywhere' -race -count=2
echo "== cloud suite on the file backend (MAACS_STORE=file)"
MAACS_STORE=file go test -count=1 ./internal/cloud/
echo "== fetch race gate: served bytes = fresh render + fetches raced against re-store, re-encrypt and delete"
gate ./internal/cloud/ 'TestFetchMatchesFreshRender|TestFetchRacingMutationsMatchesStore' -race -count=2
echo "== benchmark module (separate go.mod): vet + smoke test"
(cd benchmark && go vet ./... && go test -count=1 ./...)
echo "== go test -race ./internal/pairing"
go test -race -count=1 ./internal/pairing
echo "== element-table race gate: concurrent first Prepared/ExpTable on one element"
gate ./internal/pairing 'TestElementTablesBuiltOnce' -race -count=2
echo "== decoded-element cache race gate"
gate ./internal/engine 'TestDecodeCache' -race -count=2
echo "== alloc pins: comb evaluation + field primitives (race off: AllocsPerRun)"
gate ./internal/pairing 'TestCombExpMontAllocs|TestHotPathZeroBigIntAllocs' -count=1
echo "== bench smoke: pairing kernels"
need ./internal/pairing BenchmarkPair
go test -run=NoTests -bench=Pair -benchtime=1x ./internal/pairing
echo "== fuzz smoke: Montgomery field vs math/big, 2 limbs and paper-scale 8 limbs (mulMont8)"
need ./internal/pairing FuzzFpMontgomery
go test -run=NoTests -fuzz=FuzzFpMontgomery -fuzztime=5s ./internal/pairing
echo "== fuzz smoke: Lehmer inversion vs Fermat and ModInverse"
need ./internal/pairing FuzzFpInvLehmer
go test -run=NoTests -fuzz=FuzzFpInvLehmer -fuzztime=5s ./internal/pairing
echo "== fuzz smoke: UnmarshalG's x-only subgroup test vs r·P = O by the affine ladder"
need ./internal/pairing FuzzUnmarshalG
go test -run=NoTests -fuzz='^FuzzUnmarshalG$' -fuzztime=5s ./internal/pairing
echo "== fuzz smoke: pairing, prepared walk, PairMul, MultiExp and ladders vs the affine reference"
need ./internal/pairing FuzzPairKernels
go test -run=NoTests -fuzz=FuzzPairKernels -fuzztime=5s ./internal/pairing
echo "== fuzz smoke: Decrypt vs Eq. 1 over random policies and attribute sets"
need ./internal/core FuzzDecryptMatchesEq1
go test -run=NoTests -fuzz=FuzzDecryptMatchesEq1 -fuzztime=5s ./internal/core
echo "== fuzz smoke: ciphertext decoder, cached elements vs direct decode"
need ./internal/core FuzzUnmarshalCiphertext
go test -run=NoTests -fuzz=FuzzUnmarshalCiphertext -fuzztime=5s ./internal/core
echo "== OK"
