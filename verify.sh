#!/usr/bin/env bash
# Tier-1 verify gate. CI runs exactly this script; run it locally before
# pushing. Every gate must pass:
#   1. go build      — everything compiles
#   2. go vet        — stock static analysis
#   3. mmlint        — repo-specific invariants (determinism, durability,
#                      panic discipline, goroutine plumbing, tensor Data()
#                      slices kept local so every write stales the digest a
#                      save stamped); see cmd/mmlint
#   4. go test       — unit and integration tests
#   5. go test -race — the concurrency-heavy packages under the race detector,
#                      then the round-trip, walker, transaction, rollback,
#                      legacy-store, concurrent cache-hit, net-fill and
#                      early-write tests of core three times more: the
#                      walker reads a model's environment document on its
#                      own goroutine beside the chain read, a save reads its
#                      base's layer hashes beside the base, concurrent hits
#                      share the cache's one read-only state, a recovered
#                      net's tensors are copied in by the worker pool, each
#                      worker writing tensors of its own, and a parameter
#                      update is written on its own goroutine beside the
#                      digest pass and the side-document wave, and written
#                      again when the diff disagrees with its guess
#      GOMAXPROCS=1  — and the suites the recovery walker's goroutines could
#                      disturb on a single P, so "byte-identical" and
#                      "pipelined" are not properties of one scheduler
#                      configuration (default-procs is gate 4, -race this
#                      one), plus docdb, so the client's connection pick,
#                      shared redial and mux loops also run on one P, and
#                      nn and filestore, whose save paths hash on a second
#                      goroutine beside the serializer and the file writes,
#                      and par, tensor, catalog and models: every CPU pool
#                      is sized by GOMAXPROCS, so one P runs their one-worker
#                      paths (models builds a recovered net, whose fill is
#                      such a pool)
#   6. examples      — go run each examples/* program: the only end-to-end
#                      users of mmlib (model_registry drives the catalog's
#                      Stats, Chain, Delete and CollectGarbage and stores a
#                      dataset by reference); each exits non-zero on
#                      any failed call or inexact recovery
#   7. bench module  — bench/ is its own module (repro/bench) that ./...
#                      never reaches; vet, test and mmlint it so an API
#                      change in models/nn/core that breaks the benchmark,
#                      or a benchmark change that breaks an invariant,
#                      fails here
#   8. other arches  — cross-build tensor, nn, vec and train for s390x, the
#                      only way the staging fallback of alias_fallback.go
#                      and vec's scalar-only side (vec_other.go) are
#                      compiled, and vet nn, train and vec for arm64, so
#                      the side without assembly is checked too (gate 2's
#                      asmdecl checks the amd64 assembly's frame offsets)
#   9. non-linux     — cross-build filestore for darwin, the only way the
#                      !linux side of its build tags (no mmap, no write-back
#                      hint) is compiled
#  10. fuzz smoke    — ten seconds each beyond the checked-in corpora of
#                      FuzzConvMatchesReference (the convolution kernel must
#                      stay bit-identical to the direct kernel old models
#                      replay on, on the AVX2 kernels and on their scalar
#                      twins), FuzzVecMatchesScalar (each AVX2 kernel must
#                      match its scalar twin bit for bit, NaN payloads
#                      included), FuzzReadStateDict (no bytes on disk may
#                      panic the state-dict decoders, make them disagree or
#                      decode a tensor whose shape lies about its size),
#                      FuzzFramesHash (no bytes may panic the parameter
#                      blob's audit, and the frames hash a save records
#                      must equal the audit of the bytes it wrote),
#                      FuzzServerFrame (no bytes a peer sends may panic the
#                      server, break its answer framing or make a header
#                      alone allocate more than one read chunk),
#                      FuzzParseSpec (no model-code blob may panic the spec
#                      parser or ask recovery to build a model that cannot
#                      be allocated) and FuzzSaveAfterWrites (every way a
#                      tensor is written must make the next save re-hash
#                      it: the stored update and the recovered model match
#                      a save that reuses no digest, whether the update was
#                      written early on a guess that held, written again,
#                      or written after the diff)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/mmlint ./..."
go run ./cmd/mmlint ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./internal/docdb ./internal/shard ./internal/evalflow ./internal/filestore ./internal/faultnet ./internal/train ./internal/tensor ./internal/nn ./internal/merkle ./internal/core ./internal/crashtest ./internal/obs ./internal/catalog ./internal/par"
go test -race ./internal/docdb ./internal/shard ./internal/evalflow ./internal/filestore ./internal/faultnet ./internal/train ./internal/tensor ./internal/nn ./internal/merkle ./internal/core ./internal/crashtest ./internal/obs ./internal/catalog ./internal/par

echo "==> go test -race -count=3 -run 'RoundTrip|Walk|Txn|Rollback|Legacy|NeverAliasesCache|NotFit|OwnsItsStorage|OneStateSize|EarlyWrite|UpdateRewrites' ./internal/core"
go test -race -count=3 -run 'RoundTrip|Walk|Txn|Rollback|Legacy|NeverAliasesCache|NotFit|OwnsItsStorage|OneStateSize|EarlyWrite|UpdateRewrites' ./internal/core

echo "==> GOMAXPROCS=1 go test ./internal/core ./internal/shard ./internal/crashtest ./internal/docdb ./internal/nn ./internal/filestore ./internal/par ./internal/tensor ./internal/catalog ./internal/models"
GOMAXPROCS=1 go test -count=1 ./internal/core ./internal/shard ./internal/crashtest ./internal/docdb ./internal/nn ./internal/filestore ./internal/par ./internal/tensor ./internal/catalog ./internal/models

for ex in examples/*/; do
	echo "==> go run ./$ex"
	go run "./$ex" >/dev/null
done

echo "==> (cd bench && go vet . && go test . && go run repro/cmd/mmlint ./...)"
(cd bench && go vet . && go test . && go run repro/cmd/mmlint ./...)

echo "==> GOARCH=s390x go build ./internal/tensor/... ./internal/nn/... ./internal/vec/... ./internal/train/..."
GOARCH=s390x go build ./internal/tensor/... ./internal/nn/... ./internal/vec/... ./internal/train/...

echo "==> GOARCH=arm64 go vet ./internal/nn ./internal/train ./internal/vec"
GOARCH=arm64 go vet ./internal/nn ./internal/train ./internal/vec

echo "==> GOOS=darwin go build ./internal/filestore/..."
GOOS=darwin go build ./internal/filestore/...

echo "==> go test -run '^$' -fuzz FuzzConvMatchesReference -fuzztime 10s ./internal/nn"
go test -run '^$' -fuzz FuzzConvMatchesReference -fuzztime 10s ./internal/nn

echo "==> go test -run '^$' -fuzz FuzzVecMatchesScalar -fuzztime 10s ./internal/vec"
go test -run '^$' -fuzz FuzzVecMatchesScalar -fuzztime 10s ./internal/vec

# Minimizing a new input cut from a 17 KB seed takes the rest of the ten
# seconds at the default -fuzzminimizetime (1.8k execs instead of 30k);
# FuzzFramesHash seeds from the same corpus.
echo "==> go test -run '^$' -fuzz '^FuzzReadStateDict$' -fuzztime 10s -fuzzminimizetime 1s ./internal/nn"
go test -run '^$' -fuzz '^FuzzReadStateDict$' -fuzztime 10s -fuzzminimizetime 1s ./internal/nn

echo "==> go test -run '^$' -fuzz '^FuzzFramesHash$' -fuzztime 10s -fuzzminimizetime 1s ./internal/nn"
go test -run '^$' -fuzz '^FuzzFramesHash$' -fuzztime 10s -fuzzminimizetime 1s ./internal/nn

echo "==> go test -run '^$' -fuzz FuzzServerFrame -fuzztime 10s ./internal/docdb"
go test -run '^$' -fuzz FuzzServerFrame -fuzztime 10s ./internal/docdb

echo "==> go test -run '^$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/models"
go test -run '^$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/models

echo "==> go test -run '^$' -fuzz FuzzSaveAfterWrites -fuzztime 10s ./internal/core"
go test -run '^$' -fuzz FuzzSaveAfterWrites -fuzztime 10s ./internal/core

echo "verify: all gates green"
