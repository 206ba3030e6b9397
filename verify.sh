#!/usr/bin/env bash
# Tier-1 verify gate. CI runs exactly this script; run it locally before
# pushing. Every gate must pass:
#   1. go build      — everything compiles
#   2. go vet        — stock static analysis
#   3. mmlint        — repo-specific invariants (determinism, durability,
#                      panic discipline, goroutine plumbing); see cmd/mmlint
#   4. go test       — unit and integration tests
#   5. go test -race — the concurrency-heavy packages under the race detector
#      GOMAXPROCS=1  — and the suites the recovery walker's goroutines could
#                      disturb on a single P, so "byte-identical" and
#                      "pipelined" are not properties of one scheduler
#                      configuration (default-procs is gate 4, -race this
#                      one), plus docdb, so the client's connection pick,
#                      shared redial and mux loops also run on one P
#   6. bench module  — bench/ is its own module (repro/bench) that ./...
#                      never reaches; vet and test it so an API change in
#                      models/nn/core that breaks the benchmark fails here
#   7. big-endian    — cross-build tensor and nn for s390x, the only way
#                      the staging fallback of alias_fallback.go is compiled
#   8. non-linux     — cross-build filestore for darwin, the only way the
#                      !linux side of its build tags (no mmap, no write-back
#                      hint) is compiled
#   9. fuzz smoke    — ten seconds each beyond the checked-in corpora of
#                      FuzzConvMatchesReference (the convolution kernel must
#                      stay bit-identical to the direct kernel old models
#                      replay on) and FuzzServerFrame (no bytes a peer sends
#                      may panic the server, break its answer framing or make
#                      a header alone allocate more than one read chunk)
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

echo "==> go test -race ./internal/docdb ./internal/shard ./internal/evalflow ./internal/filestore ./internal/faultnet ./internal/train ./internal/tensor ./internal/nn ./internal/merkle ./internal/core ./internal/crashtest ./internal/obs ./internal/catalog"
go test -race ./internal/docdb ./internal/shard ./internal/evalflow ./internal/filestore ./internal/faultnet ./internal/train ./internal/tensor ./internal/nn ./internal/merkle ./internal/core ./internal/crashtest ./internal/obs ./internal/catalog

echo "==> GOMAXPROCS=1 go test ./internal/core ./internal/shard ./internal/crashtest ./internal/docdb"
GOMAXPROCS=1 go test -count=1 ./internal/core ./internal/shard ./internal/crashtest ./internal/docdb

echo "==> (cd bench && go vet . && go test .)"
(cd bench && go vet . && go test .)

echo "==> GOARCH=s390x go build ./internal/tensor/... ./internal/nn/..."
GOARCH=s390x go build ./internal/tensor/... ./internal/nn/...

echo "==> GOOS=darwin go build ./internal/filestore/..."
GOOS=darwin go build ./internal/filestore/...

echo "==> go test -run '^$' -fuzz FuzzConvMatchesReference -fuzztime 10s ./internal/nn"
go test -run '^$' -fuzz FuzzConvMatchesReference -fuzztime 10s ./internal/nn

echo "==> go test -run '^$' -fuzz FuzzServerFrame -fuzztime 10s ./internal/docdb"
go test -run '^$' -fuzz FuzzServerFrame -fuzztime 10s ./internal/docdb

echo "verify: all gates green"
