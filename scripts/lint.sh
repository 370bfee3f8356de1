#!/usr/bin/env bash
# lint.sh — the repo's one lint entry point, run by the CI lint gate and
# locally before sending a change. Layers, in fail-fast order:
#
#   1. gofmt -l -s      formatting and simplification drift
#   2. go vet           the standard analyzer suite
#   3. staticcheck      if installed (CI installs it; optional locally)
#   4. govulncheck      if installed (optional everywhere; advisory for a
#                       dependency-free module, but catches stdlib CVEs)
#   5. megalint         the project's own invariant analyzers
#                       (internal/lint: hotalloc, envref, atomicfield,
#                       sendunderlock, pointstamp, and the whole-program
#                       unreached check: code under internal/ that only
#                       tests call, and exported fields no running code
#                       sets — see DESIGN.md)
#   6. no encoding/gob  no non-test package imports it: whatever crosses a
#                       process or lands in a checkpoint is binary (go
#                       list's .Imports leaves out test imports)
#      no container/heap  likewise: what waits for a logical time queues in
#                       dataflow.TimeQueue, and every other heap sifts with
#                       its HeapPush/HeapPop (one typed heap, nothing boxed)
#
# Tools that are not on PATH are skipped with a notice rather than failing:
# the module has no dependencies, so the two optional tools cannot be
# vendored, and a contributor without them still gets the full mandatory
# set. Everything that does run must pass.
set -u
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt -l -s"
out=$(gofmt -l -s .)
if [ -n "$out" ]; then
  echo "gofmt needed on:"
  echo "$out"
  fail=1
fi

echo "== go vet ./..."
go vet ./... || fail=1

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck ./..."
  staticcheck ./... || fail=1
else
  echo "== staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck ./..."
  govulncheck ./... || fail=1
else
  echo "== govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== megalint ./..."
go run ./cmd/megalint ./... || fail=1

imports=$(go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./...)
for pkg in encoding/gob container/heap; do
  echo "== no $pkg outside tests"
  out=$(echo "$imports" | grep -E " $pkg( |\$)")
  if [ -n "$out" ]; then
    echo "$pkg imported by:"
    echo "$out" | cut -d: -f1
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: ok"
