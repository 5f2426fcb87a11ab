#!/usr/bin/env bash
# Fuzz every fuzz target in the module, one session of the given length
# each. The targets are whatever `go test -list '^Fuzz' ./...` prints, so a
# new target is fuzzed here, by scripts/check.sh and by the weekly workflow
# (both call this script) without a list to update.
#
# Usage:
#   scripts/fuzz.sh 30s     # each target for 30 s (scripts/check.sh's default)
#   scripts/fuzz.sh 10m     # the weekly session
#
# go test fuzzes one target of one package per invocation, so the targets run
# one after another and the script stops at the first failure; the failing
# input lands in that package's testdata/fuzz/. -run '^$' keeps each
# invocation from running the package's tests first (CI's corpus step runs
# every corpus as tests).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/fuzz.sh <fuzztime>" >&2
  exit 2
fi

# go test -list prints a package's targets one a line, then its "ok" line
# with the package path: pair each target with the path that follows it.
targets=$(go test -list '^Fuzz' ./... |
  awk '/^Fuzz/ { t[n++] = $1 } $1 == "ok" { for (i = 0; i < n; i++) print t[i], $2; n = 0 }')

while read -r target pkg; do
  go test -run '^$' -fuzz "^$target\$" -fuzztime "$1" "$pkg" </dev/null
done <<<"$targets"
