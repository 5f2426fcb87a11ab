#!/usr/bin/env bash
# Run the domain static-analysis suite (cmd/arpanetlint) over the whole
# repository: determinism (detdrift, interprocedural), sim.Handle
# discipline (handlecheck) and float comparison hygiene (floatexact).
#
# Usage:
#   scripts/lint.sh               # whole repo, human-readable
#   scripts/lint.sh -json         # machine-readable result schema
#   scripts/lint.sh -rules detdrift,handlecheck
#
# Exit status distinguishes outcomes so CI can route them:
#   0  clean tree
#   1  findings (or package load errors) — the tree needs work
#   2  driver error (bad flag, unknown rule, broken module) — the lint
#      run itself is unusable; do not treat it as "findings"
#
# Suppress an intentional site with "// lint:ignore <rule> <reason>" on
# the flagged line or the line above. The reason is mandatory, and stale
# suppressions are themselves findings.
set -uo pipefail
cd "$(dirname "$0")/.."

# Build a real binary instead of `go run`: go run collapses any nonzero
# child exit into its own exit 1, which would erase the findings(1) vs
# driver-error(2) distinction below.
BINDIR="$(mktemp -d)"
trap 'rm -rf "$BINDIR"' EXIT
go build -o "$BINDIR/arpanetlint" ./cmd/arpanetlint || exit 2

"$BINDIR/arpanetlint" "$@" ./...
status=$?
case "$status" in
  0) echo "lint: clean" ;;
  1) echo "lint: findings reported (exit 1)" >&2 ;;
  *) echo "lint: driver error (exit $status)" >&2 ;;
esac
exit "$status"
