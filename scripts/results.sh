#!/usr/bin/env bash
# Regenerate results/: the Table 1 study over three seeds and every figure,
# the raw outputs EXPERIMENTS.md quotes. Both commands are seeded, so the
# files change only when the code's output does (about 10 s in all).
#
# Usage:
#   scripts/results.sh                        # rewrite results/
#   scripts/results.sh && git diff --exit-code results/   # what CI checks
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/arpanetsim -seeds 3 -seed 1987 > "$tmp/table1.txt"
go run ./cmd/figures -seed 1987 > "$tmp/figures.txt"
mv "$tmp/table1.txt" "$tmp/figures.txt" results/
