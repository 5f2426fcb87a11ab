#!/usr/bin/env bash
# Regenerate results/: the Table 1 study over three seeds, every figure, and
# the Table 1 study at 1024 nodes, the raw outputs EXPERIMENTS.md quotes.
# Every command is seeded, so the files change only when the code's output
# does (the 1024-node legs take most of the time, about a minute on two
# cores).
#
# Usage:
#   scripts/results.sh                        # rewrite results/
#   scripts/results.sh && git diff --exit-code results/   # what CI checks
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/arpanetsim" ./cmd/arpanetsim
"$tmp/arpanetsim" -seeds 3 -seed 1987 > "$tmp/table1.txt"
go run ./cmd/figures -seed 1987 > "$tmp/figures.txt"
# EXPERIMENTS.md "Table 1 at 1024 nodes": four metrics at a light and a heavy
# rate, through four shards.
for rate in 0.3 2; do
	for metric in minhop dspf hnspf bf1969; do
		echo "== arpanetsim -shards 4 -topology hier:32x32 -metric $metric -rate $rate -warmup 0 -seconds 120 -seed 1987"
		"$tmp/arpanetsim" -shards 4 -topology hier:32x32 -metric "$metric" -rate "$rate" -warmup 0 -seconds 120 -seed 1987
		echo
	done
done > "$tmp/table1_hier1k.txt"
mv "$tmp/table1.txt" "$tmp/figures.txt" "$tmp/table1_hier1k.txt" results/
