#!/usr/bin/env bash
# Run the randomized correctness harness: checker campaigns plus a short
# fuzzing pass per target, after printing the code-line count
# (scripts/lines.sh). This is the local equivalent of the weekly CI
# workflow, scaled down by default.
#
# Usage:
#   scripts/check.sh                        # 500 campaigns + 30s fuzz per target
#   CAMPAIGNS=5000 scripts/check.sh         # the weekly long campaign
#   SEED=1234 scripts/check.sh              # different seed range
#   FUZZTIME=10m scripts/check.sh           # longer fuzzing session
#   FUZZTIME=0 scripts/check.sh             # campaigns only
#
# Campaign i runs under SEED+i and is deterministic, so any failure
# reproduces alone with:  go run ./cmd/checker -campaigns 1 -seed <seed>
# Reproducers (minimized op lists, .scn scripts) land in ./repro-artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

campaigns="${CAMPAIGNS:-500}"
seed="${SEED:-1}"
fuzztime="${FUZZTIME:-30s}"

scripts/lines.sh
go run ./cmd/checker -campaigns "$campaigns" -seed "$seed" -out repro-artifacts

if [ "$fuzztime" != 0 ]; then
  scripts/fuzz.sh "$fuzztime"
fi
