#!/usr/bin/env bash
# Compare the repo benchmark's digests in this working tree with those of
# another commit: the check that an engine refactor moved no observable.
#
# Usage:
#   scripts/digests.sh <ref>        # e.g. scripts/digests.sh HEAD~1
#
# Clones the repository into a scratch directory, checks out <ref> there and
# runs each of the four workloads in both trees:
#
#   go run -C bench repro/bench --workload W --seed 4242 --seconds 3
#
# It prints every workload's digests side by side (all distinct ones, should
# the repetitions disagree) and exits 1 if any workload's differ, 0 if all
# agree. About four minutes on two cores; the clone is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/digests.sh <ref>" >&2
  exit 2
fi
sha=$(git rev-parse --verify "$1^{commit}")

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
git clone -q . "$scratch/base"
git -C "$scratch/base" checkout -q "$sha"

# digests <tree> <workload>: the distinct digests of the workload's
# repetitions, comma-separated; "failed" when the run printed none.
digests() {
  local d
  d=$(go run -C "$1/bench" repro/bench --workload "$2" --seed 4242 --seconds 3 2>&1 |
    sed -n 's/^  rep .* digest \([0-9a-f]*\)$/\1/p' | sort -u | paste -sd, -) || true
  echo "${d:-failed}"
}

status=0
printf '%-18s %-14s %s\n' workload "${sha:0:12}" "this tree"
for w in table1_arpanet arpanet_faults hier1k_adaptive hier1k_dataplane; do
  base=$(digests "$scratch/base" "$w")
  here=$(digests . "$w")
  mark=""
  if [ "$base" != "$here" ] || [ "$base" = failed ]; then
    mark="  DIFFERS"
    status=1
  fi
  printf '%-18s %-14s %s%s\n' "$w" "$base" "$here" "$mark"
done
exit $status
