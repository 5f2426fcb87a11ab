#!/usr/bin/env bash
# Count the repository's code lines: non-test Go files outside bench/, with
# blank lines and comment-only lines (// lines and the lines of a /* */
# block) left out. Prints one line per package directory, then the total.
#
# Usage:
#   scripts/lines.sh            # the working tree
#   scripts/lines.sh <dir>      # another checkout, e.g. a clone of a parent commit
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | sort -z |
	xargs -0 awk '
	FNR == 1 { block = 0; dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = "." }
	{
		line = $0
		code = 0
		while (line != "") {
			if (block) {
				end = index(line, "*/")
				if (end == 0) { line = ""; break }
				line = substr(line, end + 2)
				block = 0
				continue
			}
			sub(/^[ \t]+/, "", line)
			if (line == "" || substr(line, 1, 2) == "//") break
			if (substr(line, 1, 2) == "/*") { block = 1; line = substr(line, 3); continue }
			code = 1
			break
		}
		if (code) { n[dir]++; total++ }
	}
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
