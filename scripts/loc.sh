#!/usr/bin/env bash
# loc.sh <base-rev> — net line count of non-test Go code since <base-rev>.
#
# Prints the lines added, deleted and their difference in .go files
# between <base-rev> and the working tree, untracked files included,
# leaving out _test.go files and anything under a testdata/ directory:
#
#	scripts/loc.sh origin/main
#	added 197 deleted 258 net -61
set -euo pipefail

base=${1:?usage: scripts/loc.sh <base-rev>}
cd "$(git rev-parse --show-toplevel)"

# numstat's added/deleted/path lines, untracked files as all added.
{
	git diff --numstat "$base" -- '*.go'
	git ls-files -z --others --exclude-standard -- '*.go' |
		xargs -0 -r wc -l | awk '$2 != "total" {print $1 "\t0\t" $2}'
} | awk -F'\t' '$1 != "-" && $3 !~ /_test\.go$/ && $3 !~ /(^|\/)testdata\// {a += $1; d += $2}
	END {printf "added %d deleted %d net %d\n", a, d, a - d}'
