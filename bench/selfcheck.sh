#!/usr/bin/env bash
# The noise gate: runs the whole benchmark on this commit in two sets,
# alternating between them, each run on its own seed, and fails unless
# the two sets' medians agree within the bounds of BENCHMARK.json on
# every end-to-end metric of every workload (and no operation failed).
# The ungated client.* speed figures of both sets are printed next to
# them.
#
#   bash bench/selfcheck.sh [runs per set, default 3]
#
# The reports are kept in bench/out/selfcheck/{a,b}.ndjson.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

runs="${1:-3}"
if (( runs < 3 )); then
	echo "selfcheck: a median needs at least 3 runs per set" >&2
	exit 2
fi

out="bench/out/selfcheck"
rm -rf "$out"
mkdir -p "$out"

seed=1
for (( r = 1; r <= runs; r++ )); do
	for set in a b; do
		for workload in ask_cold ask_warm cypher_read cypher_rw; do
			echo "selfcheck: set $set run $r/$runs $workload seed $seed" >&2
			bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0 \
				-record "$out/$set.ndjson" >"$out/last-run.txt"
		done
		seed=$(( seed + 1 ))
	done
done

status=0
.bench_build/chatiyp-bench -compare "$out/a.ndjson" "$out/b.ndjson" || status=1
.bench_build/chatiyp-bench -compare "$out/b.ndjson" "$out/a.ndjson" || status=1
if (( status != 0 )); then
	echo "selfcheck: the two sets disagree beyond a bound" >&2
fi
exit "$status"
