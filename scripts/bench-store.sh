#!/bin/sh
# Runs the store write-path benchmarks and renders the numbers that
# matter — ns/op plus the cells and fsyncs of one group-committed batch
# — into BENCH_store.json. CI runs this and commits/refreshes the
# artifact so the group commit is reviewable in the diff; locally:
#
#   scripts/bench-store.sh [benchtime]     # default 100x
#
# Plain go test + awk: no jq, no external deps.
set -eu

benchtime="${1:-100x}"
out="BENCH_store.json"
cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench 'BenchmarkStorePut$|BenchmarkStorePutBatch' \
	-benchtime "$benchtime" ./internal/store)

printf '%s\n' "$raw" | awk -v benchtime="$benchtime" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)           # strip the -GOMAXPROCS suffix
		ns[name] = $3
		for (i = 5; i + 1 <= NF; i += 2) {  # after "ns/op": "value unit" pairs
			unit = $(i + 1)
			gsub(/\//, "_per_", unit)
			metric[name "\x1f" unit] = $i
			units[unit] = 1
		}
		order[++n] = name
	}
	END {
		if (n == 0) { print "no benchmark output" > "/dev/stderr"; exit 1 }
		printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": {", benchtime
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "%s\n    \"%s\": {\"ns_per_op\": %s", (i > 1 ? "," : ""), name, ns[name]
			for (u in units)
				if ((name "\x1f" u) in metric)
					printf ", \"%s\": %s", u, metric[name "\x1f" u]
			printf "}"
		}
		print "\n  }"
		print "}"
	}
' > "$out"

echo "wrote $out:"
cat "$out"
