#!/bin/sh
# Runs the dispatch wire benchmarks and renders the number that matters
# — HTTP round trips per executed cell on the lease:batch wire at batch
# depth 1 (one cell per round trip) vs 16 — into BENCH_dispatch.json.
# CI runs this and commits/refreshes the artifact so the collapse ratio
# is reviewable in the diff; locally:
#
#   scripts/bench-dispatch.sh [benchtime]     # default 100x
#
# Plain go test + awk: no jq, no external deps.
set -eu

benchtime="${1:-100x}"
out="BENCH_dispatch.json"
cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench 'BenchmarkDispatchWire_Batched1$|BenchmarkDispatchWire_Batched16' \
	-benchtime "$benchtime" ./internal/dispatch)

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
