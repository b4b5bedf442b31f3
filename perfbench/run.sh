#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload sweep-bw --seed 1 --seconds 10 --trace 0
#
# Every build artefact and output stays under .bench_build/ at the root
# of the checkout. --workload all runs the three workloads one after
# another, each in its own process, and prints each one's metrics.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"

args=("$@")
for i in "${!args[@]}"; do
	if [[ "${args[$i]}" == "all" && $i -gt 0 && "${args[$((i - 1))]}" == --workload ]]; then
		status=0
		for w in sweep-bw sweep-walk serve-jobs; do
			args[$i]=$w
			"$out/perfbench" -out "$out" "${args[@]}" || status=1
		done
		exit $status
	fi
done
exec "$out/perfbench" -out "$out" "$@"
