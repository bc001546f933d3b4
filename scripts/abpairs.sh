#!/usr/bin/env bash
# Ten alternating pairs of the repository's benchmark, BASE against HEAD:
#
#   scripts/abpairs.sh BASE [HEAD]
#
# Both are anything `git archive` takes (a commit, a tag, a tree). Each is
# checked out into .bench_build/ab/ and runs its own copy of bench/, built
# from its own sources, the way the PR driver does:
#
#   bash bench/run.sh --workload W --seed S --seconds 24 --trace 0
#
# for seeds 1-10 on every workload BENCHMARK.json names, the side that goes
# first alternating by pair. The tables that come out are EXPERIMENTS.md's
# (median [Q1, Q3], Δ, wins, failed operations); the exit status is 1 when
# an end-to-end metric's median is worse than BASE's by more than its
# BENCHMARK.json bound, or a larger share of operations failed.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
base=${1:?usage: scripts/abpairs.sh BASE [HEAD]}
head=${2:-HEAD}
ab=$root/.bench_build/ab
rm -rf "$ab"
mkdir -p "$ab/base" "$ab/head" "$ab/out"
git -C "$root" archive "$base" | tar -x -C "$ab/base"
git -C "$root" archive "$head" | tar -x -C "$ab/head"
table=(go run "$root/scripts/abtable.go" "$root/BENCHMARK.json")

for w in $("${table[@]}" -workloads); do
	for s in 1 2 3 4 5 6 7 8 9 10; do
		order="base head"
		if ((s % 2 == 0)); then order="head base"; fi
		for side in $order; do
			echo "abpairs: $w seed $s $side" >&2
			# The run's record line (per-point times, host noise) and its
			# result line. A failed operation exits non-zero after printing
			# both; the table counts it.
			bash "$ab/$side/bench/run.sh" --workload "$w" --seed "$s" --seconds 24 --trace 0 2>/dev/null |
				tail -n 2 >"$ab/out/$side.$w.$s.json" || true
		done
	done
done
"${table[@]}" "$ab/out"
