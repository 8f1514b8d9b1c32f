#!/usr/bin/env bash
# A/A: run the full benchmark twice on one commit and hold the two sets
# against the benchmark's own bounds.
#
# Each set is 10 end-to-end runs of every workload, run k with seed
# `--seed` + k. For every end-to-end metric and workload it
# prints both medians, both quartile spreads ((Q3-Q1)/median, quartiles as
# Python's statistics.quantiles(n=4) gives them) and the worsening of the
# second median, and exits non-zero if a timing metric misses its bound or
# an exact metric (model_*, code_*) differs at all between any two runs.
#
#   benchmark/aa.sh                 # 2 x 10 runs x 5 workloads, ~35 min
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --aa "$@"
