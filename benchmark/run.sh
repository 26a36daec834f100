#!/usr/bin/env bash
# Build the repair CLI and the benchmark harness from source, then run the
# benchmark: `bash benchmark/run.sh --workload campaign --seed 1 --seconds 30
# --trace 0`. Arguments go to `rbbench run` (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display quiet \
  ./bin/rustbrain_cli.exe ./benchmark/rbbench.exe 1>&2
exec ./_build/default/benchmark/rbbench.exe run "$@"
