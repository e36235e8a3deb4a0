#!/usr/bin/env bash
# Build the benchmark and the crush CLI it drives, then run it with the
# given arguments.  Run from the repository root:
#   bash bench/perf/run.sh --workload simulate --seed 1 --seconds 16 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f dune-project ]]; then
  echo "run.sh: $root is not a checkout of the crush repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --display=quiet bench/perf/crush_bench.exe bin/crush_cli.exe >&2
exec ./_build/default/bench/perf/crush_bench.exe "$@"
