#!/usr/bin/env bash
# Build perf.exe from this checkout and run it:
#   bash bench/perf/run.sh --workload hunt --seed 1 --seconds 20 --trace 0
# Any `perf.exe run` arguments pass through.  Must sit in a full checkout
# of the repository; anywhere else it exits 2 without a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/perf/run.sh: $root is not a checkout of the repository" >&2
  exit 2
fi
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# the shared dune cache would write outside the checkout
DUNE_CACHE=disabled dune build --root . ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe run "$@"
