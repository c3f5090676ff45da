#!/usr/bin/env bash
# Build seussbench from this checkout's sources, then run it with the
# given arguments, e.g.
#   bash seussbench/run.sh --workload hot_zipf --seed 1 --seconds 25 --trace 0
# Build output goes to stderr so the report's last stdout line stays the
# JSON result. Fails (nonzero, no result) when the sources do not build.
set -euo pipefail
cd "$(dirname "$0")/.."
# --root . keeps dune from adopting a dune-project above the checkout,
# and with its shared cache off the build writes only under _build.
DUNE_CACHE=disabled dune build --root . ./seussbench/seussbench.exe 1>&2
exec ./_build/default/seussbench/seussbench.exe "$@"
