#!/bin/bash
# Build the server and the benchmark from this checkout, then run nvbench
# with the given arguments.  Run from the root of the repository:
#
#   bash bench/nvbench/run.sh --workload kv_read --seed 1 --seconds 10 --trace 0
#   bash bench/nvbench/run.sh run --seed 1
#
# Everything the run writes stays in the checkout: _build/ and .nvbench/.
set -euo pipefail
export DUNE_CACHE=disabled
mkdir -p .nvbench/tmp
export TMPDIR="$PWD/.nvbench/tmp"
dune build --root . --display quiet bin/nvkv_server.exe bench/nvbench/nvbench.exe 1>&2
exec ./_build/default/bench/nvbench/nvbench.exe "$@"
