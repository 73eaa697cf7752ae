#!/usr/bin/env bash
# Build the campaign benchmark from source (release profile) and run it.
#
#   bash campaign_bench/run.sh --workload kv_campaign --seed 1 --seconds 30 --trace 0
#
# Must be started from the repository root. Build output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export DUNE_CACHE=disabled
dune build --root . --profile release ./campaign_bench/main.exe 1>&2
exec ./_build/default/campaign_bench/main.exe "$@"
