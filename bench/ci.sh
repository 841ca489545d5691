#!/bin/sh
# What a CI job runs for the benchmark (this PR cannot edit .github/):
# the self-tests, one quick pass, and a report-only comparison against
# the committed baseline.  Quick runs are 1/20 size, so the comparison
# is a smoke test of the tooling, not a performance gate.
set -eu
cd "$(dirname "$0")/.."
python3 -m pytest bench/tests -q
python3 -m bench --quick --json bench/results/ci_quick.json
python3 -m bench.compare --report-only \
    bench/results/baseline_a.json bench/results/ci_quick.json
