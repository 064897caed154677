#!/bin/sh
# Builds and runs every pipeline-benchmark workload; see README.md.
# Arguments go to run.py: --trace, --seed N.
cd "$(dirname "$0")/../.." && exec python3 bench/pipeline/run.py "$@"
