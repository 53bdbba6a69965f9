#!/usr/bin/env bash
# Build the benchmark, run every workload (end-to-end, then traced) and the
# layer drivers, and print what each phase took.
#
#   benchmark/run.sh [SEED] [OUT.json]
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
seed=${1:-2019}
out=${2:-$here/out/result-seed-$seed.json}

# Host times mean nothing on a box that is already busy.
cores=$(nproc)
load=$(cut -d' ' -f1 /proc/loadavg)
if awk -v l="$load" -v c="$cores" 'BEGIN { exit !(l > c) }'; then
    echo "load average $load is beyond $cores cores: the box is busy, not starting" >&2
    exit 1
fi

# Runs a phase and leaves the seconds it took in $took.
phase() {
    local name=$1 start
    shift
    start=$(date +%s)
    "$@"
    took=$(($(date +%s) - start))
    echo "phase $name: $took s" >&2
}

cd "$root"
mkdir -p "$(dirname "$out")"
phase build cargo build --release --offline --manifest-path benchmark/Cargo.toml
took_build=$took
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/intellinoc-benchmark
phase run "$bin" run --seed "$seed" --out "$out"
took_run=$took
phase layers "$bin" layers --seed "$seed" --out "$out"

# The contract's cap: 4 + 22 x 6 runs and two builds within 3420 s. `run`
# above made 12 runs, one of each kind.
runs=136
projected=$((took_run * runs / 12 + 2 * took_build))
echo "projected driver total: $projected s of the 3420 s cap ($runs runs and two builds; a rebuild here took $took_build s, a build from nothing takes about 35 s)" >&2
