#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, in this process (what /BENCHMARK.json's command runs)
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]
#       all workloads, each in a child process; writes benchmark/out/results.json
#
# The build runs from the repository root so that the root's
# .cargo/config.toml (target-cpu=native) applies to it, as it does to every
# other build of the repository.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/brainsim-benchmark" "$@"
