#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Everything here runs offline — the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> t3-lint (determinism & fidelity gate, SARIF artifact)"
# Fails on any diagnostic not grandfathered in lint-baseline.txt;
# baselined findings stay visible in the output and in the SARIF
# artifact (note-level results with suppression records).
cargo run --release -q -p t3-lint -- --sarif target/t3-lint.sarif

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> perfbench build + tests (host-time benchmark harness)"
# perfbench is a workspace of its own that calls the simulator's public
# entry points (run_multi_gpu_fused_rs_on/_sharded,
# run_fused_gemm_rs_instrumented, run_gemm_isolated_in_mode), so a
# refactor that breaks one fails here. Its build output stays under
# target/ so a CI pass leaves the working tree clean.
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline -q \
    --manifest-path perfbench/Cargo.toml

echo "==> figures smoke run (parallel runtime, fresh cache)"
# Smoke artifacts live under target/ so a CI pass leaves the working
# tree clean. The spec pair appends the 3D sweep rows to the legacy
# target list, so the report carries both for the perf gate.
rm -rf target/t3-cache
./target/release/figures all examples/specs/gpt3_3d_sweep.t3w \
    examples/specs/hierarchical.t3s --fast --jobs 2 \
    --report target/bench_report.json

echo "==> figures sweep smoke (spec frontend, --report)"
# The spec-only path: expand a small checked-in workload/system pair
# and run it through the runtime with a report artifact.
./target/release/figures sweep examples/specs/tnlg_tp.t3w \
    examples/specs/ring.t3s --fast --jobs 2 \
    --report target/sweep_report.json

echo "==> t3-prof perf-trajectory gate (vs BENCH_10.json)"
# Simulated-cycle regression gate against the checked-in baseline.
# For an intentional perf change, run with T3_PROF_NO_GATE=1 and
# refresh the baseline in the same change:
#   ./target/release/figures all examples/specs/gpt3_3d_sweep.t3w \
#       examples/specs/hierarchical.t3s --fast --jobs 2 --report BENCH_10.json
./target/release/t3-prof check target/bench_report.json BENCH_10.json

rm -rf target/t3-cache target/bench_report.json target/sweep_report.json

echo "CI OK"
