#!/usr/bin/env bash
# Repo CI: tier-1 verify (build + tests) plus lint. Mirrors what the
# driver runs, so a green ci.sh means a green PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

# One release pass covers every workspace target — including the chaos
# golden scenario and the shard byte-identity suites, which previously ran
# as separate (duplicate) invocations.
echo "== workspace tests, release (chaos golden + shard composition included)"
cargo test -q --release --workspace

echo "== benches compile: cargo bench --no-run"
cargo bench --no-run

# Both probe lines are gated by the one BENCH.json manifest: perfgate picks
# the rules for each line from its `bench` field (throughput floors at 5x
# headroom, the open/closed and dormant-econ ratios, depth-curve spread,
# live-bytes growth). The manifest's self-check on its recorded lines is a
# perfgate unit test, run by the workspace pass above.
echo "== perf probes (perfsmoke + reduced perfscale), gated by BENCH.json"
PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT
cargo run --release -p cloudburst-bench --bin perfsmoke -- "$PERF_TMP/smoke.json"
cargo run --release -p cloudburst-bench --bin perfscale -- --reduced "$PERF_TMP/scale.json"
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/smoke.json" BENCH.json
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/scale.json" BENCH.json

# The PR's headline guarantee gets its own named gate: the composition
# proptest (3 schedulers, with/without an armed chaos plan, workers
# 1 vs 2/4/8) plus the worker-count invariance goldens. These targeted
# binaries are seconds of work — unlike the old full-suite duplicate
# runs, which the single workspace pass above replaced.
echo "== shard byte-identity: composition proptest (3 schedulers, +/- armed chaos) + worker-count goldens"
cargo test -q --release -p cloudburst-core --lib equivalence
cargo test -q --release --test shard_invariance

echo "== lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== conformance: cargo run --release -p cloudburst-conform"
cargo run --release -p cloudburst-conform

# Archive the machine-readable report next to the perf probes and prove it
# byte-stable: two back-to-back scans must produce identical JSON, the
# same determinism bar the simulation reports are held to.
echo "== conformance: --json archive + byte-stability (two runs must match)"
cargo run --release -p cloudburst-conform -- --json > "$PERF_TMP/conform.json"
cargo run --release -p cloudburst-conform -- --json > "$PERF_TMP/conform.2.json"
cmp "$PERF_TMP/conform.json" "$PERF_TMP/conform.2.json"

echo "ci.sh: all green"
