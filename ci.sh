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

# Rustdoc over our own crates (not the vendor/ stand-ins): a doc link left
# pointing at a renamed or deleted item fails here.
echo "== docs: cargo doc --no-deps, warnings denied"
DOC_PKGS=()
for c in bench chaos cluster conform core econ net qrsm sched sim sla testsupport workload repro; do
    DOC_PKGS+=(-p "cloudburst-$c")
done
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps "${DOC_PKGS[@]}"

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
