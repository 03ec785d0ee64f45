#!/usr/bin/env bash
# Full CI gate: the one list of gates. .github/workflows/ci.yml runs this
# script. Run before merging.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --release (net + sim + stable: the sliced CRC, const-built tables and the indexed store as the optimiser builds them)"
cargo test --release -q -p publishing-net -p publishing-sim -p publishing-stable

echo "==> hostbench unit tests (the measured facade still binds)"
cargo test --offline --manifest-path hostbench/Cargo.toml

echo "==> hostbench --health 50 (every workload through the correctness gate + recovery oracle)"
cargo run --release --quiet --offline --manifest-path hostbench/Cargo.toml -- --health 50

echo "==> allocation budget (allocs_per_msg per workload at --seconds 0 is a function of the build: held to perf/alloc_budget.py's numbers)"
python3 perf/alloc_budget.py

echo "==> perf/pairs.py compiles (the paired runs themselves are timing-dependent and stay out of CI)"
python3 -m py_compile perf/pairs.py

echo "==> hostprof builds and its resolver compiles (sampling itself is timing-dependent and stays out of CI)"
cargo build --release --offline --manifest-path perf/hostprof/Cargo.toml
python3 -m py_compile perf/hostprof.py

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors; vendored shims excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude proptest --exclude crossbeam --exclude parking_lot

echo "==> lab smoke, twice (every gate of the one CLI; stdout, snapshot, trace and DOT byte-identical across two processes)"
rm -rf target/smoke
cargo run -q --release -p publishing-bench --bin lab -- smoke --dir target/smoke/a
cargo run -q --release -p publishing-bench --bin lab -- smoke --dir target/smoke/b
diff -r target/smoke/a target/smoke/b

echo "==> virtual behaviour identical to perf/BENCH_5.json (an intended virtual change commits a new BENCH_<n>.json and moves this line with it)"
if ! cmp perf/BENCH_5.json target/smoke/a/BENCH_1.json; then
  echo "==> what moved"
  cargo run -q --release -p publishing-bench --bin lab -- compare --explain \
    perf/BENCH_5.json target/smoke/a/BENCH_1.json || true
  exit 1
fi

echo "==> paper tables match the committed reference output"
cmp target/smoke/a/tables.txt paper_tables_output.txt

echo "CI green."
