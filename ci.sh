#!/usr/bin/env bash
# Full CI gate, identical to .github/workflows/ci.yml. Run before merging.
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

echo "==> cargo test --release (net + sim: the sliced CRC and const-built tables as the optimiser builds them)"
cargo test --release -q -p publishing-net -p publishing-sim

echo "==> hostbench unit tests (the measured facade still binds)"
cargo test --offline --manifest-path hostbench/Cargo.toml

echo "==> hostbench --health 50 (every workload through the correctness gate + recovery oracle)"
cargo run --release --quiet --offline --manifest-path hostbench/Cargo.toml -- --health 50

echo "==> perf/pairs.py compiles (the paired runs themselves are timing-dependent and stay out of CI)"
python3 -m py_compile perf/pairs.py

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors; vendored shims excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude proptest --exclude criterion --exclude crossbeam --exclude parking_lot

echo "==> obs_report smoke run"
cargo run -q --release -p publishing-bench --bin obs_report -- --smoke > /dev/null

echo "==> chaos smoke run"
cargo run -q --release -p publishing-bench --bin chaos -- --smoke > /dev/null

echo "==> quorum smoke run (seeded leader-crash failover gate)"
cargo run -q --release -p publishing-bench --bin quorum -- --smoke > /dev/null

echo "==> quorum obs_report smoke (consensus report + watchdog exit-code gate)"
cargo run -q --release -p publishing-bench --bin obs_report -- --smoke --topology quorum > /dev/null

echo "==> quorum explain smoke (election hop on the recovery critical path)"
cargo run -q --release -p publishing-bench --bin explain -- --quorum --smoke > /dev/null

echo "==> workload smoke run (capacity-knee determinism gate)"
cargo run -q --release -p publishing-bench --bin workload -- --smoke > /dev/null

echo "==> capacity smoke run (knee table over canonical shapes)"
cargo run -q --release -p publishing-bench --bin capacity -- --smoke > /dev/null

echo "==> lens smoke run (utilization attribution + what-if determinism gate)"
# The lens gate gets its own directory: the bench step below recreates
# target/perf from scratch and would clobber lens_a/lens_b.txt.
rm -rf target/lens
mkdir -p target/lens
cargo run -q --release -p publishing-bench --bin lens -- --smoke > target/lens/lens_a.txt
cargo run -q --release -p publishing-bench --bin lens -- --smoke > target/lens/lens_b.txt
diff target/lens/lens_a.txt target/lens/lens_b.txt

echo "==> forensics smoke run (self-diff emptiness + determinism gate)"
cargo run -q --release -p publishing-bench --bin forensics -- --smoke > target/lens/forensics_a.txt
cargo run -q --release -p publishing-bench --bin forensics -- --smoke > target/lens/forensics_b.txt
diff target/lens/forensics_a.txt target/lens/forensics_b.txt

echo "==> perf bench smoke + regression gate vs perf/BENCH_1.json"
rm -rf target/perf
cargo run -q --release -p publishing-bench --bin bench -- --smoke --dir target/perf
cargo run -q --release -p publishing-bench --bin obs_report -- --smoke --trace target/perf/trace.json > /dev/null

echo "==> causal explorer smoke run (critical path, attribution, DOT/flow stability)"
cargo run -q --release -p publishing-bench --bin explain -- --smoke --dot target/perf/causal.dot > /dev/null
cargo run -q --release -p publishing-bench --bin bench_compare -- --explain perf/BENCH_1.json target/perf/BENCH_1.json

echo "CI green."
