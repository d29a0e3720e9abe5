#!/usr/bin/env sh
# Repository gate: formatting, lints, the tier-1 test suite and every
# named gate. This file is the one gate list: CI's check job runs
# `scripts/check.sh --full` and adds only what needs the network (the
# aarch64 cross-check, Miri over cf-mem, coverage).
#
# Usage: scripts/check.sh [--full]
#   --full  also run the whole workspace test suite and the three
#           fault-injection soaks at 256 cases each (slower).
#
# Everything here runs offline; the workspace has no registry dependencies.
set -eu

cd "$(dirname "$0")/.."
failed_soaks=""

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: every intra-doc link resolves, none into a private item"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# Each schema goes through the compiler's own `--check` first, so a schema
# error is reported by the compiler and not by a build.rs panic.
echo "==> wire-format gates: both schemas through the compiler, generated code against the DynMessage interpreter (encode parity, three-way decode under mutation, recorded crashers), the recorded byte layout, the parity suites, the serializer differential + golden frames, the echo server's rewritten layout"
cargo run -q -p cf-codegen --bin cornflakes-compile -- --check crates/core/schema/msgs.proto
cargo run -q -p cf-codegen --bin cornflakes-compile -- --check crates/kv/schema/kv.proto
cargo test -q --test wire_differential
cargo test -q --test golden
cargo test -q -p cornflakes-core --test dynamic_parity
cargo test -q -p cf-kv --test codegen_parity --test differential
cargo test -q -p cf-kv --test redis_and_echo
cargo test -q -p cf-nic --test rss_proptests

echo "==> cost-model gate: CacheSim against the timestamp-LRU reference op by op, set-layout properties, rounding grid, charge replay"
cargo test -q -p cf-sim --lib -- cache::tests round_ns_is_f64_round_on_the_pinned_grid replay_matches_recorded_clock_and_attribution

echo "==> memory gate: cf-mem in release (bounds checks that must not wrap), then its unit + property tests, tests/memory_safety.rs, the wire-format differential (hostile offsets and counts through every decoder), cf-sim (the prefetch helper), cf-nic (gather into and DMA out of pinned buffers), the store's and the codecs' tests (slice-vector recycling), the baseline libraries' tests and the serializer differential under AddressSanitizer"
cargo test -q --release -p cf-mem
# Why these crates: cf-mem is the unsafe boundary, and only the sanitizer
# sees a region freed under a live RcBuf. The other unsafe code on the
# request path is cf-sim's prefetch helper and feature-detected AVX2 walk,
# the store's prefetches past the ends of real buffers and cf-kv
# `codec.rs`'s slice-vector recycling. cf-nic has no `unsafe` of its own,
# but its tests drive cf-mem's pinned buffers through every gather and
# receive DMA; the differentials and the baselines' tests push hostile
# input through every decoder.
if cargo +nightly --version >/dev/null 2>&1; then
    # A target directory of its own (sanitized objects do not mix with the
    # others) and an explicit --target (so the flag skips build scripts).
    # Doctests do not link under the sanitizer, hence --lib --tests.
    (
        export CARGO_TARGET_DIR=target/asan RUSTFLAGS=-Zsanitizer=address
        host=$(rustc +nightly -vV | sed -n 's/^host: //p')
        cargo +nightly test -q -p cf-mem --lib --tests --target "$host"
        cargo +nightly test -q --test memory_safety --test wire_differential --target "$host"
        cargo +nightly test -q -p cf-sim --lib --tests --target "$host"
        cargo +nightly test -q -p cf-nic --lib --tests --target "$host"
        cargo +nightly test -q -p cf-baselines --lib --tests --target "$host"
        cargo +nightly test -q -p cf-kv --lib --target "$host" -- store:: codec::
        cargo +nightly test -q -p cf-kv --test differential --target "$host"
    )
else
    echo "notice: no nightly toolchain (cargo +nightly): AddressSanitizer run skipped"
fi

echo "==> store parity gate: the table against a HashMap model, hints against the hint-free reference cache, recorded charge traces (its allocator counts run once, with the hot-path gates below)"
cargo test -q -p cf-kv --lib store::
cargo test -q -p cf-sim --lib cache::tests::matches_timestamp_lru_op_by_op
cargo test -q -p cf-kv --test charge_trace

echo "==> overload smoke: goodput holds past saturation with control on; the retry budget and breaker at their constants"
cargo test -q -p cf-bench --lib experiments::overload
cargo test -q -p cf-kv --lib overload::

echo "==> observability gates: the recorder's own tests (spans as records, attribution, the Chrome export), zero-alloc flight recorder, metric namespace + exported name set, attach resets nothing, stats accessors equal the snapshot, counters equal the wire and the serializer's choices, tail anatomy, the trace tour"
cargo test -q -p cf-telemetry
cargo test -q --test flight_zero_alloc
cargo test -q --test metric_namespace
cargo test -q --test telemetry_attach
cargo test -q --test stats_parity
cargo test -q -p cf-net --test udp_end_to_end
cargo test -q -p cf-bench --lib experiments::tail_anatomy
cargo run -q --example trace_request

echo "==> hot-path gates: allocator-count proofs (64-round windows at zero, 16,384-round windows within a fixed stray budget)"
cargo test -q --test hotpath_zero_alloc

echo "==> churn gates: bounded flow table"
cargo test -q -p cf-net --test flow_table
cargo test -q --test tcp_churn
cargo test -q -p cf-bench --lib experiments::churn

echo "==> paper-figure gate: every table and figure's shape test (scaled down), the rig they share (its arrival-independence test among them), the replay behind every SLO rate (queueing: closed forms, monotonicity, bisection), and the span-vs-attribution cross-check of Figure 11's own measurement"
cargo test -q --release -p cf-bench -p cf-sim --lib -- experiments::fig experiments::table harness queueing::
cargo test -q --release -p cf-bench --test telemetry_crosscheck

echo "==> bench artifacts: the ratchet's own tests, then the six extension benches at their one preset, each held to its committed BENCH_*.json (CF_BLESS=1 regenerates one)"
cargo test -q -p cf-bench --lib ratchet
# Cargo runs a bench from its package directory: name the workspace's
# target/cf-artifacts, where CI collects the artifacts from.
CF_ARTIFACT_DIR="$PWD/target/cf-artifacts" cargo bench -p cf-bench \
    --bench churn --bench scaling --bench overload \
    --bench tail_anatomy --bench failover --bench partition

echo "==> transport parity gate: recorded TCP charge traces and end times, the stack and listener suites, TCP KV"
cargo test -q -p cf-net --test tcp_charge_trace --test tcp_end_to_end --test tcp_proptests
cargo test -q -p cf-kv --test tcp_kv

echo "==> failover smoke: cluster goodput recovers before the killed node rejoins"
cargo test -q -p cf-bench --lib experiments::failover

echo "==> partition smoke: stale reads under Any, none under Quorum"
cargo test -q -p cf-bench --lib experiments::partition
# Under --full the 256-case consistency soak below covers this run.
if [ "${1:-}" != "--full" ]; then
    cargo test -q --test cluster_consistency
fi

# A package of its own outside the workspace, so no workspace run reaches
# these tests.
echo "==> repo benchmark (BENCHMARK.json): the benchmark package's own tests"
cargo test -q --release --manifest-path benchmark/Cargo.toml

if [ "${1:-}" = "--full" ]; then
    echo "==> full: cargo test --workspace -q"
    cargo test --workspace -q
    # The seeded fault-injection property tests at 256 cases each instead of
    # the in-tree default. A failing case's seed, parameters and flight
    # timelines are dumped to target/chaos_repro.json (the last failing soak
    # wins). Every soak runs even when an earlier one fails; the script
    # fails at its end, after naming them.
    echo "==> full: single-node chaos soak (drop/duplicate/reorder/corrupt/delay plans, sharded variant)"
    CF_CHAOS_CASES=256 cargo test -q --test chaos || failed_soaks="$failed_soaks chaos"
    echo "==> full: cluster chaos soak (a node killed mid-workload, both read modes)"
    CF_CHAOS_CASES=256 cargo test -q --test cluster_chaos || failed_soaks="$failed_soaks cluster_chaos"
    echo "==> full: split-brain consistency soak (per-key read-your-writes + monotonic reads under Quorum)"
    CF_CHAOS_CASES=256 cargo test -q --test cluster_consistency ||
        failed_soaks="$failed_soaks cluster_consistency"
fi

echo "==> code lines (ROADMAP aim 2: a tracked number that should go down)"
scripts/loc.sh

if [ -n "$failed_soaks" ]; then
    echo "FAILED: fault-injection soaks:$failed_soaks" >&2
    exit 1
fi
echo "All checks passed."
