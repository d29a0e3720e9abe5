//! Experiment harnesses reproducing every table and figure of the paper's
//! evaluation (§2.2, §5, §6).
//!
//! Each `cargo bench` target under `benches/` is a thin wrapper around one
//! module in [`experiments`]; the logic lives here so integration tests can
//! run scaled-down versions of every experiment.
//!
//! Conventions:
//!
//! - Every experiment is measured with one rig, [`harness`] (§6.1): a
//!   fixture per machine shape ([`harness::KvBench`] for one KV server,
//!   [`harness::sharded`] for one shard per NIC queue), a closed-loop
//!   probe per shape ([`harness::capacity`], [`harness::saturate`]), one
//!   pick for the quantiles an extension bench takes of its own samples
//!   ([`harness::quantile`]), and for the paper figures a
//!   [`harness::curve`] of Poisson open-loop points on a ladder below the
//!   capacity, printed by [`tables::print_curve`]. The wire floor is the
//!   machine profile's `CostModel::one_way_wire_ns`. The second open-loop
//!   driver, `overload::Rig::drive`, stays apart from `curve` because it
//!   does something else: slice-paced arrivals against the sharded fixture,
//!   retries and a drain.
//! - Experiments print the same rows/series the paper reports, as aligned
//!   text tables, plus a one-line comparison against the paper's headline
//!   number.
//! - All randomness is seeded, and one seed replays one request stream:
//!   every count a driver fixes (requests sent, per-shard requests, flows,
//!   window grids, probe counts) repeats exactly run to run. Virtual *times*
//!   do not repeat to the bit: the cost model charges a copy by the real
//!   heap address of its source (`charge_memcpy(src.as_ptr(), …)`), and
//!   addresses move with ASLR and with `RandomState`-timed rehashes. Below
//!   saturation the spread is under 0.05 %; where a client retries it
//!   reaches a few percent (EXPERIMENTS.md, "Artifacts and ratchet", has
//!   the per-field spread of five runs). A curve's arrivals are seeded from
//!   its seed and the offered rate, so a capacity that moves in its fifth
//!   digit draws another Poisson sample at every point: achieved rates move
//!   by the window's sampling noise, and a p99-SLO pick can move a whole
//!   ladder step.
//! - Setting `CF_QUICK=1` shrinks the paper figures' durations ~10× for
//!   smoke runs ([`quick_mode`] is the one place it is read); the numbers
//!   recorded in `EXPERIMENTS.md` come from full runs. An extension bench
//!   has one preset, the `full` its `main` hands [`ratchet::bench_main`]:
//!   that is what its committed `BENCH_*.json` holds and what the ratchet
//!   gates, and a test that needs a smaller run scales a copy of it down
//!   inside its own test module.

pub mod artifacts;
pub mod experiments;
pub mod harness;
pub mod ratchet;
pub mod tables;

/// True when `CF_QUICK=1`: run the paper figures' shortened sweeps.
pub fn quick_mode() -> bool {
    std::env::var("CF_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Scales a measurement-window duration (ns) down in quick mode.
pub fn scaled_duration(full_ns: u64) -> u64 {
    if quick_mode() {
        full_ns / 10
    } else {
        full_ns
    }
}
