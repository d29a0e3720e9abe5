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
//!   fixture per machine shape ([`harness::Pair`] for one server machine
//!   and a client, [`harness::KvBench`] when the server is the KV store;
//!   [`harness::sharded`] for one shard per NIC queue), a closed-loop
//!   probe per shape ([`harness::capacity`], [`harness::saturate`]), one
//!   pick for the quantiles an extension bench takes of its own samples
//!   ([`harness::quantile`]), and for the paper figures a
//!   [`harness::curve`]: one saturated service trace per system, which
//!   every offered Poisson rate is replayed over (`cf_sim::queueing`), its
//!   curve printed by [`tables::print_curve`] and its throughput at a p99
//!   SLO bisected once per arrival seed. The wire floor is the machine
//!   profile's `CostModel::one_way_wire_ns`. The other open-loop driver,
//!   `overload::Rig::drive`, stays apart from `curve` because it does
//!   something else: slice-paced arrivals against the sharded fixture,
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
//!   the per-field spread of five runs). A curve's arrivals depend on the
//!   arrival seed alone, so its SLO rates move with its trace, not with a
//!   fresh Poisson sample: over five allocator layouts each stayed within
//!   0.8 % (EXPERIMENTS.md preamble).
//! - Every bench has one preset. A paper figure's `main` passes the sizes
//!   whose output `EXPERIMENTS.md` records; an extension bench's is the
//!   `full` its `main` hands [`ratchet::bench_main`], which is what its
//!   committed `BENCH_*.json` holds and what the ratchet gates. A test that
//!   needs a smaller run passes its own sizes (or scales a copy of the
//!   preset down inside its own test module).

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod experiments;
pub mod harness;
pub mod ratchet;
pub mod tables;
