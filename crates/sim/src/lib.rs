//! Simulation substrate for the Cornflakes reproduction.
//!
//! The original Cornflakes system ran on two hosts with 100 GbE Mellanox or
//! Intel NICs. This crate replaces the hardware with a *virtual-time*
//! simulation: all serialization and networking code in the workspace runs
//! for real (real buffers, real wire bytes), but the cost of every
//! data-movement and bookkeeping operation is charged to a [`clock::Clock`]
//! using a calibrated [`profile::CostModel`]. Cache-dependent costs (the
//! heart of the paper's copy-vs-zero-copy tradeoff) consult a set-associative
//! LRU [`cache::CacheSim`] keyed by the actual addresses touched.
//!
//! The crate also provides the measurement pieces every experiment shares:
//! the open-loop Poisson [`queueing`] replay behind the paper's throughput at
//! a p99 SLO, and log-bucketed latency [`histogram::Histogram`]s.
//!
//! # Calibration
//!
//! The constants in [`profile`] are derived from the paper's own
//! measurements (see `DESIGN.md` §3): the 77 Gbps no-serialization echo fixes
//! the per-packet base cost, the 28 Gbps one-copy / 23 Gbps two-copy results
//! fix cold and warm per-cache-line copy costs, the 48 Gbps raw scatter-gather
//! result fixes the per-SG-entry cost, and the 512-byte hybrid threshold fixes
//! the memory-safety overhead (pointer recovery + reference-count touches).

pub mod cache;
pub mod clock;
pub mod cost;
pub mod histogram;
pub mod profile;
pub mod queueing;
pub mod rng;
pub mod stats;

pub use cache::CacheSim;
pub use clock::Clock;
pub use cost::{Attribution, Category, ChargeObserver, Sim, SimCore, NUM_CATEGORIES};
pub use histogram::Histogram;
pub use profile::{CacheConfig, CostModel, MachineProfile, NicModel};
