//! Fault-driven failover: kill a replica mid-workload in a 3-node R=3
//! cluster; measure the availability dip, detection time, and time for
//! goodput to recover to ≥90% of the pre-kill baseline. Emits
//! `failover.json` and holds it to the committed `BENCH_failover.json`.

use cf_bench::experiments::failover::{self, FailoverParams};

fn main() {
    cf_bench::ratchet::bench_main("failover", FailoverParams::full, failover::run);
}
