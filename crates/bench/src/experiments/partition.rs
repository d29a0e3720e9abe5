//! Split-brain partition: consistency vs availability under the two
//! cluster read modes.
//!
//! The fixture is the `cf-cluster` stack end to end, driven once per
//! [`cf_cluster::ReadMode`] with identical parameters and seeds by the
//! failover experiment's windowed driver
//! ([`crate::experiments::failover::drive_cluster`]). The fault schedule
//! has three acts:
//!
//! 1. at [`PartitionParams::partition_window`] the victim node is
//!    split from its peers (split-brain): the majority keeps taking
//!    writes, the victim falls behind;
//! 2. at [`PartitionParams::isolate_window`] the client is also cut
//!    off from the majority, so the stale victim is the only node it
//!    can reach;
//! 3. at [`PartitionParams::heal_window`] every cut heals and
//!    catch-up replay brings the victim back in sync.
//!
//! Each completed GET is classified against the highest version the
//! client itself saw cleanly acknowledged for that key: a clean GET
//! answer with a lower version is a **stale read**. `ReadMode::Any`
//! keeps serving from the victim through act 2 (available, stale);
//! `ReadMode::Quorum` refuses — majority fan-outs cannot complete, so
//! goodput drops to zero but no stale value is ever returned.
//!
//! Emits `partition.json` with per-window goodput and stale-read-rate
//! series for both modes; the committed `BENCH_partition.json` is the full
//! preset's, gated by [`RULES`]. The window grid repeats exactly run to
//! run; per-window counts move by one or two (see `failover`).

use cf_cluster::ReadMode;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::json::Value;
use cf_telemetry::Telemetry;

use crate::artifacts::{int, text, write_artifact};
use crate::experiments::failover::{drive_cluster, ClusterLoadParams, ClusterRun};
use crate::ratchet::{Gate, Rule};
use crate::tables::print_rows;

/// Experiment knobs; [`PartitionParams::quick`] is the smoke preset.
#[derive(Clone, Debug)]
pub struct PartitionParams {
    /// The cluster, the workload and the window grid; `victim` ends up on
    /// the minority side.
    pub load: ClusterLoadParams,
    /// Window index at whose start the victim is split from its peers.
    pub partition_window: usize,
    /// Window index at whose start the client loses the majority too.
    pub isolate_window: usize,
    /// Window index at whose start every cut heals.
    pub heal_window: usize,
}

impl PartitionParams {
    /// Full run: split at window 10 of 60, isolate at 20, heal at 40.
    pub fn full() -> Self {
        PartitionParams {
            load: ClusterLoadParams::full(0x9A27_11E5),
            partition_window: 10,
            isolate_window: 20,
            heal_window: 40,
        }
    }

    /// Smoke preset: the same shape, a shorter timeline.
    pub fn quick() -> Self {
        PartitionParams {
            load: ClusterLoadParams::quick(0x9A27_11E5, 28),
            partition_window: 5,
            isolate_window: 10,
            heal_window: 20,
        }
    }
}

/// Drives the closed-loop workload under one read mode.
pub fn run_partition(params: &PartitionParams, mode: ReadMode, tele: &Telemetry) -> ClusterRun {
    let (victim, client_host) = (params.load.victim, params.load.nodes as u8);
    let peers: Vec<u8> = (0..client_host).filter(|&n| n != victim).collect();
    let peers = || peers.iter().copied();
    drive_cluster(
        &params.load,
        mode,
        tele,
        vec![
            (
                params.partition_window,
                Box::new(|c| peers().for_each(|p| c.partition(victim, p))),
            ),
            (
                params.isolate_window,
                Box::new(|c| peers().for_each(|p| c.partition(client_host, p))),
            ),
            (
                params.heal_window,
                Box::new(|c| {
                    for p in peers() {
                        c.heal(victim, p);
                        c.heal(client_host, p);
                    }
                }),
            ),
        ],
        |_| {},
    )
}

/// Runs both read modes, prints the window series, writes artifacts.
pub fn run(params: &PartitionParams) -> Value {
    let modes = [ReadMode::Any, ReadMode::Quorum].map(|mode| {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let tele = Telemetry::attach(&sim);
        let run = run_partition(params, mode, &tele);
        if mode == ReadMode::Quorum {
            write_artifact("partition-metrics.json", &tele.snapshot_json());
        }
        run.tree()
    });
    let tree = Value::obj([
        ("experiment", text("partition")),
        (
            "params",
            Value::obj([
                ("load", params.load.tree()),
                ("partition_window", int(params.partition_window as u64)),
                ("isolate_window", int(params.isolate_window as u64)),
                ("heal_window", int(params.heal_window as u64)),
            ]),
        ),
        ("modes", Value::Arr(modes.into())),
    ]);
    print_rows(
        &format!(
            "Partition: {} nodes, R={}, victim {} split at window {}, client cut off at {}, healed at {}",
            params.load.nodes,
            params.load.replication,
            params.load.victim,
            params.partition_window,
            params.isolate_window,
            params.heal_window
        ),
        &tree,
        "modes[mode].windows[idx]",
        &["served", "timeouts", "stale", "stale_rate"],
    );
    print_rows(
        "Partition: totals per read mode",
        &tree,
        "modes[mode]",
        &[
            "baseline_goodput_per_window",
            "clean",
            "stale_reads",
            "timeouts",
            "failovers",
            "quorum_reads",
            "read_repairs",
            "partition_suspects",
        ],
    );
    write_artifact("partition.json", &tree.render());
    tree
}

/// What `BENCH_partition.json` is held to (see [`crate::ratchet`]; spreads
/// are five full-preset runs, EXPERIMENTS.md "Artifacts and ratchet").
/// Per-window counts are recorded and not gated (see `failover`).
pub const RULES: &[Rule] = &[
    // Spread 0.6 %.
    Rule(
        "modes[mode].baseline_goodput_per_window",
        Gate::Higher(0.03),
    ),
    // Spread 0.5 %.
    Rule("modes[mode].clean", Gate::Higher(0.03)),
    // Repeated exactly in five runs, and 0 under `quorum`, where the bound
    // makes a single stale read a violation: the experiment's finding.
    Rule("modes[mode].stale_reads", Gate::Lower(0.09)),
    // Repeated exactly: `quorum` times out only while it is cut off.
    Rule("modes[mode].timeouts", Gate::Lower(0.05)),
    // The window grid is fixed by the parameters.
    Rule("modes[mode].windows[idx].start_ns", Gate::Same),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn run_mode(mode: ReadMode) -> ClusterRun {
        let params = PartitionParams::quick();
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let tele = Telemetry::attach(&sim);
        run_partition(&params, mode, &tele)
    }

    #[test]
    fn any_mode_trades_staleness_for_availability() {
        let r = run_mode(ReadMode::Any);
        assert!(r.baseline > 0.0, "pre-partition traffic flows");
        assert!(
            r.stale_reads > 0,
            "ReadMode::Any serves stale reads from the minority side"
        );
        assert!(r.failovers >= 1, "the client failed over toward the victim");
        assert_eq!(r.quorum_reads, 0);
        // Post-heal windows serve again.
        let tail = &r.windows[r.windows.len() - 3..];
        assert!(
            tail.iter().any(|w| w.served > 0),
            "goodput returns after heal"
        );
    }

    #[test]
    fn quorum_mode_never_serves_a_stale_read() {
        let r = run_mode(ReadMode::Quorum);
        assert!(r.baseline > 0.0, "pre-partition traffic flows");
        assert_eq!(
            r.stale_reads, 0,
            "majority fan-out reads never return a stale version"
        );
        assert!(r.quorum_reads > 0, "GETs went through the quorum path");
        // The isolated stretch is unavailable rather than inconsistent.
        let params = PartitionParams::quick();
        let iso = &r.windows[params.isolate_window + 2..params.heal_window];
        let iso_timeouts: u64 = iso.iter().map(|w| w.timeouts).sum();
        assert!(
            iso_timeouts > 0,
            "quorum reads time out while the majority is unreachable"
        );
        let tail = &r.windows[r.windows.len() - 3..];
        assert!(
            tail.iter().any(|w| w.served > 0),
            "goodput returns after heal"
        );
    }

    #[test]
    fn artifact_is_complete_and_gates_itself() {
        let params = PartitionParams::quick();
        let tree = run(&params);
        crate::ratchet::assert_gates_itself(RULES, &tree);
        let stale = crate::artifacts::select(&tree, "modes[mode].stale_reads");
        let stale: Vec<(&str, Option<u64>)> = stale
            .iter()
            .map(|(row, v)| (row.as_str(), v.and_then(Value::as_u64)))
            .collect();
        assert!(matches!(stale[0], ("modes[any].", Some(n)) if n > 0));
        assert_eq!(stale[1], ("modes[quorum].", Some(0)));
        let rates = crate::artifacts::select(&tree, "modes[mode].windows[idx].stale_rate");
        assert_eq!(rates.len(), 2 * params.load.total_windows);
        assert!(rates.iter().all(|(_, v)| v.is_some()));
    }
}
