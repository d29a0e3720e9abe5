//! Fault-driven failover: closed-loop KV traffic against a replicated
//! cluster, kill a node mid-run, and measure the availability dip and
//! the time for goodput to recover.
//!
//! The fixture is the `cf-cluster` stack end to end: N simulated hosts
//! behind a [`cf_nic::SimSwitch`], consistent-hash placement with R-way
//! replication, probe-based failure detection, and a client that fails
//! over through per-node circuit breakers. One closed-loop client runs
//! a YCSB-keyed PUT/GET mix; completions are bucketed into fixed
//! virtual-time windows. At [`FailoverParams::kill_window`] the victim
//! node is killed; at [`FailoverParams::revive_window`] it rejoins and
//! catch-up replay brings it back in sync.
//!
//! Reported:
//! - **baseline** goodput (mean completions/window before the kill),
//! - the **dip** (worst post-kill window),
//! - **detection time** (kill → every survivor marks the victim down),
//! - **recovery time** (kill → first window back at
//!   [`FailoverParams::recovery_frac`] of baseline).
//!
//! Emits `failover.json` with the full window series; the committed
//! `BENCH_failover.json` is the full preset's, gated by [`RULES`]. The
//! window grid repeats exactly run to run; which window a completion
//! lands in, and the detection time, follow virtual time and so real heap
//! addresses (see `churn`): per-window counts move by one, detection by
//! ~3 %.
//!
//! The windowed one-outstanding driver ([`drive_cluster`]) is also what
//! `partition` runs, with its own fault schedule and read mode.

use std::cell::Cell;

use cf_cluster::{Cluster, ClusterConfig, ReadMode};
use cf_kv::client::RetryConfig;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::json::Value;
use cf_telemetry::Telemetry;
use cf_workloads::{key_string, Ycsb, YcsbConfig};

use crate::artifacts::{fixed, int, list, text, write_artifact};
use crate::ratchet::{Gate, Rule};
use crate::tables::print_rows;

/// What a cluster experiment fixes about its cluster, workload and window
/// grid.
#[derive(Clone, Debug)]
pub struct ClusterLoadParams {
    /// Cluster size (hosts behind the switch).
    pub nodes: usize,
    /// Replication factor R (PUTs ack after R live replicas apply).
    pub replication: usize,
    /// Distinct keys, preloaded on every replica.
    pub num_keys: u64,
    /// Value size per key.
    pub value_bytes: usize,
    /// Goodput bucket width in virtual nanoseconds.
    pub window_ns: u64,
    /// Windows discarded from the front before computing the baseline.
    pub warmup_windows: usize,
    /// Total measured windows.
    pub total_windows: usize,
    /// Which node the faults single out.
    pub victim: u8,
    /// PUT probability in percent (the rest are GETs).
    pub put_pct: u32,
    /// Workload / retry-jitter seed.
    pub seed: u64,
}

impl ClusterLoadParams {
    /// Full run: 3 nodes, R=3, 60 windows of 250 µs (15 ms virtual).
    pub fn full(seed: u64) -> Self {
        ClusterLoadParams {
            nodes: 3,
            replication: 3,
            num_keys: 16,
            value_bytes: 256,
            window_ns: 250_000,
            warmup_windows: 2,
            total_windows: 60,
            victim: 1,
            put_pct: 30,
            seed,
        }
    }

    /// The `load` member of a cluster artifact's `params`.
    pub fn tree(&self) -> Value {
        Value::obj([
            ("nodes", int(self.nodes as u64)),
            ("replication", int(self.replication as u64)),
            ("num_keys", int(self.num_keys)),
            ("value_bytes", int(self.value_bytes as u64)),
            ("window_ns", int(self.window_ns)),
            ("warmup_windows", int(self.warmup_windows as u64)),
            ("total_windows", int(self.total_windows as u64)),
            ("victim", int(self.victim.into())),
            ("put_pct", int(self.put_pct.into())),
            ("seed", int(self.seed)),
        ])
    }
}

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct FailoverParams {
    /// The cluster, the workload and the window grid.
    pub load: ClusterLoadParams,
    /// Window index at whose start the victim is killed.
    pub kill_window: usize,
    /// Window index at whose start the victim rejoins.
    pub revive_window: usize,
    /// Recovery threshold as a fraction of baseline goodput.
    pub recovery_frac: f64,
}

impl FailoverParams {
    /// Full run: kill at window 15 of 60, rejoin at 35.
    pub fn full() -> Self {
        FailoverParams {
            load: ClusterLoadParams::full(0xF417_0E75),
            kill_window: 15,
            revive_window: 35,
            recovery_frac: 0.9,
        }
    }
}

/// One goodput bucket.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Window start, relative to measurement start.
    pub start_ns: u64,
    /// Clean (flag-free) responses decoded inside the window.
    pub served: u64,
    /// Request timeouts expiring inside the window.
    pub timeouts: u64,
    /// Clean GET answers whose version trails the newest clean-acked
    /// write the client has seen for that key.
    pub stale: u64,
}

impl Window {
    /// Stale reads as a fraction of clean completions in this window.
    pub fn stale_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.stale as f64 / self.served as f64
        }
    }
}

/// Everything one driven run measured.
#[derive(Clone, Debug, Default)]
pub struct ClusterRun {
    pub mode: ReadMode,
    pub windows: Vec<Window>,
    /// Mean served/window over the post-warmup windows before the first
    /// fault.
    pub baseline: f64,
    /// Clean completions over the whole run.
    pub clean: u64,
    /// Answers carrying SHED (minority-write refusals) or DEGRADED.
    pub flagged: u64,
    pub timeouts: u64,
    /// Total stale reads.
    pub stale_reads: u64,
    pub failovers: u64,
    pub quorum_reads: u64,
    pub read_repairs: u64,
    pub partition_suspects: u64,
    pub catchup_replays: u64,
    pub puts_applied: u64,
    /// The cluster's clock when the run ended.
    pub end_ns: u64,
}

impl ClusterRun {
    /// Tallies one answer to a request on a key whose highest cleanly acked
    /// version so far is `max_acked`, into the totals and, if it arrived
    /// inside one, its `window`.
    fn settle(
        &mut self,
        resp: &cf_kv::client::Response,
        is_put: bool,
        window: Option<usize>,
        max_acked: &mut u64,
    ) {
        if resp.flags != 0 {
            self.flagged += 1;
            return;
        }
        let stale = !is_put && resp.version < *max_acked;
        if is_put {
            *max_acked = (*max_acked).max(resp.version);
        }
        self.clean += 1;
        self.stale_reads += u64::from(stale);
        if let Some(w) = window {
            self.windows[w].served += 1;
            self.windows[w].stale += u64::from(stale);
        }
    }

    /// The run as an artifact member: totals, then the window series.
    pub fn tree(&self) -> Value {
        let window = |(i, w): (usize, &Window)| {
            Value::obj([
                ("idx", int(i as u64)),
                ("start_ns", int(w.start_ns)),
                ("served", int(w.served)),
                ("timeouts", int(w.timeouts)),
                ("stale", int(w.stale)),
                ("stale_rate", fixed(w.stale_rate(), 4)),
            ])
        };
        let mode = match self.mode {
            ReadMode::Any => "any",
            ReadMode::Quorum => "quorum",
        };
        Value::obj([
            ("mode", text(mode)),
            ("baseline_goodput_per_window", fixed(self.baseline, 2)),
            ("clean", int(self.clean)),
            ("flagged", int(self.flagged)),
            ("timeouts", int(self.timeouts)),
            ("stale_reads", int(self.stale_reads)),
            ("failovers", int(self.failovers)),
            ("quorum_reads", int(self.quorum_reads)),
            ("read_repairs", int(self.read_repairs)),
            ("partition_suspects", int(self.partition_suspects)),
            ("catchup_replays", int(self.catchup_replays)),
            ("puts_applied", int(self.puts_applied)),
            ("windows", list(self.windows.iter().enumerate(), window)),
        ])
    }
}

/// One scheduled fault: at the start of window `.0`, do `.1` to the cluster.
pub type Fault<'a> = (usize, Box<dyn FnMut(&mut Cluster) + 'a>);

/// The windowed one-outstanding cluster driver: builds the cluster and a
/// client in `mode` under one telemetry handle on the cluster's clock,
/// preloads, lets probes settle, then runs one closed-loop YCSB-keyed
/// PUT/GET stream for `load.total_windows` windows, applying `faults`
/// (ascending by window) as their windows start and calling
/// `after_poll` once per step right after the cluster is polled. Each
/// completed request is settled into its window: a clean PUT raises the
/// highest version the client has seen acked for its key, a clean GET below
/// that version is a stale read, a flagged answer is neither. The request
/// in flight at the end is concluded so nothing is left pending. Returns
/// the run and the handle.
pub fn drive_cluster(
    load: &ClusterLoadParams,
    mode: ReadMode,
    mut faults: Vec<Fault<'_>>,
    mut after_poll: impl FnMut(&Cluster),
) -> (ClusterRun, Telemetry) {
    let mut cluster = Cluster::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        ClusterConfig {
            nodes: load.nodes,
            replication: load.replication,
            ..ClusterConfig::default()
        },
    );
    let tele = Telemetry::attach(cluster.sim());
    cluster.set_telemetry(&tele);
    let mut client = cluster.client();
    client.set_telemetry(&tele);
    client.set_read_mode(mode);
    client.enable_retries_seeded(
        load.seed,
        RetryConfig {
            timeout_ns: 120_000,
            max_retries: 6,
            max_backoff_ns: 500_000,
            jitter_seed: None, // seeded per client by `enable_retries_seeded`
        },
    );

    let keys: Vec<Vec<u8>> = (0..load.num_keys)
        .map(|i| key_string(i).into_bytes())
        .collect();
    for key in &keys {
        cluster.preload(key, &[load.value_bytes]);
    }
    // Let probes establish a steady state before measuring.
    for _ in 0..6 {
        cluster.poll();
        cluster.sim().clock().advance(60_000);
    }

    let mut ycsb = Ycsb::new(
        YcsbConfig {
            num_keys: load.num_keys,
            theta: 0.9,
        },
        load.seed,
    );
    let mut op_rng = cf_sim::rng::SplitMix64::new(load.seed ^ 0xA5A5);

    let t0 = cluster.sim().now();
    let end = t0 + load.window_ns * load.total_windows as u64;
    let window = |i| Window {
        start_ns: load.window_ns * i as u64,
        ..Window::default()
    };
    let mut run = ClusterRun {
        mode,
        windows: (0..load.total_windows).map(window).collect(),
        ..ClusterRun::default()
    };
    // Highest version the client saw cleanly acked per key; a clean GET
    // below this is a stale read by the client's own observations.
    let mut max_acked = vec![0u64; load.num_keys as usize];
    // (request id, key index, is_put) of the one request in flight.
    let mut outstanding: Option<(u32, usize, bool)> = None;
    let first_fault = faults.first().map_or(load.total_windows, |f| f.0);
    let mut next_fault = 0;
    let step = 10_000u64;
    let bucket = |ts: u64| (((ts - t0) / load.window_ns) as usize).min(load.total_windows - 1);

    while cluster.sim().now() < end {
        let now = cluster.sim().now();
        while faults
            .get(next_fault)
            .is_some_and(|f| now >= t0 + load.window_ns * f.0 as u64)
        {
            (faults[next_fault].1)(&mut cluster);
            next_fault += 1;
        }
        let (id, key_idx, is_put) = *outstanding.get_or_insert_with(|| {
            let key_idx = (ycsb.next_key() % load.num_keys) as usize;
            let is_put = op_rng.next_u64() % 100 < u64::from(load.put_pct);
            let id = if is_put {
                let fill = (run.clean + run.flagged + run.timeouts) as u8 ^ 0x5A;
                client.send_put(&keys[key_idx], &vec![fill; load.value_bytes])
            } else {
                client.send_get(&keys[key_idx])
            };
            (id, key_idx, is_put)
        });
        cluster.poll();
        after_poll(&cluster);
        if let Some(resp) = client.recv_response() {
            outstanding = None;
            let window = bucket(cluster.sim().now());
            run.settle(&resp, is_put, Some(window), &mut max_acked[key_idx]);
        }
        cluster.sim().clock().advance(step);
        if outstanding.is_some() && client.poll_timers().contains(&id) {
            outstanding = None;
            run.timeouts += 1;
            run.windows[bucket(cluster.sim().now())].timeouts += 1;
        }
    }
    // Conclude the in-flight request so nothing is left pending. It ends
    // after the last window, so it counts in the totals and in no window.
    if let Some((id, key_idx, is_put)) = outstanding {
        for _ in 0..400 {
            cluster.poll();
            if let Some(resp) = client.recv_response() {
                run.settle(&resp, is_put, None, &mut max_acked[key_idx]);
                break;
            }
            cluster.sim().clock().advance(step);
            if client.poll_timers().contains(&id) {
                run.timeouts += 1;
                break;
            }
        }
    }

    let pre = &run.windows[load.warmup_windows..first_fault];
    run.baseline = pre.iter().map(|w| w.served).sum::<u64>() as f64 / pre.len().max(1) as f64;
    run.failovers = client.failovers();
    run.quorum_reads = client.quorum_reads();
    run.read_repairs = client.read_repairs();
    run.partition_suspects = client.partition_suspects();
    run.catchup_replays = cluster.nodes.iter().map(|n| n.catchup_replays()).sum();
    run.puts_applied = cluster.total_puts_applied();
    run.end_ns = cluster.sim().now();
    (run, tele)
}

/// Drives the closed-loop workload through a kill and a rejoin, prints the
/// window series, writes the artifacts.
pub fn run(params: &FailoverParams) -> Value {
    let victim = params.load.victim;
    let killed_at = Cell::new(None);
    // Virtual ns from the kill until the last survivor marked the victim
    // down.
    let mut detection_ns = None;
    let (run, tele) = drive_cluster(
        &params.load,
        ReadMode::Any,
        vec![
            (
                params.kill_window,
                Box::new(|c| {
                    c.kill(victim);
                    killed_at.set(Some(c.sim().now()));
                }),
            ),
            (params.revive_window, Box::new(|c| c.revive(victim))),
        ],
        |c| {
            let mut survivors = c.nodes.iter().filter(|n| n.id != victim);
            if let (Some(at), None) = (killed_at.get(), detection_ns) {
                if survivors.all(|n| !n.peer_alive(victim)) {
                    detection_ns = Some(c.sim().now() - at);
                }
            }
        },
    );

    let post = &run.windows[params.kill_window..];
    // Worst served/window at or after the kill.
    let dip = post.iter().map(|w| w.served).min().unwrap_or(0);
    // Virtual ns from the kill until the end of the first window whose
    // goodput is back at `recovery_frac * baseline`.
    let threshold = params.recovery_frac * run.baseline;
    let recovered_within_ns = post
        .iter()
        .position(|w| w.served as f64 >= threshold)
        .map(|i| (i as u64 + 1) * params.load.window_ns);
    let opt = |v: Option<u64>| v.map_or(Value::Null, int);
    let tree = Value::obj([
        ("experiment", text("failover")),
        (
            "params",
            Value::obj([
                ("load", params.load.tree()),
                ("kill_window", int(params.kill_window as u64)),
                ("revive_window", int(params.revive_window as u64)),
                ("recovery_frac", Value::Num(params.recovery_frac)),
            ]),
        ),
        ("dip_goodput_per_window", int(dip)),
        ("detection_ns", opt(detection_ns)),
        ("recovered_within_ns", opt(recovered_within_ns)),
        ("run", run.tree()),
    ]);
    print_rows(
        &format!(
            "Failover: {} nodes, R={}, node {} killed at window {}, back at {}",
            params.load.nodes,
            params.load.replication,
            params.load.victim,
            params.kill_window,
            params.revive_window
        ),
        &tree,
        "run.windows[idx]",
        &["served", "timeouts"],
    );
    let after_kill =
        |v: Option<u64>| v.map_or("never".to_string(), |ns| format!("{ns} ns after the kill"));
    println!("  baseline goodput/window  : {:.1}", run.baseline);
    println!("  worst post-kill window   : {dip}");
    println!("  detected by all survivors: {}", after_kill(detection_ns));
    println!(
        "  recovered to >= {:.0}%     : {}",
        params.recovery_frac * 100.0,
        after_kill(recovered_within_ns)
    );
    write_artifact("failover.json", &tree.render());
    write_artifact("failover-metrics.json", &tele.snapshot_json());
    tree
}

/// What `BENCH_failover.json` is held to (see [`crate::ratchet`]; spreads
/// are five full-preset runs, EXPERIMENTS.md "Artifacts and ratchet").
/// Per-window counts are recorded and not gated: a completion on a window
/// edge lands on either side, so they move by one in twenty.
pub const RULES: &[Rule] = &[
    // Spread 3.1 %: the widest bound here, and still under a tenth.
    Rule("detection_ns", Gate::Lower(0.095)),
    // A whole number of windows: one window later is +12.5 %.
    Rule("recovered_within_ns", Gate::Lower(0.05)),
    // Spread 0.4 %.
    Rule("run.baseline_goodput_per_window", Gate::Higher(0.03)),
    // Spread 0.1 %.
    Rule("run.clean", Gate::Higher(0.03)),
    // 0 in every run: with retries and failover, no request is abandoned.
    Rule("run.timeouts", Gate::Lower(0.05)),
    // The window grid is fixed by the parameters.
    Rule("run.windows[idx].start_ns", Gate::Same),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{number, select, snapshot_now_ns};

    /// The full preset's shape on fewer, smaller keys and a third of the
    /// timeline.
    fn small() -> FailoverParams {
        let mut params = FailoverParams::full();
        params.load.num_keys = 8;
        params.load.value_bytes = 128;
        params.load.total_windows = 26;
        params.kill_window = 6;
        params.revive_window = 18;
        params
    }

    #[test]
    fn goodput_recovers_after_node_kill() {
        let params = small();
        let tree = run(&params);
        assert!(
            number(&tree, "run.baseline_goodput_per_window") > 0.0,
            "pre-kill traffic flows"
        );
        assert!(number(&tree, "run.clean") > 0.0);
        assert!(
            tree.get("detection_ns").and_then(Value::as_u64).is_some(),
            "survivors detect the dead node via probe timeouts"
        );
        let rec = tree.get("recovered_within_ns").and_then(Value::as_u64);
        let rec = rec.expect("goodput recovers to >=90% of pre-kill baseline");
        assert!(
            rec <= (params.revive_window - params.kill_window) as u64 * params.load.window_ns,
            "recovery comes from failover (while the victim is still dead), \
             not from the revive: {rec} ns"
        );
        assert!(
            number(&tree, "run.failovers") >= 1.0,
            "the client failed over off the victim"
        );
    }

    #[test]
    fn metrics_snapshot_reads_the_cluster_clock() {
        let load = small().load;
        let (run, tele) = drive_cluster(&load, ReadMode::Any, Vec::new(), |_| {});
        let measured = load.window_ns * load.total_windows as u64;
        assert!(run.end_ns >= measured, "the run took {} ns", run.end_ns);
        assert_eq!(snapshot_now_ns(&tele), run.end_ns);
    }

    #[test]
    fn artifact_is_complete_and_gates_itself() {
        let params = small();
        let tree = run(&params);
        crate::ratchet::assert_gates_itself(RULES, &tree);
        let windows = select(&tree, "run.windows[idx].served");
        assert_eq!(windows.len(), params.load.total_windows);
        let served: u64 = windows
            .iter()
            .filter_map(|(_, w)| w.and_then(Value::as_u64))
            .sum();
        assert!(served > 0, "the series records completions");
        assert!(tree.get("detection_ns").and_then(Value::as_u64).is_some());
    }
}
