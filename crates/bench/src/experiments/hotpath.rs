//! Hot-path microbenchmark: ns/op and allocs/op for the steady-state
//! request path, per serialization kind. The enforcement artifact behind
//! the CI benchmark ratchet (`BENCH_hotpath.json`).
//!
//! Three drivers per [`SerKind`], all on a warm client/server pair:
//!
//! | op          | what one iteration does                                |
//! |-------------|--------------------------------------------------------|
//! | `get`       | single-key GET round trip (encode → serve → recv)      |
//! | `batch_get` | multi-key GET round trip (`batch_keys` keys)           |
//! | `put`       | PUT round trip overwriting a hot key                   |
//!
//! Two measurements per op:
//!
//! - **ns/op** — *real* wall-clock time (`std::time::Instant`), not virtual
//!   time: allocator churn is invisible to the simulator's cost model, so
//!   the zero-alloc work can only be observed on the host clock. Split
//!   into `encode` (client send), `serve` (server poll: decode + app +
//!   reply), and `recv` (client decode) segments.
//! - **allocs/op** — real heap acquisitions from
//!   [`cf_telemetry::alloctrack`], meaningful when the enclosing binary
//!   installs [`cf_telemetry::CountingAlloc`] as its global allocator (the
//!   `hotpath` bench does; the in-lib smoke test does not, and reports
//!   `alloc_counted: false`).
//!
//! Emits `hotpath.json` (schema in EXPERIMENTS.md); the committed
//! `BENCH_hotpath.json` is the full preset's, gated by [`RULES`]. What
//! repeats run to run: the driver is fixed, so allocs/op repeats up to a
//! handful of one-off allocations per window (see [`STRAY_ALLOC_BUDGET`]);
//! ns/op is host time and repeats to within the machine's noise.

use std::time::Instant;

use cf_net::UdpStack;
use cf_nic::link;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::alloctrack::alloc_count;
use cornflakes_core::SerializationConfig;

use cf_kv::client::{KvClient, Response, CLIENT_PORT, SERVER_PORT};
use cf_kv::server::{KvServer, SerKind};

use cf_telemetry::json::Value;

use crate::artifacts::{fixed, int, list, text, write_artifact};
use crate::ratchet::{Gate, Rule};
use crate::tables::print_rows;

/// Timed rounds per op in the full preset (the one [`RULES`] gates).
const FULL_ROUNDS: u64 = 16_384;

/// Harness knobs; [`HotpathParams::quick`] is the smoke preset.
#[derive(Clone, Debug)]
pub struct HotpathParams {
    /// Untimed rounds per op before measurement (pools, maps, and scratch
    /// reach their steady-state footprint — the warmup contract).
    pub warmup: u64,
    /// Timed rounds per op.
    pub rounds: u64,
    /// Value size in bytes (below the hybrid threshold: exercises the
    /// arena-copy encode path; served values still leave zero-copy).
    pub value_bytes: usize,
    /// Keys per `batch_get` iteration.
    pub batch_keys: usize,
}

impl HotpathParams {
    /// Full run: enough rounds that per-round `Instant` overhead amortizes.
    pub fn full() -> Self {
        HotpathParams {
            warmup: 1_024,
            rounds: FULL_ROUNDS,
            value_bytes: 256,
            batch_keys: 8,
        }
    }

    /// Smoke preset: the same shape, a fraction of the volume.
    pub fn quick() -> Self {
        HotpathParams {
            warmup: 256,
            rounds: 2_048,
            ..HotpathParams::full()
        }
    }
}

const KINDS: [(SerKind, &str); 4] = [
    (SerKind::Cornflakes, "cornflakes"),
    (SerKind::Protobuf, "protobuf"),
    (SerKind::FlatBuffers, "flatbuffers"),
    (SerKind::CapnProto, "capnproto"),
];

/// Client and server on one Sim, telemetry disabled, no retries — the
/// zero-alloc steady-state configuration (DESIGN.md "Hot-path memory
/// discipline").
fn fixture(kind: SerKind) -> (KvClient, KvServer) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (cp, sp) = link();
    let client_stack = UdpStack::new(sim.clone(), cp, CLIENT_PORT, SerializationConfig::hybrid());
    let server_stack = UdpStack::new(sim.clone(), sp, SERVER_PORT, SerializationConfig::hybrid());
    let client = KvClient::new(client_stack, kind);
    let mut server = KvServer::new(server_stack, kind);
    // A dedup window the warmup saturates: once full, each put's id insert
    // evicts the oldest in place and the window's containers stop growing.
    server.set_dedup_capacity(128);
    (client, server)
}

/// Whether this binary's global allocator feeds the acquisition counter.
fn alloc_counting_active() -> bool {
    let before = alloc_count();
    let probe = std::hint::black_box(Box::new(0u8));
    drop(probe);
    alloc_count() != before
}

#[derive(Default)]
struct RoundTimer {
    encode_ns: f64,
    serve_ns: f64,
    recv_ns: f64,
    allocs: u64,
}

impl RoundTimer {
    /// The `ops` row for `op`: per-round-trip means over `rounds`.
    fn row(&self, op: &str, rounds: u64) -> Value {
        let per = |total: f64| fixed(total / rounds as f64, 1);
        Value::obj([
            ("op", text(op)),
            (
                "ns_per_op",
                per(self.encode_ns + self.serve_ns + self.recv_ns),
            ),
            (
                "allocs_per_op",
                fixed(self.allocs as f64 / rounds as f64, 4),
            ),
            ("encode_ns_per_op", per(self.encode_ns)),
            ("serve_ns_per_op", per(self.serve_ns)),
            ("recv_ns_per_op", per(self.recv_ns)),
        ])
    }
}

/// One timed round trip; segment times and allocation counts accumulate
/// into `t`. `send` must enqueue exactly one request. The response decodes
/// into the caller's reusable `resp` so its buffers persist across rounds
/// (the steady-state client pattern — `KvClient::recv_response_into`).
fn timed_round(
    client: &mut KvClient,
    server: &mut KvServer,
    t: &mut RoundTimer,
    resp: &mut Response,
    send: impl FnOnce(&mut KvClient) -> u32,
) {
    let a0 = alloc_count();
    let t0 = Instant::now();
    let id = send(client);
    let t1 = Instant::now();
    let served = server.poll();
    let t2 = Instant::now();
    let answered = client.recv_response_into(resp);
    let t3 = Instant::now();
    t.allocs += alloc_count() - a0;
    t.encode_ns += (t1 - t0).as_nanos() as f64;
    t.serve_ns += (t2 - t1).as_nanos() as f64;
    t.recv_ns += (t3 - t2).as_nanos() as f64;
    assert_eq!(served, 1, "exactly one request served per round");
    assert!(answered, "request answered");
    assert_eq!(resp.id, Some(id), "response matches request");
}

fn measure_kind(params: &HotpathParams, kind: SerKind, label: &str) -> Value {
    let (mut client, mut server) = fixture(kind);
    let value = vec![0x5A_u8; params.value_bytes];
    let key: &[u8] = b"hotpath-key";
    // The one Response for the whole kind: its value buffers reach batch
    // capacity during warmup and are reused every round after.
    let mut resp = Response::default();
    // Batched keys share the hot key's value size; preload them once.
    let batch_names: Vec<Vec<u8>> = (0..params.batch_keys)
        .map(|i| format!("hotpath-batch-{i:04}").into_bytes())
        .collect();
    for name in &batch_names {
        let id = client.send_put(name, &value);
        server.poll();
        assert!(client.recv_response_into(&mut resp), "preload put answered");
        assert_eq!(resp.id, Some(id));
    }
    let batch_refs: Vec<&[u8]> = batch_names.iter().map(|n| n.as_slice()).collect();

    // Seed the hot key, then warm every driver.
    let id = client.send_put(key, &value);
    server.poll();
    assert!(client.recv_response_into(&mut resp), "seed put answered");
    assert_eq!(resp.id, Some(id));
    for _ in 0..params.warmup {
        let mut sink = RoundTimer::default();
        timed_round(&mut client, &mut server, &mut sink, &mut resp, |c| {
            c.send_get(&[key])
        });
        timed_round(&mut client, &mut server, &mut sink, &mut resp, |c| {
            c.send_get(&batch_refs)
        });
        timed_round(&mut client, &mut server, &mut sink, &mut resp, |c| {
            c.send_put(key, &value)
        });
    }

    let mut ops = Vec::new();
    let mut get_t = RoundTimer::default();
    for _ in 0..params.rounds {
        timed_round(&mut client, &mut server, &mut get_t, &mut resp, |c| {
            c.send_get(&[key])
        });
    }
    ops.push(get_t.row("get", params.rounds));

    let mut batch_t = RoundTimer::default();
    for _ in 0..params.rounds {
        timed_round(&mut client, &mut server, &mut batch_t, &mut resp, |c| {
            c.send_get(&batch_refs)
        });
    }
    ops.push(batch_t.row("batch_get", params.rounds));

    let mut put_t = RoundTimer::default();
    for _ in 0..params.rounds {
        timed_round(&mut client, &mut server, &mut put_t, &mut resp, |c| {
            c.send_put(key, &value)
        });
    }
    ops.push(put_t.row("put", params.rounds));

    Value::obj([("kind", text(label)), ("ops", Value::Arr(ops))])
}

/// Runs the microbenchmark, prints the table, writes `hotpath.json`.
pub fn run(params: &HotpathParams) -> Value {
    let tree = Value::obj([
        ("experiment", text("hotpath")),
        (
            "params",
            Value::obj([
                ("rounds", int(params.rounds)),
                ("warmup", int(params.warmup)),
                ("value_bytes", int(params.value_bytes as u64)),
                ("batch_keys", int(params.batch_keys as u64)),
            ]),
        ),
        // False when the binary keeps the system allocator: allocs/op is
        // then 0 by construction. The committed artifact says true, so a
        // bench built without `CountingAlloc` fails the gate.
        ("alloc_counted", Value::Bool(alloc_counting_active())),
        (
            "kinds",
            list(KINDS, |(kind, label)| measure_kind(params, kind, label)),
        ),
    ]);
    print_rows(
        "Hot path: ns/op and allocs/op per round trip (real time)",
        &tree,
        "kinds[kind].ops[op]",
        &[
            "ns_per_op",
            "allocs_per_op",
            "encode_ns_per_op",
            "serve_ns_per_op",
            "recv_ns_per_op",
        ],
    );
    write_artifact("hotpath.json", &tree.render());
    tree
}

/// Stray-allocation budget per measured window: a handful of one-off
/// allocations per window (lazy runtime init, hash-seed-dependent rehash
/// timing, amortized container doubling that happens to land inside the
/// window) is a *fixed* count, not a per-request cost, so the floor's
/// slack is `STRAY_ALLOC_BUDGET / rounds` — it shrinks as the run grows.
/// Any structural regression costs at least one allocation per request,
/// orders of magnitude above this budget, and still trips.
const STRAY_ALLOC_BUDGET: f64 = 16.0;

/// What `BENCH_hotpath.json` is held to (see [`crate::ratchet`]).
pub const RULES: &[Rule] = &[
    Rule("alloc_counted", Gate::Same),
    // Host clock: machines and neighbours differ, so one multiplicative
    // bound (3x, what CI used) that only a structural regression crosses.
    Rule("kinds[kind].ops[op].ns_per_op", Gate::Lower(2.0)),
    // A hard floor: the driver is fixed, so a per-request rise is a
    // regression; the slack is the stray budget over the window.
    Rule(
        "kinds[kind].ops[op].allocs_per_op",
        Gate::LowerBy(STRAY_ALLOC_BUDGET / FULL_ROUNDS as f64),
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::select;

    #[test]
    fn quick_run_reports_all_kinds_and_ops() {
        let tree = run(&HotpathParams {
            warmup: 16,
            rounds: 64,
            ..HotpathParams::quick()
        });
        let field = |f: &str| -> Vec<(String, f64)> {
            select(&tree, &format!("kinds[kind].ops[op].{f}"))
                .into_iter()
                .map(|(row, v)| (row, v.and_then(Value::as_f64).expect("a number")))
                .collect()
        };
        let total = field("ns_per_op");
        let rows: Vec<&str> = total.iter().map(|(row, _)| row.as_str()).collect();
        let expected: Vec<String> = KINDS
            .iter()
            .flat_map(|(_, kind)| {
                ["get", "batch_get", "put"].map(|op| format!("kinds[{kind}].ops[{op}]."))
            })
            .collect();
        assert_eq!(rows, expected);
        let segments = [
            field("encode_ns_per_op"),
            field("serve_ns_per_op"),
            field("recv_ns_per_op"),
        ];
        for (i, (row, ns)) in total.iter().enumerate() {
            assert!(*ns > 0.0, "{row} measured nothing");
            let sum: f64 = segments.iter().map(|s| s[i].1).sum();
            assert!((sum - ns).abs() < 0.2, "{row}: segments telescope");
        }
        // The lib test binary keeps the system allocator.
        assert_eq!(tree.get("alloc_counted"), Some(&Value::Bool(false)));
        crate::ratchet::assert_gates_itself(RULES, &tree);
    }
}
