//! Consistency history: a checker for per-key read-your-writes and
//! monotonic reads over real-time order, run over the flight recorder.
//!
//! The cluster's replication layer is asynchronous at the edges (catch-up
//! replay, read-repair), so "is a read allowed to return this value?" is
//! a question about the *client's* observation history, not about any one
//! replica's store. Every operation a [`crate::ClusterClient`] completes
//! is one [`FlightEvent::ClusterOp`] in the recorder its telemetry handle
//! carries — key point, op, version and invoke time, stamped at
//! completion — and [`check`] replays those records against the session
//! guarantees the quorum read path claims:
//!
//! - **Read-your-writes** (per key): a GET invoked after a PUT completed
//!   must return a version at least that PUT's.
//! - **Monotonic reads** (per key): a GET invoked after another GET
//!   completed must not return an older version.
//!
//! Both collapse to one rule over the versioned history: an operation's
//! observed version must be ≥ every version *observed by an operation
//! that completed before this one was invoked* (real-time order; ops
//! whose windows overlap are unordered and never constrain each other).
//!
//! A key is its 64-bit ring point ([`crate::map::key_point`]): two keys
//! share one only on a hash collision, which can add a violation but
//! never hide one. A violation names the requests on both sides, so the
//! same recorder's [`cf_telemetry::FlightRecorder::events_for`] explains
//! it.

use cf_telemetry::{FlightEvent, FlightRecord};

/// Which operation the client completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A read observed the recorded version.
    Get,
    /// A write was acknowledged at the recorded version.
    Put,
}

/// One consistency violation found by [`check`]: a GET observed `saw`
/// although an operation that completed before the GET was invoked had
/// already observed `floor > saw`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The ring point of the key whose history is inconsistent.
    pub key: u64,
    /// The violating GET's request id.
    pub req_id: u32,
    /// The stale version the GET returned.
    pub saw: u64,
    /// The newest version already observed before the GET was invoked.
    pub floor: u64,
    /// Whether the floor came from a PUT (read-your-writes) or a GET
    /// (monotonic reads).
    pub floor_op: OpKind,
    /// The request id of the operation that observed `floor`.
    pub floor_req_id: u32,
    /// Invoke timestamp of the violating GET.
    pub invoke_ns: u64,
}

/// Checks the [`FlightEvent::ClusterOp`] records among `records` (oldest
/// first) for per-key read-your-writes and monotonic-reads violations
/// over real-time order; returns every violating GET (empty =
/// consistent).
///
/// For each GET `g`, the *floor* is the highest version observed by any
/// operation on the same key that completed before `g` was invoked (its
/// stamp `<= g`'s `invoke_ns` — concurrent, overlapping ops don't
/// constrain each other). A GET returning `version < floor` went
/// backwards in time: either past a write this client already saw
/// acknowledged (read-your-writes) or past a read it already performed
/// (monotonic reads).
pub fn check(records: &[FlightRecord]) -> Vec<Violation> {
    let ops: Vec<_> = records
        .iter()
        .filter_map(|r| Some((r, cluster_op(r)?)))
        .collect();
    let mut violations = Vec::new();
    for &(g, (put, key, saw, invoke_ns)) in &ops {
        if put {
            continue;
        }
        let floor = ops
            .iter()
            .filter(|(f, (_, k, _, _))| *k == key && f.ts_ns <= invoke_ns)
            .max_by_key(|(_, (_, _, version, _))| *version);
        if let Some(&(f, (put, _, floor, _))) = floor.filter(|(_, (_, _, v, _))| saw < *v) {
            violations.push(Violation {
                key,
                req_id: g.req_id,
                saw,
                floor,
                floor_op: if put { OpKind::Put } else { OpKind::Get },
                floor_req_id: f.req_id,
                invoke_ns,
            });
        }
    }
    violations
}

/// A [`FlightEvent::ClusterOp`] record's `(put, key, version, invoke_ns)`.
fn cluster_op(r: &FlightRecord) -> Option<(bool, u64, u64, u64)> {
    match r.event {
        FlightEvent::ClusterOp {
            put,
            key,
            version,
            invoke_ns,
        } => Some((put, key, version, invoke_ns)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Request `req_id` on key point `key` completed at `complete`.
    fn op(
        req_id: u32,
        put: bool,
        key: u64,
        version: u64,
        invoke: u64,
        complete: u64,
    ) -> FlightRecord {
        FlightRecord {
            req_id,
            ts_ns: complete,
            event: FlightEvent::ClusterOp {
                put,
                key,
                version,
                invoke_ns: invoke,
            },
        }
    }

    #[test]
    fn consistent_history_passes() {
        let ops = [
            op(1, true, 7, 1, 0, 10),
            op(2, false, 7, 1, 20, 30),
            op(3, true, 7, 2, 40, 50),
            op(4, false, 7, 2, 60, 70),
        ];
        assert!(check(&ops).is_empty());
    }

    #[test]
    fn read_your_writes_violation_detected() {
        // Invoked after the put completed, but saw version 1.
        let v = check(&[op(1, true, 7, 2, 0, 10), op(2, false, 7, 1, 20, 30)]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].saw, v[0].floor), (1, 2));
        assert_eq!(v[0].floor_op, OpKind::Put);
        assert_eq!((v[0].req_id, v[0].floor_req_id), (2, 1));
    }

    #[test]
    fn monotonic_reads_violation_detected() {
        let v = check(&[op(1, false, 7, 3, 0, 10), op(2, false, 7, 2, 20, 30)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].floor_op, OpKind::Get);
    }

    #[test]
    fn concurrent_ops_do_not_constrain_each_other() {
        // The put completes at 50; the get was invoked at 20 — their
        // windows overlap, so the old version is a legal return.
        assert!(check(&[op(1, true, 7, 2, 0, 50), op(2, false, 7, 1, 20, 60)]).is_empty());
    }

    #[test]
    fn keys_are_independent() {
        assert!(check(&[op(1, true, 5, 5, 0, 10), op(2, false, 6, 1, 20, 30)]).is_empty());
    }

    #[test]
    fn other_events_are_ignored() {
        let failover = FlightRecord {
            req_id: 2,
            ts_ns: 25,
            event: FlightEvent::Failover { node: 1 },
        };
        let ops = [
            op(1, true, 7, 1, 0, 10),
            failover,
            op(2, false, 7, 1, 20, 30),
        ];
        assert!(check(&ops).is_empty());
    }
}
