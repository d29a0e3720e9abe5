//! Decision logging for the hybrid serializer.
//!
//! Every `CFBytes` construction makes the paper's central choice: copy the
//! field into the arena, or post it zero-copy (recover the pinned buffer via
//! `recover_ptr` and bump its refcount). This module records each decision —
//! field size, active threshold, outcome, and recover hit/miss — as running
//! aggregates plus a small ring of recent decisions for debugging.

use crate::json::Value;

/// One hybrid-serializer decision (a single `CFBytes` construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldDecision {
    /// Field length in bytes.
    pub len: usize,
    /// Effective copy/zero-copy threshold at decision time.
    pub threshold: usize,
    /// Whether a `recover_ptr` lookup was attempted (len >= threshold).
    pub recover_attempted: bool,
    /// Whether the lookup found a registered pinned region.
    pub recover_hit: bool,
    /// Final choice: true = zero-copy reference, false = arena copy.
    pub zero_copy: bool,
}

/// Aggregated decision counters plus a ring of recent decisions.
#[derive(Debug)]
pub struct DecisionLog {
    /// Total decisions.
    pub total: u64,
    /// Fields posted zero-copy.
    pub zero_copy: u64,
    /// Fields copied into the arena.
    pub copied: u64,
    /// `recover_ptr` lookups attempted.
    pub recover_attempts: u64,
    /// `recover_ptr` lookups that found a registered region.
    pub recover_hits: u64,
    /// Bytes posted zero-copy.
    pub bytes_zero_copy: u64,
    /// Bytes copied.
    pub bytes_copied: u64,
    recent: Vec<FieldDecision>,
    capacity: usize,
    head: usize,
}

impl DecisionLog {
    /// Creates a log keeping the most recent `capacity` decisions.
    pub fn new(capacity: usize) -> Self {
        DecisionLog {
            total: 0,
            zero_copy: 0,
            copied: 0,
            recover_attempts: 0,
            recover_hits: 0,
            bytes_zero_copy: 0,
            bytes_copied: 0,
            recent: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            head: 0,
        }
    }

    /// Records one decision.
    pub fn record(&mut self, d: FieldDecision) {
        self.total += 1;
        if d.zero_copy {
            self.zero_copy += 1;
            self.bytes_zero_copy += d.len as u64;
        } else {
            self.copied += 1;
            self.bytes_copied += d.len as u64;
        }
        if d.recover_attempted {
            self.recover_attempts += 1;
        }
        if d.recover_hit {
            self.recover_hits += 1;
        }
        if self.recent.len() < self.capacity {
            self.recent.push(d);
        } else {
            self.recent[self.head] = d;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// `recover_ptr` misses (attempted but no registered region found).
    pub fn recover_misses(&self) -> u64 {
        self.recover_attempts - self.recover_hits
    }

    /// Most recent decisions, oldest first.
    pub fn recent(&self) -> Vec<FieldDecision> {
        if self.recent.len() < self.capacity {
            self.recent.clone()
        } else {
            let mut v = Vec::with_capacity(self.capacity);
            for i in 0..self.capacity {
                v.push(self.recent[(self.head + i) % self.capacity]);
            }
            v
        }
    }

    /// Clears aggregates and the recent ring.
    pub fn reset(&mut self) {
        *self = DecisionLog::new(self.capacity);
    }

    /// The aggregates as one JSON object.
    pub fn summary(&self) -> Value {
        let fraction = if self.total == 0 {
            0.0
        } else {
            self.zero_copy as f64 / self.total as f64
        };
        Value::obj([
            ("total", Value::Num(self.total as f64)),
            ("zero_copy", Value::Num(self.zero_copy as f64)),
            ("copied", Value::Num(self.copied as f64)),
            ("recover_attempts", Value::Num(self.recover_attempts as f64)),
            ("recover_hits", Value::Num(self.recover_hits as f64)),
            ("recover_misses", Value::Num(self.recover_misses() as f64)),
            ("bytes_zero_copy", Value::Num(self.bytes_zero_copy as f64)),
            ("bytes_copied", Value::Num(self.bytes_copied as f64)),
            ("zero_copy_fraction", Value::Num(fraction)),
        ])
    }
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zc(len: usize) -> FieldDecision {
        FieldDecision {
            len,
            threshold: 512,
            recover_attempted: true,
            recover_hit: true,
            zero_copy: true,
        }
    }

    fn copy(len: usize) -> FieldDecision {
        FieldDecision {
            len,
            threshold: 512,
            recover_attempted: false,
            recover_hit: false,
            zero_copy: false,
        }
    }

    #[test]
    fn aggregates() {
        let mut log = DecisionLog::new(8);
        log.record(zc(1024));
        log.record(zc(2048));
        log.record(copy(100));
        log.record(FieldDecision {
            len: 600,
            threshold: 512,
            recover_attempted: true,
            recover_hit: false,
            zero_copy: false,
        });
        assert_eq!(log.total, 4);
        assert_eq!(log.zero_copy, 2);
        assert_eq!(log.copied, 2);
        assert_eq!(log.recover_attempts, 3);
        assert_eq!(log.recover_hits, 2);
        assert_eq!(log.recover_misses(), 1);
        assert_eq!(log.bytes_zero_copy, 3072);
        assert_eq!(log.bytes_copied, 700);
    }

    #[test]
    fn recent_ring_keeps_newest() {
        let mut log = DecisionLog::new(2);
        log.record(copy(1));
        log.record(copy(2));
        log.record(copy(3));
        let lens: Vec<usize> = log.recent().iter().map(|d| d.len).collect();
        assert_eq!(lens, vec![2, 3]);
    }

    #[test]
    fn summary_is_valid_json() {
        let mut log = DecisionLog::default();
        log.record(zc(9000));
        let summary = log.summary().render();
        crate::json::validate(&summary).expect("valid JSON");
        assert!(summary.contains("\"zero_copy_fraction\": 1"));
    }

    #[test]
    fn reset_zeroes() {
        let mut log = DecisionLog::new(4);
        log.record(zc(10));
        log.reset();
        assert_eq!(log.total, 0);
        assert!(log.recent().is_empty());
    }
}
