//! Virtual nanosecond clock shared by all components of one simulation.

use std::cell::Cell;
use std::rc::Rc;

/// A shared virtual clock counting nanoseconds since simulation start.
///
/// Every component of a simulated machine (datapath, NIC, serialization
/// library) holds a clone of the same `Clock` and advances it as it performs
/// work. The clock is intentionally single-threaded (`Rc<Cell<_>>`): one
/// `Clock` models one CPU core, matching the paper's single-core server
/// methodology. Multi-core experiments (Figure 13) instantiate one simulation
/// per core.
///
/// # Examples
///
/// ```
/// let clock = cf_sim::Clock::new();
/// clock.advance(426);
/// assert_eq!(clock.now(), 426);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now_ns: Rc<Cell<u64>>,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now_ns.get()
    }

    /// Advances the clock by `ns` nanoseconds.
    #[inline]
    pub fn advance(&self, ns: u64) {
        self.now_ns.set(self.now_ns.get() + ns);
    }

    /// Advances the clock by a fractional number of nanoseconds, rounding to
    /// the nearest integer. Sub-nanosecond costs accumulate via rounding; all
    /// calibrated constants are ≥ 1 ns so the error is negligible.
    #[inline]
    pub fn advance_f(&self, ns: f64) {
        debug_assert!(ns >= 0.0, "cannot advance the clock backwards");
        self.now_ns.set(self.now_ns.get() + round_ns(ns));
    }

    /// Moves the clock forward to `t` if `t` is in the future; otherwise
    /// leaves it unchanged. Used by the open-loop drivers when a machine
    /// idles until the next arrival.
    #[inline]
    pub fn advance_to(&self, t: u64) {
        if t > self.now_ns.get() {
            self.now_ns.set(t);
        }
    }

    /// Resets the clock to zero (used between sweep points).
    pub fn reset(&self) {
        self.now_ns.set(0);
    }
}

/// `ns.round() as u64` for `0 <= ns < 2^63`, without the call into libm that
/// `f64::round` compiles to on baseline x86-64: truncate, then add one when
/// the fraction is at least a half. Both steps are exact (the truncated value
/// and the fraction of a double are doubles), so ties round away from zero
/// and `0.49999999999999994` rounds down, as `round` has it. Through `i64`
/// because that is one conversion instruction each way where `u64` is a
/// dozen; 2^63 ns is 292 years of virtual time.
#[inline]
fn round_ns(ns: f64) -> u64 {
    let whole = ns as i64;
    whole as u64 + (ns - whole as f64 >= 0.5) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(Clock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = Clock::new();
        c.advance(10);
        c.advance(32);
        assert_eq!(c.now(), 42);
    }

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(100);
        assert_eq!(b.now(), 100);
        b.advance(1);
        assert_eq!(a.now(), 101);
    }

    #[test]
    fn advance_f_rounds() {
        let c = Clock::new();
        c.advance_f(1.4);
        assert_eq!(c.now(), 1);
        c.advance_f(1.6);
        assert_eq!(c.now(), 3);
    }

    #[test]
    fn round_ns_is_f64_round_on_the_pinned_grid() {
        #[track_caller]
        fn check(x: f64) {
            for x in [x.next_down().max(0.0), x, x.next_up()] {
                assert_eq!(round_ns(x), x.round() as u64, "{x:?}");
            }
        }
        check(0.0);
        check(0.49999999999999994);
        // Every tie k + 0.5 up to 2^20, then around each power of two up to
        // 2^52, the last binade that still has halves.
        (0..=1u64 << 20).for_each(|k| check(k as f64 + 0.5));
        for p in 20..=52 {
            for k in (1u64 << p) - 3..(1u64 << p) + 3 {
                check(k as f64);
                check(k as f64 + 0.5);
            }
        }
        // Integers only from here on: the top of the range.
        check(((1u64 << 53) - 1) as f64);
        // Every product the cost model forms.
        let m = crate::profile::CostModel::cloudlab_c6525();
        for scale in [0.45, 0.55, 0.15, 0.25] {
            check(m.per_packet_base * scale);
        }
        check(m.per_packet_base * 0.55 - m.doorbell_write);
        for hits in 0..=256 {
            for misses in 0..=256 {
                check(m.copy_cost(hits, misses));
                check(hits as f64 * m.header_write_per_byte + misses as f64 * m.copy_line_hit);
                check(misses as f64 * m.copy_line_miss + hits as f64 * m.copy_line_hit);
            }
        }
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let c = Clock::new();
        c.advance(50);
        c.advance_to(40);
        assert_eq!(c.now(), 50);
        c.advance_to(60);
        assert_eq!(c.now(), 60);
    }

    #[test]
    fn reset_zeroes() {
        let c = Clock::new();
        c.advance(5);
        c.reset();
        assert_eq!(c.now(), 0);
    }
}
