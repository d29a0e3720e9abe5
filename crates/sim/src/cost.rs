//! The shared simulation context: clock + cache + cost model + attribution.
//!
//! Every simulated machine owns one [`SimCore`], shared between the NIC,
//! the networking stack, the serialization library, and the application via
//! the cheaply clonable [`Sim`] handle. All virtual-time charges go through
//! the methods here, so costs are both *applied* (clock advance) and
//! *attributed* (per-category counters, used by the Figure 11 cycle
//! breakdown experiment).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::cache::CacheSim;
use crate::clock::Clock;
use crate::profile::{CostModel, MachineProfile};

/// Observer invoked on every virtual-time charge (see
/// [`Sim::set_charge_observer`]). Observability layers use this to attribute
/// per-category cost to the currently open span without the cost model
/// knowing anything about spans.
///
/// The [`SimCore`] is mutably borrowed while `on_charge` runs:
/// implementations must not call back into [`Sim`] charging or query
/// methods. Reading an independently held [`Clock`] handle is fine (the
/// clock's state is shared via its own `Rc<Cell>`).
pub trait ChargeObserver {
    /// Called after `ns` nanoseconds were charged to `cat`.
    fn on_charge(&self, cat: Category, ns: f64);
}

/// An optional [`ChargeObserver`], wrapped so [`SimCore`] can keep deriving
/// `Debug`.
#[derive(Clone, Default)]
pub struct ObserverSlot(Option<Rc<dyn ChargeObserver>>);

impl ObserverSlot {
    #[inline]
    fn notify(&self, cat: Category, ns: f64) {
        if let Some(obs) = &self.0 {
            obs.on_charge(cat, ns);
        }
    }
}

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("ObserverSlot(set)"),
            None => f.write_str("ObserverSlot(empty)"),
        }
    }
}

/// Cost categories for attribution, mirroring the request-handling phases of
/// the paper's Figure 11 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// RX-side packet processing (poll, header parse).
    Rx,
    /// Request deserialization.
    Deserialize,
    /// Application work: store reads (gets).
    AppGet,
    /// Application work: store writes (puts).
    AppPut,
    /// Serialization: copying field data (arena + DMA-buffer copies).
    SerializeCopy,
    /// Serialization: zero-copy bookkeeping (recover_ptr, refcounts).
    SerializeZeroCopy,
    /// Serialization: object/bitmap header construction.
    HeaderWrite,
    /// TX-side processing (descriptors, doorbell, completions).
    Tx,
    /// Memory allocation outside arenas.
    Alloc,
    /// Anything else.
    Other,
}

/// Number of [`Category`] variants (for the attribution array).
pub const NUM_CATEGORIES: usize = 10;

impl Category {
    /// Index into the attribution array: the declaration order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All categories in index order.
    pub fn all() -> [Category; NUM_CATEGORIES] {
        [
            Category::Rx,
            Category::Deserialize,
            Category::AppGet,
            Category::AppPut,
            Category::SerializeCopy,
            Category::SerializeZeroCopy,
            Category::HeaderWrite,
            Category::Tx,
            Category::Alloc,
            Category::Other,
        ]
    }

    /// Human-readable label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Category::Rx => "rx",
            Category::Deserialize => "deserialize",
            Category::AppGet => "get",
            Category::AppPut => "put",
            Category::SerializeCopy => "serialize(copy)",
            Category::SerializeZeroCopy => "serialize(zero-copy)",
            Category::HeaderWrite => "header-write",
            Category::Tx => "tx",
            Category::Alloc => "alloc",
            Category::Other => "other",
        }
    }
}

/// Per-category accumulated nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    ns: [f64; NUM_CATEGORIES],
}

impl Attribution {
    /// Nanoseconds attributed to `cat`.
    pub fn get(&self, cat: Category) -> f64 {
        self.ns[cat.index()]
    }

    /// Total attributed nanoseconds.
    pub fn total(&self) -> f64 {
        self.ns.iter().sum()
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        self.ns = [0.0; NUM_CATEGORIES];
    }

    fn add(&mut self, cat: Category, ns: f64) {
        self.ns[cat.index()] += ns;
    }
}

/// The mutable core of one simulated machine.
#[derive(Debug)]
pub struct SimCore {
    /// Virtual clock (one CPU core).
    pub clock: Clock,
    /// Last-level cache model.
    pub cache: CacheSim,
    /// The machine profile this core was built from (cache geometry, NIC
    /// model, and the cost constants [`Sim::new`] copied into the handle).
    pub profile: MachineProfile,
    /// Per-category cost attribution.
    pub attribution: Attribution,
    /// Optional charge observer (e.g. a span tracer).
    pub observer: ObserverSlot,
}

/// Cheaply clonable handle to a [`SimCore`].
///
/// All charging methods take `&self` and borrow the core internally; the
/// simulation is single-threaded by construction (one `Sim` per simulated
/// core), so the `RefCell` borrows never overlap.
#[derive(Clone, Debug)]
pub struct Sim {
    shared: Rc<Shared>,
}

/// What every clone of a [`Sim`] handle points at.
#[derive(Debug)]
struct Shared {
    /// The profile's cost constants, outside the `RefCell` so that
    /// [`Sim::costs`] and the charge paths read them without borrowing the
    /// core or copying the model. Fixed at construction: editing
    /// `SimCore::profile.costs` afterwards does not change what is charged.
    costs: CostModel,
    core: RefCell<SimCore>,
}

impl Sim {
    /// Creates a simulation context for the given machine profile.
    pub fn new(profile: MachineProfile) -> Self {
        let cache = CacheSim::new(profile.cache.capacity_bytes, profile.cache.ways);
        Sim {
            shared: Rc::new(Shared {
                costs: profile.costs.clone(),
                core: RefCell::new(SimCore {
                    clock: Clock::new(),
                    cache,
                    profile,
                    attribution: Attribution::default(),
                    observer: ObserverSlot::default(),
                }),
            }),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.shared.core.borrow().clock.now()
    }

    /// A clone of the shared clock.
    pub fn clock(&self) -> Clock {
        self.shared.core.borrow().clock.clone()
    }

    /// Runs `f` with mutable access to the core (escape hatch for harnesses).
    pub fn with_core<R>(&self, f: impl FnOnce(&mut SimCore) -> R) -> R {
        f(&mut self.shared.core.borrow_mut())
    }

    /// The machine's NIC model.
    pub fn nic(&self) -> crate::profile::NicModel {
        self.shared.core.borrow().profile.nic
    }

    /// Installs (or clears) the charge observer. At most one observer is
    /// active per machine; installing replaces any previous one.
    pub fn set_charge_observer(&self, observer: Option<Rc<dyn ChargeObserver>>) {
        self.shared.core.borrow_mut().observer = ObserverSlot(observer);
    }

    /// Charges `ns` nanoseconds to `cat`.
    pub fn charge(&self, cat: Category, ns: f64) {
        let mut c = self.shared.core.borrow_mut();
        c.clock.advance_f(ns);
        c.attribution.add(cat, ns);
        c.observer.notify(cat, ns);
    }

    /// Charges the cost of copying `len` bytes from `src` to `dst`.
    ///
    /// Touches the source range in the cache and charges per-line costs based
    /// on residency; destination lines are installed in the cache
    /// (write-allocate) but their fill is not charged — streaming stores
    /// overlap with the source reads on real hardware, and the calibration
    /// anchors (one-copy = 28 Gbps) absorb them into the per-line source
    /// costs. Returns the charged nanoseconds.
    pub fn charge_memcpy(&self, cat: Category, src: u64, dst: u64, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let mut c = self.shared.core.borrow_mut();
        let r = c.cache.access(src, len);
        c.cache.access(dst, len);
        let ns = self.shared.costs.copy_cost(r.hits, r.misses);
        c.clock.advance_f(ns);
        c.attribution.add(cat, ns);
        c.observer.notify(cat, ns);
        ns
    }

    /// Charges a write of `len` bytes at `dst` that does not read a source
    /// (e.g. header construction). Lines are installed in the cache and
    /// charged at the configured per-byte header-write rate plus a per-line
    /// hit cost for non-resident lines.
    pub fn charge_write(&self, cat: Category, dst: u64, len: usize) -> f64 {
        let mut c = self.shared.core.borrow_mut();
        let r = c.cache.access(dst, len);
        let ns = len as f64 * self.shared.costs.header_write_per_byte
            + r.misses as f64 * self.shared.costs.copy_line_hit;
        c.clock.advance_f(ns);
        c.attribution.add(cat, ns);
        c.observer.notify(cat, ns);
        ns
    }

    /// Charges a read of `len` bytes at `src` (e.g. parsing a received
    /// header). Charged like a copy without the startup cost.
    pub fn charge_read(&self, cat: Category, src: u64, len: usize) -> f64 {
        let mut c = self.shared.core.borrow_mut();
        let r = c.cache.access(src, len);
        let ns = r.misses as f64 * self.shared.costs.copy_line_miss
            + r.hits as f64 * self.shared.costs.copy_line_hit;
        c.clock.advance_f(ns);
        c.attribution.add(cat, ns);
        c.observer.notify(cat, ns);
        ns
    }

    /// Charges a pointer-chasing metadata access to the line containing
    /// `addr` (refcounts, range-map nodes, hash buckets): `meta_miss` ns if
    /// the line is not resident, `meta_hit` ns if it is.
    pub fn charge_meta_access(&self, cat: Category, addr: u64) -> f64 {
        let mut c = self.shared.core.borrow_mut();
        let hit = c.cache.touch(addr);
        let ns = if hit {
            self.shared.costs.meta_hit
        } else {
            self.shared.costs.meta_miss
        };
        c.clock.advance_f(ns);
        c.attribution.add(cat, ns);
        c.observer.notify(cat, ns);
        ns
    }

    /// Host-only hint that a charge is about to touch the modelled line of
    /// `addr` ([`CacheSim::hint`]): charges nothing and changes no state.
    #[inline]
    pub fn hint(&self, addr: u64) {
        self.shared.core.borrow().cache.hint(addr);
    }

    /// Records a device DMA write to `[addr, addr + len)`: invalidates the
    /// cached lines (no-DDIO AMD platform) without charging CPU time.
    pub fn dma_write(&self, addr: u64, len: usize) {
        self.shared.core.borrow_mut().cache.invalidate(addr, len);
    }

    /// Charges the NIC-specific cost of posting one scatter-gather entry.
    pub fn charge_sg_entry(&self, cat: Category) -> f64 {
        let mut c = self.shared.core.borrow_mut();
        let ns = c.profile.nic.sg_entry_cost_ns();
        c.clock.advance_f(ns);
        c.attribution.add(cat, ns);
        c.observer.notify(cat, ns);
        ns
    }

    /// Charges the fixed per-packet datapath cost, split between RX and TX.
    pub fn charge_per_packet(&self) {
        let base = self.shared.costs.per_packet_base;
        self.charge(Category::Rx, base * 0.45);
        self.charge(Category::Tx, base * 0.55);
    }

    /// The cost model constants, fixed when the machine was created.
    #[inline]
    pub fn costs(&self) -> &CostModel {
        &self.shared.costs
    }

    /// Resets clock, cache, and attribution between sweep points.
    pub fn reset(&self) {
        let mut c = self.shared.core.borrow_mut();
        c.clock.reset();
        c.cache.clear();
        c.attribution.reset();
    }

    /// Returns a copy of the current attribution counters.
    pub fn attribution(&self) -> Attribution {
        self.shared.core.borrow().attribution.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MachineProfile;

    fn sim() -> Sim {
        Sim::new(MachineProfile::tiny_for_tests())
    }

    #[test]
    fn category_index_is_its_position_in_all() {
        for (i, cat) in Category::all().into_iter().enumerate() {
            assert_eq!(cat.index(), i, "{cat:?}");
        }
    }

    #[test]
    fn charge_advances_and_attributes() {
        let s = sim();
        s.charge(Category::Rx, 100.0);
        s.charge(Category::Rx, 50.0);
        s.charge(Category::Tx, 25.0);
        assert_eq!(s.now(), 175);
        let a = s.attribution();
        assert_eq!(a.get(Category::Rx), 150.0);
        assert_eq!(a.get(Category::Tx), 25.0);
        assert_eq!(a.total(), 175.0);
    }

    #[test]
    fn cold_copy_costs_more_than_warm() {
        let s = sim();
        let cold = s.charge_memcpy(Category::SerializeCopy, 0x10000, 0x90000, 4096);
        let warm = s.charge_memcpy(Category::SerializeCopy, 0x10000, 0x90000, 4096);
        assert!(cold > warm, "cold={cold} warm={warm}");
    }

    #[test]
    fn destination_becomes_resident() {
        let s = sim();
        s.charge_memcpy(Category::SerializeCopy, 0x10000, 0x90000, 1024);
        // Copying *from* the previous destination should now be warm.
        let warm = s.charge_memcpy(Category::SerializeCopy, 0x90000, 0x20000, 1024);
        let costs = s.costs();
        let expected = costs.copy_cost(16, 0);
        assert!(
            (warm - expected).abs() < 1e-9,
            "warm={warm} expected={expected}"
        );
    }

    #[test]
    fn meta_access_hit_vs_miss() {
        let s = sim();
        let miss = s.charge_meta_access(Category::SerializeZeroCopy, 0xabc0);
        let hit = s.charge_meta_access(Category::SerializeZeroCopy, 0xabc0);
        let costs = s.costs();
        assert_eq!(miss, costs.meta_miss);
        assert_eq!(hit, costs.meta_hit);
    }

    #[test]
    fn zero_len_copy_free() {
        let s = sim();
        assert_eq!(s.charge_memcpy(Category::Other, 0, 64, 0), 0.0);
        assert_eq!(s.now(), 0);
    }

    #[test]
    fn per_packet_splits_rx_tx() {
        let s = sim();
        s.charge_per_packet();
        let a = s.attribution();
        let base = s.costs().per_packet_base;
        assert!((a.total() - base).abs() < 1.0);
        assert!(a.get(Category::Rx) > 0.0);
        assert!(a.get(Category::Tx) > 0.0);
    }

    /// Replays a fixed pseudo-random charge sequence over a working set of
    /// four cache capacities and returns the clock and every attribution
    /// category.
    fn replay(profile: MachineProfile) -> (u64, [f64; NUM_CATEGORIES]) {
        let span = 4 * profile.cache.capacity_bytes as u64;
        let s = Sim::new(profile);
        let mut rng = crate::rng::SplitMix64::new(0xC0F1_A4E5);
        let cats = Category::all();
        for _ in 0..40_000 {
            let cat = cats[rng.next_bounded(NUM_CATEGORIES as u64) as usize];
            let a = 0x10_0000 + rng.next_bounded(span);
            let b = 0x10_0000 + rng.next_bounded(span);
            let len = rng.next_bounded(4200) as usize;
            match rng.next_bounded(16) {
                0..=3 => {
                    s.charge_memcpy(cat, a, b, len);
                }
                4..=5 => {
                    s.charge_read(cat, a, len);
                }
                6..=7 => {
                    s.charge_write(cat, a, len);
                }
                8..=10 => {
                    s.charge_meta_access(cat, a);
                }
                11..=12 => s.dma_write(a, len),
                13 => s.charge(cat, rng.next_f64() * 300.0),
                14 => {
                    s.charge_sg_entry(cat);
                }
                _ => s.charge_per_packet(),
            }
        }
        let a = s.attribution();
        (s.now(), cats.map(|c| a.get(c)))
    }

    #[test]
    fn replay_matches_recorded_clock_and_attribution() {
        // Constants recorded from the timestamp-LRU `CacheSim` and the
        // `f64::round` clock this cost model replaced: any drift in a hit/miss
        // decision or a rounded nanosecond shows up here.
        let (now, attr) = replay(MachineProfile::tiny_for_tests());
        assert_eq!(now, 9_341_449, "tiny clock");
        let tiny = [
            1335306.1826911448,
            821291.1822127636,
            815736.6559895154,
            811201.2953756978,
            830147.6796700435,
            823224.0542143019,
            849676.5118350988,
            1407368.541107279,
            827039.6779431802,
            819815.6024743326,
        ];
        assert_eq!(attr, tiny, "tiny attribution");
        let (now, attr) = replay(MachineProfile::microbench());
        assert_eq!(now, 9_466_934, "microbench clock");
        let microbench = [
            1349241.782691146,
            827892.7822127647,
            824496.6559895154,
            825253.2953756963,
            850377.2796700438,
            828588.8542143027,
            860078.1118351005,
            1421051.741107278,
            841961.2779431816,
            837382.402474332,
        ];
        assert_eq!(attr, microbench, "microbench attribution");
    }

    #[test]
    fn reset_clears_everything() {
        let s = sim();
        s.charge_memcpy(Category::Other, 0x1000, 0x2000, 256);
        s.reset();
        assert_eq!(s.now(), 0);
        assert_eq!(s.attribution().total(), 0.0);
        // Cache was cleared: the same copy costs the cold price again.
        let again = s.charge_memcpy(Category::Other, 0x1000, 0x2000, 256);
        let costs = s.costs();
        assert_eq!(again, costs.copy_cost(0, 4));
    }
}
