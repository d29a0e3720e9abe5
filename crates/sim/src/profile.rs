//! Machine profiles: calibrated cost constants and NIC models.
//!
//! All virtual-time charges in the workspace come from a [`CostModel`]. The
//! constants are calibrated against the absolute numbers the paper reports
//! for its motivating echo experiment (§2.2, Figure 2) and the hybrid
//! threshold study (§5, Figures 3 and 5); `DESIGN.md` §3 shows the
//! derivation. Per-NIC differences (Figure 10) are captured by [`NicModel`].

/// Cache geometry for a simulated machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Unified last-level cache capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's CloudLab c6525-100g servers have "about 134 MB of L1, L2
    /// and L3 cache" (AMD EPYC 7402P). We model a single unified 128 MiB LLC.
    pub const CLOUDLAB_C6525: CacheConfig = CacheConfig {
        capacity_bytes: 128 << 20,
        ways: 16,
    };

    /// A deliberately small cache for unit tests that need to provoke misses
    /// without allocating huge working sets.
    pub const TINY_FOR_TESTS: CacheConfig = CacheConfig {
        capacity_bytes: 64 << 10,
        ways: 8,
    };
}

/// Which NIC a simulation models. The paper evaluates Mellanox ConnectX-5Ex /
/// ConnectX-6 and Intel E810-CQDA2 NICs (§6.1.1, §6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NicModel {
    /// Mellanox ConnectX-5Ex (the NIC that produced the Figure 5 heatmap).
    MlxCx5,
    /// Mellanox ConnectX-6 (the main evaluation NIC).
    MlxCx6,
    /// Intel E810-CQDA2. Supports only 8 scatter-gather entries per send
    /// (one of which is consumed by the packet header entry).
    IntelE810,
}

impl NicModel {
    /// Maximum scatter-gather entries per transmit descriptor, including the
    /// entry used for the packet header.
    pub fn max_sg_entries(self) -> usize {
        match self {
            NicModel::MlxCx5 | NicModel::MlxCx6 => 64,
            NicModel::IntelE810 => 8,
        }
    }

    /// CPU-side cost of posting one additional scatter-gather entry on the
    /// transmit ring (descriptor write; the NIC's extra PCIe read is not CPU
    /// time but shows up indirectly as a slightly higher per-entry charge on
    /// the e810, whose descriptor format requires more writes).
    pub fn sg_entry_cost_ns(self) -> f64 {
        match self {
            NicModel::MlxCx5 | NicModel::MlxCx6 => 46.0,
            NicModel::IntelE810 => 47.0,
        }
    }

    /// Short human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            NicModel::MlxCx5 => "Mellanox CX-5Ex",
            NicModel::MlxCx6 => "Mellanox CX-6",
            NicModel::IntelE810 => "Intel E810-CQDA2",
        }
    }
}

/// Calibrated CPU cost constants, in nanoseconds unless noted.
///
/// Calibration anchors (paper Figure 2, 4096-byte echo on one core):
///
/// | anchor | paper | constraint |
/// |---|---|---|
/// | no serialization | 77 Gbps (426 ns/pkt)  | `per_packet_base` |
/// | one copy | 28 Gbps (1170 ns/pkt) | cold copy of 4 KiB ≈ 744 ns |
/// | two copies | 23 Gbps (1424 ns/pkt) | warm copy of 4 KiB ≈ 254 ns |
/// | raw scatter-gather | 48 Gbps (683 ns/pkt) | 2 SG entries + object header |
/// | hybrid threshold | 512 B (Figs. 3/5) | safety overhead ≈ cold copy of 512 B |
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed per-packet cost: RX poll + packet header parse + TX descriptor
    /// for the header entry + doorbell + completion handling.
    pub per_packet_base: f64,
    /// Cost of one doorbell ring: an uncached MMIO write to the NIC's
    /// doorbell register. For single-descriptor posts this is *included in*
    /// `per_packet_base` (the calibration anchors absorb it); it is broken
    /// out so batched posts (`post_tx_burst`-style) can ring once per
    /// burst and charge `per_packet_base − doorbell_write` for the frames
    /// that share the ring.
    pub doorbell_write: f64,
    /// Startup cost of one copy operation (call overhead, loop setup).
    pub copy_startup: f64,
    /// Per-cache-line cost when the source line misses in LLC (streaming,
    /// prefetched: well below the ~100 ns random-access latency).
    pub copy_line_miss: f64,
    /// Per-cache-line cost when the source line hits in LLC.
    pub copy_line_hit: f64,
    /// Cost of a random (non-streaming) metadata line access that misses.
    /// These are pointer-chasing accesses with no prefetch, so they are
    /// charged close to full LLC-miss latency.
    pub meta_miss: f64,
    /// Cost of a metadata line access that hits.
    pub meta_hit: f64,
    /// Pure compute portion of `recover_ptr` (range-map lookup arithmetic).
    pub recover_ptr_compute: f64,
    /// Atomic reference-count update arithmetic (on top of the line access).
    pub refcount_update: f64,
    /// Arena allocation (bump pointer) for a copied field.
    pub arena_alloc: f64,
    /// Heap allocation (used by baseline libraries that do not use arenas).
    pub heap_alloc: f64,
    /// Writing serialization header material, per byte (resident lines).
    pub header_write_per_byte: f64,
    /// Fixed cost of assembling / parsing an object header.
    pub header_fixed: f64,
    /// Per-field cost during serialization (bitmap update, offset bookkeeping).
    pub per_field: f64,
    /// Per-field cost during deserialization (pointer decode).
    pub per_field_deser: f64,
    /// Varint encode/decode cost per encoded byte (Protobuf-style baselines).
    pub varint_per_byte: f64,
    /// Hash computation for a key-value store lookup.
    pub kv_hash: f64,
    /// Cost of allocating and materializing an intermediate scatter-gather
    /// array entry (the §6.5.2 ablation: without serialize-and-send).
    pub sga_entry_materialize: f64,
    /// UTF-8 validation per byte (baselines validate at deserialization
    /// time; Cornflakes defers it until a string field is accessed, §6.4).
    pub utf8_per_byte: f64,
    /// Fixed per-field overhead of the baseline libraries, charged at both
    /// encode and decode: accessor traversals, size-computation passes,
    /// bounds/tag dispatch. Together with `lib_field_per_byte` this is the
    /// library "serialization tax" beyond raw data movement that fleet
    /// studies report.
    pub lib_field_fixed: f64,
    /// Per-byte component of the baseline libraries' field overhead.
    pub lib_field_per_byte: f64,
    /// One-way wire + client latency floor added to every request's latency
    /// (not server occupancy): models propagation, switch, and client-side
    /// processing so latency scales match the paper's ~20–60 µs curves.
    /// Every experiment's floor: the bench harness adds it to each sojourn.
    pub one_way_wire_ns: f64,
}

impl CostModel {
    /// The calibrated model for the paper's CloudLab c6525-100g machines.
    pub fn cloudlab_c6525() -> Self {
        CostModel {
            per_packet_base: 426.0,
            doorbell_write: 64.0,
            copy_startup: 22.0,
            copy_line_miss: 8.8,
            copy_line_hit: 4.0,
            meta_miss: 88.0,
            meta_hit: 6.0,
            recover_ptr_compute: 20.0,
            refcount_update: 6.0,
            arena_alloc: 8.0,
            heap_alloc: 25.0,
            header_write_per_byte: 0.25,
            header_fixed: 70.0,
            per_field: 28.0,
            per_field_deser: 16.0,
            varint_per_byte: 1.6,
            kv_hash: 14.0,
            sga_entry_materialize: 22.0,
            utf8_per_byte: 0.35,
            lib_field_fixed: 20.0,
            lib_field_per_byte: 0.075,
            one_way_wire_ns: 5000.0,
        }
    }

    /// The baseline libraries' per-field overhead for a field of `bytes`
    /// bytes (charged at both encode and decode). The size-dependent
    /// component saturates at 2 KiB: bookkeeping (size computation, bounds
    /// management, buffer growth) stops scaling once fields dwarf the
    /// metadata, and very large fields are dominated by their memcpy.
    pub fn lib_field_overhead(&self, bytes: usize) -> f64 {
        self.lib_field_fixed + bytes.min(2048) as f64 * self.lib_field_per_byte
    }

    /// Cost of copying `len` bytes whose source lines produced the given
    /// hit/miss split, e.g. from [`crate::CacheSim::access`].
    pub fn copy_cost(&self, hits: u64, misses: u64) -> f64 {
        self.copy_startup + misses as f64 * self.copy_line_miss + hits as f64 * self.copy_line_hit
    }
}

/// A complete simulated machine: CPU cost model, cache geometry, NIC.
#[derive(Clone, Debug)]
pub struct MachineProfile {
    /// Human-readable profile name for experiment output.
    pub name: &'static str,
    /// CPU cost constants.
    pub costs: CostModel,
    /// Last-level cache geometry.
    pub cache: CacheConfig,
    /// NIC model.
    pub nic: NicModel,
}

impl MachineProfile {
    /// CloudLab c6525-100g: AMD EPYC 7402P + Mellanox CX-6 (main testbed).
    pub fn cloudlab_c6525() -> Self {
        MachineProfile {
            name: "c6525-100g (EPYC 7402P, Mellanox CX-6)",
            costs: CostModel::cloudlab_c6525(),
            cache: CacheConfig::CLOUDLAB_C6525,
            nic: NicModel::MlxCx6,
        }
    }

    /// The §6.3 AMD EPYC Milan 7313P host with an Intel E810.
    pub fn milan_intel_e810() -> Self {
        MachineProfile {
            name: "EPYC Milan 7313P, Intel E810-CQDA2",
            nic: NicModel::IntelE810,
            ..Self::cloudlab_c6525()
        }
    }

    /// The main-testbed cost model with a 16 MiB LLC: used by the
    /// measurement-study microbenchmarks, which need working sets several
    /// times larger than the cache without allocating gigabytes of host
    /// memory. Cost constants (and therefore the copy/zero-copy crossover)
    /// are unchanged; only the cache-resident fraction shrinks.
    pub fn microbench() -> Self {
        MachineProfile {
            name: "c6525-100g (scaled 16 MiB LLC)",
            costs: CostModel::cloudlab_c6525(),
            cache: CacheConfig {
                capacity_bytes: 16 << 20,
                ways: 16,
            },
            nic: NicModel::MlxCx6,
        }
    }

    /// A small-cache profile for fast unit tests.
    pub fn tiny_for_tests() -> Self {
        MachineProfile {
            name: "tiny test machine",
            costs: CostModel::cloudlab_c6525(),
            cache: CacheConfig::TINY_FOR_TESTS,
            nic: NicModel::MlxCx6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e810_limits_sg_entries() {
        assert_eq!(NicModel::IntelE810.max_sg_entries(), 8);
        assert!(NicModel::MlxCx6.max_sg_entries() > 8);
    }

    #[test]
    fn calibration_anchor_no_serialization() {
        // 4096-byte echo with no serialization should cost ~426 ns,
        // i.e. ~77 Gbps of payload throughput.
        let m = CostModel::cloudlab_c6525();
        let gbps = 4096.0 * 8.0 / m.per_packet_base;
        assert!((76.0..78.5).contains(&gbps), "{gbps}");
    }

    /// Deserialize + reserialize overhead of the manual echo variants
    /// (header parse, per-field pointers, header rebuild): ≈170 ns.
    const ECHO_OVERHEAD: f64 = 170.0;

    #[test]
    fn calibration_anchor_one_copy() {
        // One cold copy of 4096 bytes + echo overhead ≈ 28 Gbps total.
        let m = CostModel::cloudlab_c6525();
        let total = m.per_packet_base + ECHO_OVERHEAD + m.copy_cost(0, 64);
        let gbps = 4096.0 * 8.0 / total;
        assert!((26.5..29.5).contains(&gbps), "{gbps}");
    }

    #[test]
    fn calibration_anchor_two_copy() {
        let m = CostModel::cloudlab_c6525();
        let total = m.per_packet_base + ECHO_OVERHEAD + m.copy_cost(0, 64) + m.copy_cost(64, 0);
        let gbps = 4096.0 * 8.0 / total;
        assert!((21.0..24.5).contains(&gbps), "{gbps}");
    }

    #[test]
    fn safety_overhead_crosses_over_near_512() {
        // The per-field zero-copy cost (recover_ptr + refcount touches +
        // send-time clone + SG entry) against the per-field copy cost
        // (arena alloc + source copy + DMA-buffer copy), in the two cache
        // regimes a YCSB store mixes. The crossover must sit at ~512 B:
        // below it in the hot regime, slightly above in the cold regime.
        let m = CostModel::cloudlab_c6525();
        let nic = NicModel::MlxCx6;
        let zc = |refcount_line: f64| {
            m.recover_ptr_compute
                + m.meta_hit // registry range map: hot
                + refcount_line
                + m.refcount_update
                + m.meta_hit // send-time clone re-touches the line
                + m.refcount_update
                + nic.sg_entry_cost_ns()
        };
        let copy = |bytes: u64, hot: bool| {
            let lines = bytes / 64;
            let src = if hot {
                m.copy_cost(lines, 0)
            } else {
                m.copy_cost(0, lines)
            };
            m.arena_alloc + src + m.copy_cost(lines, 0)
        };
        // Hot values + hot refcounts (Zipf head): copy wins at 256,
        // zero-copy wins at 512.
        assert!(copy(256, true) < zc(m.meta_hit), "hot 256");
        assert!(copy(512, true) > zc(m.meta_hit), "hot 512");
        // Cold values + cold refcounts (Zipf tail): copy wins at 512 by a
        // hair, zero-copy wins from ~640 B.
        assert!(copy(512, false) < zc(m.meta_miss), "cold 512");
        assert!(copy(1024, false) > zc(m.meta_miss), "cold 1024");
    }

    #[test]
    fn raw_sg_beats_copy_even_at_64_bytes() {
        // Figure 3: without safety bookkeeping, one SG entry (plus the
        // send-time reference clone) is cheaper than copying even a single
        // cache-resident 64-byte line.
        let m = CostModel::cloudlab_c6525();
        for nic in [NicModel::MlxCx6, NicModel::IntelE810, NicModel::MlxCx5] {
            let copy64 = m.arena_alloc + m.copy_cost(1, 0) + m.copy_cost(1, 0);
            let raw = nic.sg_entry_cost_ns() + m.meta_hit + m.refcount_update;
            assert!(raw < copy64, "{}: raw={raw} copy={copy64}", nic.name());
        }
    }
}
