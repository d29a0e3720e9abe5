//! The serialization context shared between the library and the datapath.

use cf_mem::{Arena, PinnedPool, PoolConfig, Registry};
use cf_sim::Sim;
use cf_telemetry::Telemetry;

use crate::config::SerializationConfig;

/// Everything [`crate::CFBytes`] construction and (de)serialization need:
/// the virtual-time simulation handle, the pinned-region registry (for
/// `recover_ptr`), the copy arena, the pinned allocator, and the hybrid
/// configuration.
///
/// One `SerCtx` belongs to one datapath instance (the co-design of §3: the
/// serialization library and networking stack share memory bookkeeping).
#[derive(Debug)]
pub struct SerCtx {
    /// Virtual-time cost accounting.
    pub sim: Sim,
    /// Pinned-region registry backing `recover_ptr`.
    pub registry: Registry,
    /// Bump arena for copied field data.
    pub arena: Arena,
    /// Pinned allocator for transmit buffers and application values.
    pub pool: PinnedPool,
    /// Hybrid heuristic configuration.
    pub config: SerializationConfig,
    /// The machine's telemetry handle — spans, metrics and the flight
    /// recorder — and the one place it is stored
    /// above the NIC: every stack, engine and client reaches it through the
    /// context it holds. Disabled by default; attach with
    /// [`SerCtx::set_telemetry`].
    pub telemetry: Telemetry,
}

impl SerCtx {
    /// Creates a context with a fresh registry/pool on the given simulation.
    pub fn new(sim: Sim, config: SerializationConfig) -> Self {
        SerCtx::with_pool_config(sim, config, PoolConfig::default())
    }

    /// Creates a context with an explicit pool configuration.
    pub fn with_pool_config(sim: Sim, config: SerializationConfig, pool_cfg: PoolConfig) -> Self {
        let registry = Registry::new();
        let pool = PinnedPool::new(registry.clone(), pool_cfg);
        SerCtx {
            sim,
            registry,
            arena: Arena::new(),
            pool,
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches `tele`: the registry/arena statistic cells — where every
    /// [`crate::CFBytes`] construction's copy-vs-zero-copy choice is
    /// counted, from construction on — are adopted as external `mem.*`
    /// metrics. A half (metrics, flight recorder) `tele` has disabled keeps
    /// what was installed before.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        for (name, cell) in self.registry.stats().cells() {
            tele.register_external(name, cell);
        }
        for (name, cell) in self.arena.stats().cells() {
            tele.register_external(name, cell);
        }
        self.telemetry = tele.over(&self.telemetry);
    }

    /// The zero-copy threshold in force: the configuration's.
    pub fn effective_threshold(&self) -> usize {
        self.config.zero_copy_threshold
    }

    /// Resets per-request state (the copy arena). Called by the datapath
    /// after each transmitted object's completion.
    pub fn end_request(&self) {
        self.arena.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::MachineProfile;

    #[test]
    fn construction_and_reset() {
        let ctx = SerCtx::new(
            Sim::new(MachineProfile::tiny_for_tests()),
            SerializationConfig::hybrid(),
        );
        let a = ctx.arena.copy_in(b"abc");
        assert_eq!(&*a, b"abc");
        ctx.end_request();
        assert_eq!(ctx.config.zero_copy_threshold, 512);
        // Pool allocations are registered and recoverable.
        let b = ctx.pool.alloc(1024).unwrap();
        assert!(ctx.registry.recover_addr(b.addr(), 8).is_some());
    }
}
