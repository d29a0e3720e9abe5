//! Microbenchmarks of the hot-path operations: hybrid pointer construction,
//! header writing, wire-format round trips, cache-simulator accesses, the
//! frame check sequence, the pinned pool and registry, the store's index and
//! workload generators. These measure the *real* (host) cost of the library
//! code itself, complementing the virtual-time experiments.
//!
//! Hand-rolled timing harness (median of per-batch averages) instead of
//! criterion, so the workspace builds with no external dependencies.

use std::hint::black_box;
use std::time::Instant;

use cf_kv::store::KvStore;
use cf_mem::{PinnedPool, PoolConfig, RcBuf, Registry};
use cf_sim::rng::SplitMix64;
use cf_sim::{CacheSim, Category, Histogram, MachineProfile, Sim};
use cf_workloads::{key_string, GoogleSizeDist, Zipf};
use cornflakes_core::msgs::GetM;
use cornflakes_core::obj::{serialize_to_vec, write_full_header};
use cornflakes_core::{CFBytes, CornflakesObj, SerCtx, SerializationConfig};

/// Runs `op` in batches and prints the median per-iteration latency.
fn bench_function<R>(name: &str, mut op: impl FnMut() -> R) {
    const BATCHES: usize = 30;
    const ITERS_PER_BATCH: usize = 2_000;
    // Warm up caches, branch predictors, and lazy init.
    for _ in 0..ITERS_PER_BATCH {
        black_box(op());
    }
    let mut per_iter_ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..ITERS_PER_BATCH {
                black_box(op());
            }
            t0.elapsed().as_nanos() as f64 / ITERS_PER_BATCH as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[BATCHES / 2];
    let min = per_iter_ns[0];
    let max = per_iter_ns[BATCHES - 1];
    println!("{name:<36} median {median:>9.1} ns/iter   (min {min:.1}, max {max:.1})");
}

fn ctx() -> SerCtx {
    SerCtx::new(
        Sim::new(MachineProfile::cloudlab_c6525()),
        SerializationConfig::hybrid(),
    )
}

fn bench_cfbytes() {
    let ctx = ctx();
    let pinned = ctx.pool.alloc(2048).expect("pool");
    let heap = vec![7u8; 256];
    bench_function("cfbytes_new_zero_copy_2048", || {
        CFBytes::new(&ctx, black_box(pinned.as_slice()))
    });
    bench_function("cfbytes_new_copy_256", || {
        CFBytes::new(&ctx, black_box(&heap))
    });
}

fn bench_header_write() {
    let ctx = ctx();
    let pinned = ctx.pool.alloc(1024).expect("pool");
    let mut m = GetM::new();
    m.id = Some(9);
    for _ in 0..4 {
        m.keys.append(CFBytes::new(&ctx, b"a-sixteen-b-key!"));
        m.vals.append(CFBytes::new(&ctx, pinned.as_slice()));
    }
    let hb = m.header_bytes();
    let mut out = vec![0u8; hb];
    bench_function("write_full_header_4keys_4vals", || {
        out.iter_mut().for_each(|x| *x = 0);
        write_full_header(black_box(&m), &mut out)
    });
}

fn bench_roundtrip() {
    let tx = ctx();
    let rx = ctx();
    let pinned = tx.pool.alloc(2048).expect("pool");
    let mut m = GetM::new();
    m.vals.append(CFBytes::new(&tx, pinned.as_slice()));
    m.vals.append(CFBytes::new(&tx, b"small"));
    let wire = serialize_to_vec(&m);
    let pkt = rx.pool.alloc_from(&wire).expect("pool");
    bench_function("deserialize_getm_2vals", || {
        GetM::deserialize(&rx, black_box(&pkt)).expect("ok")
    });
}

fn bench_cache_sim() {
    // Cold streaming: 128 MiB of 2 KiB ranges through a 16 MiB cache, so
    // every line misses and drops its set's LRU tag.
    let mut cache = CacheSim::new(16 << 20, 16);
    let mut addr = 0u64;
    bench_function("cache_access_2048B", || {
        addr = addr.wrapping_add(4096) & 0xFFF_FFFF;
        cache.access(black_box(addr), 2048)
    });
    // Resident: the same ranges over 2 MiB, so every line hits near the
    // front of its set.
    bench_function("cache_access_2048B_resident", || {
        addr = addr.wrapping_add(4096) & 0x1F_FFFF;
        cache.access(black_box(addr), 2048)
    });
    // A received frame: the NIC's DMA write invalidates the resident lines,
    // then the CPU reads them back in.
    bench_function("cache_dma_invalidate_then_read_2048B", || {
        addr = addr.wrapping_add(4096) & 0x1F_FFFF;
        cache.invalidate(black_box(addr), 2048);
        cache.access(black_box(addr), 2048)
    });
    // A received 4 KiB value's reply: the NIC's DMA write into one of eight
    // recycled receive buffers, 67 lines the cache does not hold, so the
    // walk finds nothing to evict.
    let mut rx_buf = 0;
    bench_function("cache_dma_invalidate_4274B", || {
        rx_buf = (rx_buf + 1) % 8;
        cache.invalidate(black_box(0x4000_0000 + rx_buf * 8192), 4274)
    });
    // One pointer-chasing metadata line through the whole charge path
    // (borrow, cache, clock, attribution): 512 adjacent reference counts.
    let sim = Sim::new(MachineProfile::microbench());
    bench_function("sim_charge_meta_access", || {
        addr = addr.wrapping_add(8) & 0xFFF;
        sim.charge_meta_access(Category::SerializeZeroCopy, black_box(0x4000_0000 + addr))
    });
}

/// The frame check sequence the NIC seals and verifies once per frame, at
/// the sizes of a GET request, an MTU frame and a 4 KiB value's reply.
fn bench_fcs() {
    let frame: Vec<u8> = (0..4274u32).map(|i| i as u8).collect();
    for len in [80, 1500, 4274] {
        bench_function(&format!("frame_fcs_{len}B"), || {
            cf_nic::frame_fcs(black_box(&frame[..len]))
        });
    }
}

/// A pool of 8-slot regions with `regions` of them full in the 64 B class,
/// and the buffers that fill them (to be kept).
fn pool_with_full_regions(regions: usize) -> (PinnedPool, Vec<RcBuf>) {
    let config = PoolConfig {
        slots_per_region: 8,
        max_regions_per_class: 2048,
        ..PoolConfig::default()
    };
    let pool = PinnedPool::new(Registry::new(), config);
    let held = (0..8 * regions).map(|_| pool.alloc(64).expect("pool"));
    let held = held.collect();
    (pool, held)
}

fn bench_pool() {
    // The allocation lands in the first region with a free slot; the full
    // regions ahead of it in the class are what a PUT-heavy store leaves.
    for ahead in [0, 8, 64] {
        let (pool, _held) = pool_with_full_regions(ahead);
        bench_function(&format!("pool_alloc_drop_{ahead}_full_ahead"), || {
            pool.alloc(black_box(64))
        });
    }
    // `recover_ptr` against a registry of 1, 64 and 1,024 regions: the
    // region the previous lookup found, two regions in turn, and an address
    // no region holds.
    let heap = vec![0u8; 64];
    for regions in [1, 64, 1024] {
        let (pool, held) = pool_with_full_regions(regions);
        let registry = pool.registry();
        let (first, last) = (held[0].addr(), held[held.len() - 1].addr());
        if regions == 1 {
            bench_function("rcbuf_clone_drop", || black_box(&held[0]).clone());
        }
        bench_function(&format!("recover_same_region_of_{regions}"), || {
            registry.recover_addr(black_box(first + 8), 32)
        });
        let mut turn = false;
        bench_function(&format!("recover_alternating_of_{regions}"), || {
            turn = !turn;
            registry.recover_addr(black_box(if turn { first } else { last }), 32)
        });
        bench_function(&format!("recover_miss_of_{regions}"), || {
            registry.recover(black_box(&heap))
        });
    }
}

/// The store's index on the host clock, where the repo benchmark cannot
/// show it (its `kv.store_get_ns` replays a hot 1,024-request sample):
/// 65,536 keys with Google-distribution value sizes, looked up in random
/// order over all of them — table, values and modelled tag array together
/// far past the host L2, so every lookup misses — and over 64 of them, which
/// stay resident. `mget8` is what the engine does for an 8-key GET.
fn bench_store() {
    const KEYS: u64 = 65_536;
    let ctx = SerCtx::new(
        Sim::new(MachineProfile::microbench()),
        SerializationConfig::hybrid(),
    );
    let mut store = KvStore::new(ctx.sim.clone());
    let keys: Vec<String> = (0..KEYS).map(key_string).collect();
    for (id, key) in keys.iter().enumerate() {
        let size = GoogleSizeDist::object_for_key(id as u64, 1)[0];
        store.preload(&ctx, key.as_bytes(), &[size]).expect("pool");
    }
    for (name, span) in [("cold", KEYS), ("resident", 64)] {
        let mut rng = SplitMix64::new(0x5707E);
        let mut draw = || keys[rng.next_bounded(span) as usize].as_bytes();
        bench_function(&format!("store_get_{name}"), || {
            store.get(black_box(draw())).map(|v| v.segments[0][0])
        });
        bench_function(&format!("store_mget8_{name}"), || {
            let batch: [&[u8]; 8] = std::array::from_fn(|_| draw());
            let mut first_bytes = 0;
            store.get_each(batch.iter().copied(), |value| {
                first_bytes += value.segments[0][0] as u32;
            });
            first_bytes
        });
    }
}

fn bench_workloads() {
    let mut zipf = Zipf::new(1_000_000, 0.99, 42);
    bench_function("zipf_sample", || zipf.next());
    let mut h = Histogram::new();
    let mut v = 1u64;
    bench_function("histogram_record", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        h.record(black_box(v % 1_000_000));
    });
}

fn main() {
    bench_cfbytes();
    bench_header_write();
    bench_roundtrip();
    bench_cache_sim();
    bench_fcs();
    bench_pool();
    bench_store();
    bench_workloads();
}
