//! Figure 13: multicore scaling (§6.6).
//!
//! The §2.4 microbenchmark: requests carry *IDs* that index an array of
//! values (two non-contiguous 512-byte buffers each) whose total size is
//! ~10× the LLC, sharded across cores. Copy vs *raw* scatter-gather.
//! Paper result: scatter-gather starts at 16.8 Gbps on one core and copy
//! at 10.5 Gbps (~33 % lower); both scale linearly with core count until
//! they plateau at about 73.5 Gbps of aggregate NIC capacity.
//!
//! Per-core behaviour is measured on an independent shard (one single-core
//! simulation per shard, as the paper shards its memory per core); the
//! aggregate is the sharded sum capped by the NIC.

use cf_net::{FrameMeta, UdpStack};
use cf_nic::link;
use cf_sim::cost::Category;
use cf_sim::rng::SplitMix64;
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::msgs::GetM;
use cornflakes_core::{CFBytes, CornflakesObj, SerializationConfig};

use crate::harness::{capacity, large_pool};
use crate::tables::{f1, print_expectation, print_table};

/// Aggregate NIC ceiling in Gbps (payload goodput the paper's CX-6
/// sustains at this packet size).
pub const NIC_CAP_GBPS: f64 = 73.5;

/// Synthetic address of the ID→buffer pointer array (metadata lines).
const ARRAY_BASE: u64 = 0x7800_0000_0000;

/// Per-core capacity (Gbps) of the ID-indexed microbenchmark server.
///
/// `copy_mode` selects all-copy serialization; otherwise raw scatter-gather
/// (no safety bookkeeping, as the paper's §2.4/§6.6 microbenchmark).
pub fn id_server_gbps(copy_mode: bool, num_values: u64, requests: u64) -> f64 {
    let server_sim = Sim::new(MachineProfile::microbench());
    let (cp, sp) = link();
    let mut client = UdpStack::new(
        Sim::new(MachineProfile::cloudlab_c6525()),
        cp,
        4000,
        SerializationConfig::hybrid(),
    );
    let config = if copy_mode {
        SerializationConfig::always_copy()
    } else {
        SerializationConfig::raw()
    };
    let mut server = UdpStack::with_pool_config(server_sim.clone(), sp, 9000, config, large_pool());

    // The sharded value array: 2 x 512 B pinned buffers per entry,
    // ~10x the 16 MiB LLC in total.
    let values: Vec<[cf_mem::RcBuf; 2]> = (0..num_values)
        .map(|i| {
            let make = |tag: u8| {
                let mut b = server.ctx().pool.alloc(512).expect("pool");
                b.fill(tag ^ i as u8);
                b
            };
            [make(0xA0), make(0xB0)]
        })
        .collect();

    let mut rng = SplitMix64::new(0x13);
    let point = capacity(&server_sim, requests, requests / 10, |seq| {
        // Client: a minimal ID request.
        let req = GetM {
            id: Some(rng.next_bounded(num_values) as u32),
            ..GetM::new()
        };
        let hdr = client.header_to(
            9000,
            FrameMeta {
                msg_type: 1,
                flags: 0,
                req_id: seq as u32,
            },
        );
        client.send_object(hdr, &req).expect("request");

        // Server: parse the ID, index the array, respond.
        let pkt = server.recv_packet().expect("request arrives");
        let req = GetM::deserialize(server.ctx(), &pkt.payload).expect("id request");
        let id = req.id.unwrap_or(0) as u64 % num_values;
        // Array indexing: one metadata line for the entry.
        server
            .sim()
            .charge_meta_access(Category::AppGet, ARRAY_BASE + id * 64);
        let mut resp = GetM::new();
        resp.id = req.id;
        {
            let ctx = server.ctx();
            for buf in &values[id as usize] {
                let field = if copy_mode {
                    CFBytes::new(ctx, buf.as_slice())
                } else {
                    // Raw scatter-gather: take the reference directly.
                    CFBytes::from_rcbuf(buf.clone())
                };
                resp.vals.append(field);
            }
        }
        let reply_hdr = pkt.hdr.reply(FrameMeta {
            msg_type: 0x81,
            flags: 0,
            req_id: pkt.hdr.meta.req_id,
        });
        server.send_object(reply_hdr, &resp).expect("reply");

        client
            .recv_packet()
            .map(|p| p.payload.len() as u64)
            .unwrap_or(0)
    });
    point.gbps()
}

/// One scaling row: cores → (copy Gbps, raw sg Gbps).
pub type ScaleRow = (usize, f64, f64);

/// Runs the scaling study for the given core counts. `shard_values` is the
/// per-shard array length (2 x 512 B each).
pub fn run(cores: &[usize], shard_values: u64, requests: u64) -> Vec<ScaleRow> {
    let copy_per_core = id_server_gbps(true, shard_values, requests);
    let sg_per_core = id_server_gbps(false, shard_values, requests);
    let rows: Vec<ScaleRow> = cores
        .iter()
        .map(|&n| {
            (
                n,
                (copy_per_core * n as f64).min(NIC_CAP_GBPS),
                (sg_per_core * n as f64).min(NIC_CAP_GBPS),
            )
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, copy, sg)| vec![n.to_string(), f1(*copy), f1(*sg)])
        .collect();
    print_table(
        "Figure 13: scaling of the 2 x 512 B microbenchmark (Gbps)",
        &["Cores", "Copy", "Raw scatter-gather"],
        &table,
    );
    print_expectation(
        "per-core throughput",
        "SG 16.8 Gbps/core, copy 10.5 Gbps/core (~33% lower); plateau ~73.5 Gbps",
        &format!("SG {sg_per_core:.1} Gbps/core, copy {copy_per_core:.1} Gbps/core"),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_shape_matches_paper() {
        // 160k values x 1 KiB = 160 MB per shard: ~10x the scaled LLC.
        let rows = run(&[1, 2, 4, 8], 160_000, 800);
        let (_, copy1, sg1) = rows[0];
        // Per-core: SG clearly ahead; copy 20-45 % lower (paper ~33 %).
        let ratio = copy1 / sg1;
        assert!(
            (0.5..0.85).contains(&ratio),
            "copy/sg per-core ratio {ratio:.2} (paper ~0.63)"
        );
        // Linear region then plateau.
        let (_, _, sg2) = rows[1];
        let (_, _, sg8) = rows[3];
        assert!((sg2 / sg1 - 2.0).abs() < 0.05, "2-core SG should double");
        assert!(sg8 <= NIC_CAP_GBPS + 1e-9, "8-core SG capped at the NIC");
        assert!(sg8 > sg1 * 3.0, "8 cores well above a single core");
    }
}
