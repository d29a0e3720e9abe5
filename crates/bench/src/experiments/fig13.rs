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

use std::error::Error;

use cf_kv::client::SERVER_PORT;
use cf_kv::msg_type;
use cf_net::{FrameMeta, UdpStack};
use cf_sim::cost::Category;
use cf_sim::rng::SplitMix64;
use cf_sim::MachineProfile;
use cornflakes_core::msgs::GetM;
use cornflakes_core::obj::serialize_to_vec;
use cornflakes_core::{CFBytes, CornflakesObj, SerializationConfig};

use crate::harness::{capacity, large_pool, Pair};
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
pub fn id_server_gbps(
    copy_mode: bool,
    num_values: u64,
    requests: u64,
) -> Result<f64, Box<dyn Error>> {
    let config = if copy_mode {
        SerializationConfig::always_copy()
    } else {
        SerializationConfig::raw()
    };
    let mut bench = Pair::on_wire(
        MachineProfile::microbench(),
        SERVER_PORT,
        config,
        large_pool(),
        |stack| stack,
        |stack| stack,
    );

    // The sharded value array: 2 x 512 B pinned buffers per entry,
    // ~10x the 16 MiB LLC in total.
    let pool = &bench.server.ctx().pool;
    let mut values = Vec::with_capacity(num_values as usize);
    for i in 0..num_values {
        let mut entry = [pool.alloc(512)?, pool.alloc(512)?];
        entry[0].fill(0xA0 ^ i as u8);
        entry[1].fill(0xB0 ^ i as u8);
        values.push(entry);
    }

    // Server: parse the ID, index the array, respond.
    let serve = |server: &mut UdpStack| -> Result<(), Box<dyn Error>> {
        let pkt = server.recv_packet().ok_or("the ID request never arrived")?;
        let req = GetM::deserialize(server.ctx(), &pkt.payload)?;
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
            msg_type: msg_type::GET | msg_type::RESPONSE,
            flags: 0,
            req_id: pkt.hdr.meta.req_id,
        });
        Ok(server.send_object(reply_hdr, &resp)?)
    };
    let mut rng = SplitMix64::new(0x13);
    let mut failed = None;
    let sim = bench.server_sim.clone();
    let point = capacity(&sim, requests, requests / 10, |_| {
        // Client: a minimal ID request.
        let req = GetM {
            id: Some(rng.next_bounded(num_values) as u32),
            ..GetM::new()
        };
        bench.round_trip(msg_type::GET, &serialize_to_vec(&req), |server| {
            serve(server).unwrap_or_else(|e| failed = Some(e))
        })
    });
    failed.map_or(Ok(point.gbps()), Err)
}

/// One scaling row: cores → (copy Gbps, raw sg Gbps).
pub type ScaleRow = (usize, f64, f64);

/// Runs the scaling study for the given core counts. `shard_values` is the
/// per-shard array length (2 x 512 B each).
pub fn run(cores: &[usize], shard_values: u64, requests: u64) -> Vec<ScaleRow> {
    let [copy_per_core, sg_per_core] = [true, false]
        .map(|copy_mode| id_server_gbps(copy_mode, shard_values, requests).expect("ID server"));
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
