//! Connection-churn sweep: accept goodput, p99 request RTT, and the
//! flow-table memory ceiling as 1k → 64k flows churn through a bounded
//! [`cf_net::TcpListener`]. Emits `churn.json` and holds it to the
//! committed `BENCH_churn.json` (`cf_bench::ratchet`; `CF_BLESS=1`
//! regenerates it).

use cf_bench::experiments::churn::{self, ChurnParams};

fn main() {
    cf_bench::ratchet::bench_main("churn", ChurnParams::full, churn::run);
}
