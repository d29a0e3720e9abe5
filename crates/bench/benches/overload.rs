//! Goodput under overload: offered load 0.5×–4× of measured capacity on
//! the sharded multi-queue server, with overload control on and off.
//! Emits `overload.json` and holds it to the committed
//! `BENCH_overload.json`.

use cf_bench::experiments::overload::{self, OverloadParams};

fn main() {
    cf_bench::ratchet::bench_main(
        "overload",
        OverloadParams::quick,
        OverloadParams::full,
        overload::run,
    );
}
