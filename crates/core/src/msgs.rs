//! The message types cornflakes-core ships, generated at build time.
//!
//! `build.rs` runs `cf-codegen` over `schema/msgs.proto` and this module
//! includes what it emits: `GetM` (the paper's Listing 1 multi-get), `Put`,
//! `Single`, `KvPair` and `Batch`, each a plain struct with public typed
//! fields, Protobuf-flavoured accessors (`new` / `set_*` / `get_*` /
//! `init_*` / `add_*`) and a [`CornflakesObj`] implementation that decodes
//! in place. Nothing here is written by hand:
//! the schema is the definition, [`crate::dynamic::DynMessage`] interprets
//! the same schema as the independent reference, and
//! `tests/golden/core_msgs/` holds the byte layout these messages had when
//! they were hand-written.

include!(concat!(env!("OUT_DIR"), "/msgs_gen.rs"));
