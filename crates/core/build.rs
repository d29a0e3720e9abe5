//! Generates Cornflakes serialization code for the core message schema.

fn main() {
    let out = std::path::Path::new(&std::env::var("OUT_DIR").expect("OUT_DIR set by cargo"))
        .join("msgs_gen.rs");
    cf_codegen::generate_to_file("schema/msgs.proto", &out).expect("schema compiles");
}
