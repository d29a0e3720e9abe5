//! The Cornflakes schema compiler.
//!
//! Like the paper's code-generation module (§4), this crate turns
//! Protobuf-style schema files into Rust serialization code: for every
//! `message`, it emits a struct with typed fields (`Option<u32>`,
//! [`CFBytes`](../cornflakes_core/cfbytes/enum.CFBytes.html),
//! `CFList<...>`, `PrimList<...>`), Protobuf-flavoured accessors
//! (`new` / `set_*` / `get_*` / `init_*` / `add_*`), and an implementation
//! of the `CornflakesObj` trait so the networking stack can serialize the
//! object directly (combined serialize-and-send).
//!
//! Supported schema subset (matching the paper's prototype: "base integer
//! types, strings, bytes, nested objects, and lists of strings, bytes or
//! nested objects"):
//!
//! - scalar fields: `int32`, `uint32`, `int64`, `uint64`, `float`,
//!   `double`, `bool`
//! - `string` and `bytes`
//! - nested `message` types (by name, declared in the same file)
//! - `repeated` over all of the above
//!
//! The crate is text to text and depends on nothing, the runtime
//! included: a `build.rs` that calls it compiles a parser and an emitter,
//! not `cornflakes-core`. The interpreter of the same schemas,
//! `cornflakes_core::dynamic::DynMessage`, lives with the runtime it needs
//! and is the reference this compiler's output is tested against.
//!
//! Use [`compile_schema`] for string-to-string compilation, or
//! [`generate_to_file`] from a `build.rs`:
//!
//! ```no_run
//! // build.rs
//! let out = std::path::Path::new(&std::env::var("OUT_DIR").unwrap()).join("msgs.rs");
//! cf_codegen::generate_to_file("schema/kv.proto", &out).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod emit;
pub mod parser;
pub mod printer;

use std::path::Path;

pub use ast::{Field, FieldType, Message, ScalarType, Schema};
pub use parser::CodegenError;
pub use printer::print_schema;

/// Compiles schema source text into Rust source code.
pub fn compile_schema(src: &str) -> Result<String, CodegenError> {
    let schema = parser::parse(src)?;
    schema.validate()?;
    Ok(emit::emit(&schema))
}

/// Compiles `schema_path` and writes the generated Rust to `out_path`.
/// Intended for `build.rs` use; emits a `cargo:rerun-if-changed` directive.
pub fn generate_to_file(
    schema_path: impl AsRef<Path>,
    out_path: impl AsRef<Path>,
) -> Result<(), CodegenError> {
    let schema_path = schema_path.as_ref();
    println!("cargo:rerun-if-changed={}", schema_path.display());
    let src = std::fs::read_to_string(schema_path).map_err(|e| CodegenError {
        line: 0,
        message: format!("cannot read {}: {e}", schema_path.display()),
    })?;
    let code = compile_schema(&src)?;
    std::fs::write(out_path.as_ref(), code).map_err(|e| CodegenError {
        line: 0,
        message: format!("cannot write {}: {e}", out_path.as_ref().display()),
    })?;
    Ok(())
}
