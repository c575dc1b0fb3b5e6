//! Detects whether the channel still exposes the incremental `DeltaField`
//! tier. Every sampler builds one today and the traced run times that
//! build; once the tier is deleted the sampler builds none, and the
//! traced run must keep compiling and report zero build time for it.

use std::path::Path;

fn main() {
    let channel = Path::new("../crates/core/src/channel.rs");
    println!("cargo:rerun-if-changed={}", channel.display());
    println!("cargo:rustc-check-cfg=cfg(palc_delta_field)");
    let source = std::fs::read_to_string(channel).unwrap_or_default();
    if source.contains("pub fn delta_field(") {
        println!("cargo:rustc-cfg=palc_delta_field");
    }
}
