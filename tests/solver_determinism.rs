//! Determinism of the elastic compiler: compiling the same NetCache
//! program twice must produce byte-identical layouts and generated P4,
//! from the same search (node and LP counts repeat exactly).

use p4all_core::{Compilation, Compiler};
use p4all_elastic::apps::netcache::{self, NetCacheOptions};
use p4all_pisa::presets;

fn compile_netcache() -> Compilation {
    let mut opts = NetCacheOptions::default();
    opts.cms.max_rows = 2;
    opts.kvs.max_slices = Some(3);
    let src = netcache::source(&opts);
    let target = presets::paper_eval(1 << 14);
    Compiler::new(target).compile(&src).expect("netcache compiles")
}

#[test]
fn netcache_layout_is_deterministic_sequential() {
    let a = compile_netcache();
    let b = compile_netcache();
    assert_eq!(
        a.layout.symbol_values, b.layout.symbol_values,
        "symbolic values differ between runs"
    );
    assert_eq!(a.layout.render(), b.layout.render(), "rendered layouts differ between runs");
    assert_eq!(a.p4_text, b.p4_text, "generated P4 differs between runs");
    assert_eq!(a.solve_stats.nodes, b.solve_stats.nodes, "node counts differ between runs");
    assert_eq!(a.solve_stats.lp_solves, b.solve_stats.lp_solves, "LP counts differ between runs");
}
