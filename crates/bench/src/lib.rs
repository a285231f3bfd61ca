//! # p4all-bench — shared harness for the evaluation reproduction
//!
//! Helpers used by the figure binaries (`fig4`, `fig11`, `fig12`, `fig13`,
//! `ablation`): app compilation shortcuts, the NetCache simulation loop, and
//! TSV result emission. The benchmark, `e2e`, calls none of them.

use std::io::Write as _;
use std::path::Path;

use p4all_core::{Compilation, Compiler};
use p4all_elastic::apps::netcache::{self, NetCacheOptions};
use p4all_pisa::TargetSpec;
use p4all_sim::{NetCacheConfig, NetCacheRuntime, Switch};
use p4all_workloads::Trace;

/// Convert the app's naming bundle into the simulator's runtime config.
pub fn netcache_sim_config(
    opts: &NetCacheOptions,
    promote_threshold: u64,
    epoch_packets: usize,
) -> NetCacheConfig {
    let names = netcache::runtime_config(opts);
    NetCacheConfig {
        cache_table: names.cache_table,
        hit_action: names.hit_action,
        hit_flag_meta: names.hit_flag_meta,
        min_meta: names.min_meta,
        slice_meta: names.slice_meta,
        idx_meta: names.idx_meta,
        value_meta: names.value_meta,
        kv_register: names.kv_register,
        cms_register: names.cms_register,
        key_header: names.key_header,
        promote_threshold,
        epoch_packets,
    }
}

/// Harness error: a typed compile failure or a simulator-setup message.
pub type BenchError = Box<dyn std::error::Error>;

/// Compile NetCache and wrap it in its runtime.
pub fn build_netcache(
    opts: &NetCacheOptions,
    target: &TargetSpec,
    promote_threshold: u64,
    epoch_packets: usize,
) -> Result<(NetCacheRuntime, Compilation), BenchError> {
    let src = netcache::source(opts);
    let c = Compiler::new(target.clone()).compile(&src)?;
    let program = p4all_lang::parse(&src)?;
    let switch = Switch::build(&c.concrete, &program)
        .map_err(|e| format!("simulator build failed: {e}"))?;
    let rt =
        NetCacheRuntime::new(switch, netcache_sim_config(opts, promote_threshold, epoch_packets))
            .map_err(|e| format!("runtime init failed: {e}"))?;
    Ok((rt, c))
}

/// Run a trace through a NetCache runtime; returns the final hit rate.
pub fn run_netcache(rt: &mut NetCacheRuntime, trace: &Trace) -> f64 {
    for p in &trace.packets {
        rt.process(p.key, p.value).expect("simulation must not fault");
    }
    rt.stats().hit_rate()
}

/// Write TSV rows to `results/<name>.tsv` (best effort) and echo to stdout.
pub fn emit_tsv(name: &str, header: &str, rows: &[String]) {
    println!("# {name}");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.tsv"))) {
            let _ = writeln!(f, "{header}");
            for r in rows {
                let _ = writeln!(f, "{r}");
            }
        }
    }
}

/// NetCache options sized so bench-harness ILPs stay small while leaving
/// the interesting dimensions elastic.
pub fn bench_netcache_options() -> NetCacheOptions {
    let mut opts = NetCacheOptions::default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    opts
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4all_pisa::presets;
    use p4all_workloads::zipf_trace;

    #[test]
    fn netcache_harness_end_to_end() {
        let opts = bench_netcache_options();
        let target = presets::paper_eval(1 << 15);
        let (mut rt, c) = build_netcache(&opts, &target, 4, 0).unwrap();
        assert!(c.layout.symbol_values["kv_slices"] >= 1);
        let trace = zipf_trace(2_000, 1.1, 20_000, 42);
        let hit_rate = run_netcache(&mut rt, &trace);
        assert!(hit_rate > 0.1, "Zipf trace should produce hits, got {hit_rate}");
    }
}
