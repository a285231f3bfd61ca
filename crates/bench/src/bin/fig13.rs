//! Figure 13 — effect of the utility function on the optimal layout at a
//! fixed target (1.75 Mb of register memory per stage).
//!
//! Two utilities: `0.4*cms + 0.6*kv` (store-leaning, the paper's default)
//! and `0.6*cms + 0.4*kv` (sketch-leaning). Following §6.2, an `assume`
//! guarantees the store a minimum size in both cases, so flipping the
//! weights changes the *split*, not the store's viability.

use p4all_bench::emit_tsv;
use p4all_core::Compiler;
use p4all_elastic::apps::netcache::{self, NetCacheOptions};
use p4all_pisa::presets;

fn configure(mut opts: NetCacheOptions) -> NetCacheOptions {
    opts.cms.max_rows = 4;
    opts.kvs.max_slices = None;
    // The paper reserves 8 Mb for the store; at 128-bit values that is
    // 65536 items. Our simulated target is smaller, so scale the guarantee
    // to 1 Mb -> 8192 items, preserving the mechanism.
    opts.min_kv_items = Some(8192);
    // Weigh memory bits, not item counts, so the 0.4/0.6 weights steer the
    // split directly (see NetCacheOptions::utility_in_bits).
    opts.utility_in_bits = true;
    opts
}

fn main() {
    let target = presets::paper_eval_fig13();
    let mut rows = Vec::new();
    for (label, opts) in [
        ("0.4*cms+0.6*kv", configure(NetCacheOptions::paper_default())),
        ("0.6*cms+0.4*kv", configure(NetCacheOptions::cms_heavy())),
    ] {
        let src = netcache::source(&opts);
        match Compiler::new(target.clone()).compile(&src) {
            Ok(c) => {
                let r = c.layout.symbol_values["cms_rows"];
                let w = c.layout.symbol_values["cms_cols"];
                let s = c.layout.symbol_values["kv_slices"];
                let k = c.layout.symbol_values["kv_cols"];
                let total = c.layout.total_memory_bits();
                let pivots = c.solve_stats.telemetry.total_pivots();
                let cuts = c.solve_stats.telemetry.cuts.applied;
                rows.push(format!(
                    "{label}\t{r}\t{w}\t{}\t{s}\t{k}\t{}\t{total}\t{:.1}\t{:.3}\t{pivots}\t{cuts}",
                    r * w,
                    s * k,
                    c.layout.objective,
                    c.timings.solve.as_secs_f64()
                ));
                eprintln!(
                    "{label}: cms {r}x{w} ({}), kv {s}x{k} ({}), total {total} bits, \
                     utility {:.1}, solve {:.3}s, {pivots} pivots",
                    r * w,
                    s * k,
                    c.layout.objective,
                    c.timings.solve.as_secs_f64()
                );
            }
            Err(e) => {
                rows.push(format!("{label}\t-\t-\t-\t-\t-\t-\t-\t- ({e})\t-\t-\t-"));
                eprintln!("{label}: {e}");
            }
        }
    }
    emit_tsv(
        "fig13_utility_functions",
        "utility\tcms_rows\tcms_cols\tcms_counters\tkv_slices\tkv_cols\tkv_items\ttotal_bits\tobjective\tsolve_s\tlp_pivots\tcuts_applied",
        &rows,
    );
}
