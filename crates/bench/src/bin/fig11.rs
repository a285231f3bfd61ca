//! Figure 11 — the application table: lines of code (hand-written P4 vs
//! P4All), compile time, and ILP size (variables, constraints) for
//! NetCache, SketchLearn, PRECISION, and ConQuest.
//!
//! Each app is compiled once, cold, on a context of its own; the per-pass
//! split of the compile is printed for each app.

use p4all_bench::{bench_netcache_options, emit_tsv};
use p4all_core::{loc, CompileCtx, CompileOptions};
use p4all_elastic::apps::{conquest, netcache, precision, sketchlearn};
use p4all_elastic::baselines;
use p4all_pisa::presets;

fn main() {
    let target = presets::paper_eval(1 << 16);
    let apps: Vec<(&str, String, String)> = vec![
        (
            "NetCache",
            netcache::source(&bench_netcache_options()),
            baselines::netcache_p4(),
        ),
        (
            "SketchLearn",
            sketchlearn::source(&Default::default()),
            baselines::sketchlearn_p4(),
        ),
        (
            "Precision",
            precision::source(&Default::default()),
            baselines::precision_p4(),
        ),
        (
            "ConQuest",
            conquest::source(&Default::default()),
            baselines::conquest_p4(),
        ),
    ];

    let mut rows = Vec::new();
    for (name, elastic_src, baseline_src) in apps {
        let mut ctx = CompileCtx::new(CompileOptions::default());
        match ctx.compile(&elastic_src, &target) {
            Ok(c) => {
                let pivots = c.solve_stats.telemetry.total_pivots();
                let warm_lps = c.solve_stats.telemetry.total_warm_solves();
                let cuts = c.solve_stats.telemetry.cuts.applied;
                let pc_updates = c.solve_stats.telemetry.cuts.pseudocost_updates;
                rows.push(format!(
                    "{name}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{}\t{}\t{pivots}\t{warm_lps}\t{cuts}\t{pc_updates}\t{:?}",
                    loc(&baseline_src),
                    loc(&elastic_src),
                    loc(&c.p4_text),
                    c.timings.total.as_secs_f64(),
                    c.timings.solve.as_secs_f64(),
                    c.ilp_stats.num_vars,
                    c.ilp_stats.num_constraints,
                    c.solve_stats.status,
                ));
                eprintln!(
                    "{name}: P4 {} LoC, P4All {} LoC, compile {:.3}s \
                     (solve {:.3}s), ILP ({}, {}), {pivots} pivots ({warm_lps} warm LPs)",
                    loc(&baseline_src),
                    loc(&elastic_src),
                    c.timings.total.as_secs_f64(),
                    c.timings.solve.as_secs_f64(),
                    c.ilp_stats.num_vars,
                    c.ilp_stats.num_constraints,
                );
                eprintln!("{}", c.trace.render());
            }
            Err(e) => {
                rows.push(format!(
                    "{name}\t{}\t{}\t-\t-\t-\t-\t-\t-\t-\t-\t-\t{e}",
                    loc(&baseline_src),
                    loc(&elastic_src)
                ));
                eprintln!("{name}: compile failed: {e}");
            }
        }
    }
    emit_tsv(
        "fig11_applications",
        "app\tp4_loc\tp4all_loc\tgenerated_loc\tcompile_s\tsolve_s\tilp_vars\tilp_constraints\tlp_pivots\twarm_lps\tcuts_applied\tpseudocost_updates\tstatus",
        &rows,
    );
}
