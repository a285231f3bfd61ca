//! Tracking benchmark for the Precision warm-solve regression.
//!
//! `BENCH_ilp.json` records Precision as the one evaluation app where the
//! warm-started dual simplex *loses* to the cold path (0.44x: the warm
//! solve explores 27 branch-and-bound nodes and 41 LP solves where the
//! cold solve closes at the root with 5). This bench keeps both variants
//! measurable side by side so the eventual fix has a number to move;
//! `tests/warm_start_regression.rs` holds the red/green assertions.

use criterion::{criterion_group, criterion_main, Criterion};

use p4all_core::{CompileCtx, CompileOptions};
use p4all_elastic::apps::precision;
use p4all_pisa::presets;

fn options(warm_lp: bool) -> CompileOptions {
    let mut o = CompileOptions::default();
    o.solver.warm_lp = warm_lp;
    o
}

fn bench_precision_solves(c: &mut Criterion) {
    let src = precision::source(&Default::default());
    let target = presets::paper_eval(1 << 16);
    let mut group = c.benchmark_group("warm_precision");
    group.sample_size(10);
    for (name, warm_lp) in [("cold", false), ("warm", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut ctx = CompileCtx::new(options(warm_lp));
                let out = ctx.compile(&src, &target).expect("precision compiles");
                std::hint::black_box(out.solve_stats.nodes)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_precision_solves);
criterion_main!(benches);
