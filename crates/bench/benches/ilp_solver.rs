//! Criterion bench: MILP solver scaling on two instance families —
//! knapsacks (pure binaries) and stage-placement chains (the compiler's
//! actual structure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use p4all_ilp::{solve, LinExpr, Model, Sense, SolveStatus};

fn knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let mut cap = LinExpr::zero();
    let mut obj = LinExpr::zero();
    for i in 0..n {
        let x = m.binary(format!("x{i}"));
        cap += LinExpr::term(x, ((i * 7 + 3) % 11 + 1) as f64);
        obj += LinExpr::term(x, ((i * 5 + 2) % 13 + 1) as f64);
    }
    m.le("cap", cap, (3 * n) as f64);
    m.set_objective(obj, Sense::Maximize);
    m
}

/// A placement chain: `n` actions, each strictly after the previous, over
/// `stages` stages, maximizing placements (mirrors the compiler's
/// precedence structure).
fn placement_chain(n: usize, stages: usize) -> Model {
    let mut m = Model::new();
    let xs: Vec<Vec<_>> = (0..n)
        .map(|a| (0..stages).map(|s| m.binary(format!("x{a}_{s}"))).collect())
        .collect();
    let mut obj = LinExpr::zero();
    for a in 0..n {
        let placed = LinExpr::sum(xs[a].iter().map(|&v| LinExpr::from(v)));
        m.le(format!("once{a}"), placed.clone(), 1.0);
        obj += placed;
        if a > 0 {
            for s in 0..stages {
                let mut earlier = LinExpr::zero();
                for &prev in &xs[a - 1][..s] {
                    earlier += LinExpr::from(prev);
                }
                m.le(format!("prec{a}_{s}"), LinExpr::from(xs[a][s]) - earlier, 0.0);
            }
        }
    }
    m.set_objective(obj, Sense::Maximize);
    m
}

fn bench_knapsacks(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_knapsack");
    group.sample_size(10);
    for n in [10usize, 20, 30] {
        let m = knapsack(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| {
                let out = solve(m).expect("solve");
                assert_eq!(out.status, SolveStatus::Optimal);
                std::hint::black_box(out.nodes)
            })
        });
    }
    group.finish();
}

fn bench_placements(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_placement_chain");
    group.sample_size(10);
    for (n, stages) in [(6usize, 8usize), (10, 12), (12, 16)] {
        let m = placement_chain(n, stages);
        group.bench_with_input(
            BenchmarkId::new("chain", format!("{n}x{stages}")),
            &m,
            |b, m| {
                b.iter(|| {
                    let out = solve(m).expect("solve");
                    assert_eq!(out.status, SolveStatus::Optimal);
                    std::hint::black_box(out.lp_solves)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_knapsacks, bench_placements);
criterion_main!(benches);
