//! The committed figure tables are what the code computes, and they show
//! what the paper claims.
//!
//! Each test regenerates figures in memory and holds every cell of the
//! committed `results/<name>.tsv` to them, except the wall-clock columns,
//! which need only read as finite numbers ≥ 0. It then checks the
//! paper's claim on the regenerated rows. A change that moves a table
//! regenerates it with `figs` and commits the result.

use p4all_bench::{ablation, fig11, fig12, fig13, fig4, Figure};
use p4all_ilp::SolveStatus;

/// Columns that time the compile rather than report its result.
const TIMING: [&str; 2] = ["compile_s", "solve_s"];

/// Hold the committed table to `fig`, whose rows rest on `ilp_solves` ILP
/// solves that must all prove optimality; returns the regenerated rows.
fn regenerated(fig: Figure, ilp_solves: usize) -> Vec<Vec<String>> {
    assert_eq!(fig.statuses.len(), ilp_solves, "{}: ILP solves that succeeded", fig.name);
    assert!(
        fig.statuses.iter().all(|s| *s == SolveStatus::Optimal),
        "{}: every ILP solve must be Optimal, got {:?}",
        fig.name,
        fig.statuses
    );
    let committed = std::fs::read_to_string(fig.path())
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", fig.path().display()));
    let mut lines = committed.lines();
    assert_eq!(lines.next(), Some(fig.header), "{}: header", fig.name);
    let want: Vec<Vec<&str>> = lines.map(|l| l.split('\t').collect()).collect();
    let columns: Vec<&str> = fig.header.split('\t').collect();

    let mut diffs = Vec::new();
    if want.len() != fig.rows.len() {
        diffs.push(format!("{} rows: got {} want {}", fig.name, fig.rows.len(), want.len()));
    }
    for (i, (got, want)) in fig.rows.iter().zip(&want).enumerate() {
        for j in 0..got.len().max(want.len()) {
            let column = columns.get(j).copied().unwrap_or("(extra)");
            let g = got.get(j).map_or("(none)", String::as_str);
            let w = want.get(j).copied().unwrap_or("(none)");
            let is_time = |v: &str| v.parse::<f64>().is_ok_and(|t| t.is_finite() && t >= 0.0);
            let same = if TIMING.contains(&column) { is_time(g) && is_time(w) } else { g == w };
            if !same {
                diffs.push(format!("{} row {} {column} got {g:?} want {w:?}", fig.name, i + 1));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{} no longer matches what the code computes (figure row column got want):\n  {}\n\
         regenerate it with `cargo run --release -p p4all-bench --bin figs` and commit results/",
        fig.path().display(),
        diffs.join("\n  ")
    );
    fig.rows
}

/// A numeric cell, without Fig. 4's `*`/`+` marks or the ablation's `%`.
fn num(cell: &str) -> f64 {
    let v = cell.trim_end_matches(['*', '+', '%']);
    v.parse().unwrap_or_else(|_| panic!("not a number: {cell:?}"))
}

#[test]
fn fig4_the_cache_leaning_optimum_is_the_best_swept_split() {
    let rows = regenerated(fig4(), 11);
    let (swept, optima) = rows.split_at(9);
    let (star, plus) = (&optima[0], &optima[1]);
    let nums = |r: &[String]| r.iter().map(|c| num(c)).collect::<Vec<_>>();
    let best = swept.iter().map(|r| num(&r[3])).fold(f64::MIN, f64::max);
    assert!(
        num(&plus[3]) == best && swept.iter().any(|r| nums(r) == nums(plus)),
        "the 0.1/0.9 optimum {plus:?} must be the hit-rate-best swept cell ({best})"
    );
    assert!(num(&star[3]) < best, "the 0.4/0.6 optimum {star:?} must lose to {plus:?}");
}

#[test]
fn fig11_every_app_is_shorter_in_p4all() {
    for r in regenerated(fig11(), 4) {
        assert!(num(&r[2]) < num(&r[1]), "{}: P4All {} LoC vs P4 {}", r[0], r[2], r[1]);
    }
}

#[test]
fn fig12_both_structures_stretch_in_a_fixed_ratio() {
    let rows = regenerated(fig12(), 8);
    let bits: Vec<(u64, u64)> =
        rows.iter().map(|r| (r[7].parse().unwrap(), r[8].parse().unwrap())).collect();
    for pair in bits.windows(2) {
        assert!(pair[1].0 > pair[0].0 && pair[1].1 > pair[0].1, "must grow with M: {pair:?}");
    }
    let (cms0, kv0) = bits[0];
    for &(cms, kv) in &bits {
        assert_eq!(kv * cms0, kv0 * cms, "kv_bits / cms_bits must be the same at every M");
    }
    for r in &rows[1..] {
        assert_eq!(r[9], "1", "M={}: the previous point's incumbent must seed the solve", r[0]);
    }
}

#[test]
fn fig13_the_utility_picks_the_split() {
    let rows = regenerated(fig13(), 2);
    let (store, sketch) = (&rows[0], &rows[1]);
    assert_eq!((store[1].as_str(), store[4].as_str()), ("1", "9"), "Figure 7's layout");
    assert!(num(&sketch[1]) > num(&store[1]), "sketch-leaning gives more CMS rows");
    assert!(num(&sketch[6]) < num(&store[6]), "sketch-leaning gives fewer KV items");
    for r in &rows {
        assert!(num(&r[6]) >= 8192.0, "{}: the assume guarantees 8192 KV items", r[0]);
    }
}

#[test]
fn ablation_the_ilp_never_loses_to_greedy() {
    for r in regenerated(ablation(), 4) {
        assert!(num(&r[1]) >= num(&r[2]), "{}: ILP {} lost to greedy {}", r[0], r[1], r[2]);
    }
}
