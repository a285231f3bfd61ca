//! Both sides of the root dive's warm/cold selection, at compile level.
//!
//! History: `BENCH_ilp.json` once showed warm-started solving *hurting*
//! exactly one evaluation app — Precision closed at the root cold (0
//! branch-and-bound nodes) but explored ~27 nodes and ~8x the LP solves
//! with `warm_lp` on, a 0.44x "speedup": the basis-chained dive landed on
//! other co-optimal vertices than the cold dive and ended at a worse
//! incumbent, leaving the root gap open. The first fix made every dive
//! cold, which cured Precision by charging every solve a root LP per dive
//! step. The rule now (`root_dive` in `crates/ilp/src/branch.rs`): under
//! `warm_lp` the chained dive goes first and stops the moment its LP bound
//! can no longer close the root gap; unless it closed the gap, the cold
//! dive runs as before and keeps the last word on the incumbent.
//!
//! - [`warm_and_cold_agree_on_the_objective`] must stay green forever —
//!   the regression was a performance bug, never a correctness bug;
//! - [`precision_warm_solve_matches_cold_node_count`] is the cold side:
//!   warm must branch no more than cold on Precision and use at most ~2x
//!   the LP solves (an abandoned warm dive plus the cold one);
//! - [`apps_the_warm_dive_closes_start_no_cold_dive`] is the warm side;
//! - [`joint_tree_is_the_tree_the_cold_dive_seeds`] holds the joint that
//!   closed in 77 nodes when every dive was cold to a verified optimum,
//!   a cold-seeded tree of at most twice that size, and exact repetition.

use p4all_core::{verify_joint, Compilation, CompileCtx, CompileOptions, TenantProgram};
use p4all_elastic::apps::{lpm, netcache, precision, sketchlearn, vlan};
use p4all_ilp::{SolveStatus, WarmDiveEnd};
use p4all_lang::Tenant;
use p4all_pisa::presets;

fn solve(warm_lp: bool) -> Compilation {
    let mut o = CompileOptions::default();
    o.solver.warm_lp = warm_lp;
    let src = precision::source(&Default::default());
    CompileCtx::new(o)
        .compile(&src, &presets::paper_eval(1 << 16))
        .expect("precision compiles")
}

/// The invariant the fix must not disturb: warm and cold reach the same
/// optimum (and the same symbolic values' utility).
#[test]
fn warm_and_cold_agree_on_the_objective() {
    let cold = solve(false);
    let warm = solve(true);
    assert!(
        (cold.layout.objective - warm.layout.objective).abs() < 1e-6,
        "warm objective {} != cold objective {}",
        warm.layout.objective,
        cold.layout.objective
    );
}

/// The fix's acceptance bar: the warm path must branch no more than the
/// cold path on Precision, and its LP-solve overhead is bounded by the
/// cold re-dive (at most ~2x cold's root-phase LP count).
#[test]
fn precision_warm_solve_matches_cold_node_count() {
    let cold = solve(false);
    let warm = solve(true);
    assert!(
        warm.solve_stats.nodes <= cold.solve_stats.nodes,
        "warm Precision explored {} nodes vs cold {}",
        warm.solve_stats.nodes,
        cold.solve_stats.nodes
    );
    assert!(
        warm.solve_stats.lp_solves <= 2 * cold.solve_stats.lp_solves,
        "warm Precision used {} LP solves vs cold {}",
        warm.solve_stats.lp_solves,
        cold.solve_stats.lp_solves
    );
}

/// The warm side of the selection: NetCache (at the benchmarks' 3 sketch
/// rows and 4 value slices) and SketchLearn close the root gap from the
/// basis-chained dive, so no cold dive LP is started and the tree has
/// nothing left to do.
#[test]
fn apps_the_warm_dive_closes_start_no_cold_dive() {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 3;
    nc.kvs.max_slices = Some(4);
    let apps = [
        ("netcache", netcache::source(&nc)),
        ("sketchlearn", sketchlearn::source(&Default::default())),
    ];
    for (name, src) in apps {
        let c = CompileCtx::new(CompileOptions::default())
            .compile(&src, &presets::paper_eval(1 << 16))
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        assert_eq!(c.solve_stats.status, SolveStatus::Optimal, "{name}");
        assert!(c.solve_stats.nodes <= 1, "{name}: {} nodes", c.solve_stats.nodes);
        let dive = c.solve_stats.telemetry.dive.unwrap_or_else(|| panic!("{name}: no root dive"));
        assert_eq!(dive.warm.map(|(end, _)| end), Some(WarmDiveEnd::ClosedGap), "{name}");
        assert_eq!(dive.cold, None, "{name}: a cold dive LP was started");
    }
}

/// The cold side: joint-3tenant-mid (the `joint_tree` benchmark unit)
/// enters the tree with the cold dive's incumbent. It closed in 77 nodes
/// before the dive was ever warm; the count may move with the solver's
/// arithmetic, so it is held to twice that, beside the verified optimum
/// and an identical second run.
#[test]
fn joint_tree_is_the_tree_the_cold_dive_seeds() {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 4;
    nc.kvs.max_slices = Some(2);
    let vlan_opts = vlan::VlanOptions { max_cells: Some(8192), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(8192), ..Default::default() };
    let tenants = [
        TenantProgram::new(Tenant::new("cache", 2.0).unwrap(), netcache::source(&nc)),
        TenantProgram::new(Tenant::new("filter", 1.0).unwrap(), vlan::source(&vlan_opts)),
        TenantProgram::new(Tenant::new("routes", 1.0).unwrap(), lpm::source(&lpm_opts)),
    ];
    let target = presets::paper_eval(1 << 17);
    let compile = || {
        CompileCtx::new(CompileOptions::default())
            .compile_joint(&tenants, &target)
            .expect("joint-3tenant-mid compiles")
    };
    let jc = compile();
    let stats = &jc.compilation.solve_stats;
    assert_eq!(stats.status, SolveStatus::Optimal);
    assert!((jc.compilation.layout.objective - 34816.0).abs() < 1e-6);
    verify_joint(&jc.joint, &jc.compilation.layout, &target)
        .unwrap_or_else(|v| panic!("layout violates the joint: {v:?}"));
    assert!(stats.nodes <= 2 * 77, "{} nodes, recorded 77", stats.nodes);
    let dive = stats.telemetry.dive.expect("the root dive ran");
    assert!(dive.cold.is_some(), "the cold dive must seed this tree");
    assert_ne!(dive.warm.map(|(end, _)| end), Some(WarmDiveEnd::ClosedGap));

    let again = compile().compilation;
    assert_eq!(
        (again.solve_stats.nodes, again.solve_stats.lp_solves),
        (stats.nodes, stats.lp_solves),
        "second run differs"
    );
    assert_eq!(again.layout.render(), jc.compilation.layout.render(), "second run differs");
}
