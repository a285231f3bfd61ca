//! Both passes of the root dive, at compile level.
//!
//! History: the solver benchmark once showed warm-started solving *hurting*
//! exactly one evaluation app — Precision closed at the root cold (0
//! branch-and-bound nodes) but explored ~27 nodes and ~8x the LP solves
//! with `warm_lp` on, a 0.44x "speedup": the basis-chained dive landed on
//! other co-optimal vertices than a cold dive and ended at a worse
//! incumbent, leaving the root gap open. The first fix made every dive
//! cold; the next kept a cold dive as the chained dive's second opinion.
//! The rule now (`root_dive` in `crates/ilp/src/branch.rs`): the warm
//! pass dives over the model and stops the moment its LP bound can no
//! longer close the root gap; unless it closed the gap, the face dive
//! runs — the same dive over the model plus one row holding the objective
//! at the root bound, so any point it finds closes the gap. `warm_lp`
//! decides only how each LP starts: chained from the root basis, or cold.
//!
//! - [`warm_and_cold_agree_on_the_objective`] must stay green forever —
//!   the regression was a performance bug, never a correctness bug;
//! - [`precision_warm_solve_matches_cold_node_count`]: warm must branch
//!   no more than cold on Precision and use at most ~2x cold's LP solves
//!   and pivots;
//! - [`apps_the_warm_dive_closes_start_no_face_dive`] is the warm side;
//! - [`joint_mid_closes_at_the_root_from_the_face_dive`] and
//!   [`joint_xl_closes_at_the_root_from_the_face_dive`] are the face side:
//!   the joints end at the root at their verified optima, and repeat
//!   exactly.

use p4all_core::{verify_joint, Compilation, CompileCtx, CompileOptions, TenantProgram};
use p4all_elastic::apps::{lpm, netcache, precision, sketchlearn, vlan};
use p4all_ilp::{FaceDiveEnd, IncumbentSource, SolveStatus, WarmDiveEnd};
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
/// cold path on Precision, and its LP-solve overhead is bounded at ~2x
/// cold's LP count. Both configurations run the same passes, so the bound
/// weighs chained LPs against cold ones; the pivot bound beside it checks
/// that the chained LPs stay cheaper in pivots.
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
    let pivots = |c: &Compilation| c.solve_stats.telemetry.total_pivots();
    assert!(
        pivots(&warm) <= 2 * pivots(&cold),
        "warm Precision used {} pivots vs cold {}",
        pivots(&warm),
        pivots(&cold)
    );
}

/// The warm side: NetCache (at the benchmarks' 3 sketch rows and 4 value
/// slices) and SketchLearn close the root gap from the basis-chained
/// dive, so no face dive LP is started and the tree has nothing left to
/// do.
#[test]
fn apps_the_warm_dive_closes_start_no_face_dive() {
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
        assert_eq!(dive.warm.0, WarmDiveEnd::ClosedGap, "{name}");
        assert_eq!(dive.face, None, "{name}: a face dive LP was started");
    }
}

/// Three tenants sharing one pipeline: NetCache (4 sketch rows,
/// `kv_slices` value slices), VLAN and LPM, at 128K SRAM words per stage.
fn joint_tenants(kv_slices: u64) -> Vec<TenantProgram> {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 4;
    nc.kvs.max_slices = Some(kv_slices);
    let vlan_opts = vlan::VlanOptions { max_cells: Some(8192), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(8192), ..Default::default() };
    vec![
        TenantProgram::new(Tenant::new("cache", 2.0).unwrap(), netcache::source(&nc)),
        TenantProgram::new(Tenant::new("filter", 1.0).unwrap(), vlan::source(&vlan_opts)),
        TenantProgram::new(Tenant::new("routes", 1.0).unwrap(), lpm::source(&lpm_opts)),
    ]
}

/// The joint's root LP bound is its optimum, and the warm pass gives up
/// short of it: the face dive finds a point on that face and the solve
/// ends at the root, at the verified optimum, identically twice.
fn assert_face_dive_closes_the_joint(name: &str, kv_slices: u64, objective: f64) {
    let tenants = joint_tenants(kv_slices);
    let target = presets::paper_eval(1 << 17);
    let compile = || {
        CompileCtx::new(CompileOptions::default())
            .compile_joint(&tenants, &target)
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"))
    };
    let jc = compile();
    let stats = &jc.compilation.solve_stats;
    assert_eq!(stats.status, SolveStatus::Optimal, "{name}");
    assert!(
        (jc.compilation.layout.objective - objective).abs() < 1e-6,
        "{name}: objective {}, recorded {objective}",
        jc.compilation.layout.objective
    );
    verify_joint(&jc.joint, &jc.compilation.layout, &target)
        .unwrap_or_else(|v| panic!("{name}: layout violates the joint: {v:?}"));
    assert_eq!(stats.nodes, 0, "{name}: the face dive closes the root gap");
    let dive = stats.telemetry.dive.expect("the root dive ran");
    assert!(
        matches!(dive.warm.0, WarmDiveEnd::GaveUp { .. }),
        "{name}: warm pass {:?}",
        dive.warm
    );
    assert_eq!(dive.face.map(|(end, _)| end), Some(FaceDiveEnd::ClosedGap), "{name}");
    let last = stats.telemetry.incumbents.last().expect("an incumbent");
    assert_eq!(last.source, IncumbentSource::FaceDive, "{name}");

    let again = compile().compilation;
    assert_eq!(
        (again.solve_stats.nodes, again.solve_stats.lp_solves),
        (stats.nodes, stats.lp_solves),
        "{name}: second run differs"
    );
    assert_eq!(again.layout.render(), jc.compilation.layout.render(), "{name}: second run differs");
}

/// joint-3tenant-mid, the `joint_tree` benchmark unit.
#[test]
fn joint_mid_closes_at_the_root_from_the_face_dive() {
    assert_face_dive_closes_the_joint("joint-3tenant-mid", 2, 34816.0);
}

/// joint-3tenant-xl, the larger joint of `tests/search_counts.rs` and `e2e`'s traced run.
#[test]
fn joint_xl_closes_at_the_root_from_the_face_dive() {
    assert_face_dive_closes_the_joint("joint-3tenant-xl", 4, 34816.0);
}
