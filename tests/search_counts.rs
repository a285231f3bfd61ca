//! The same search, count for count.
//!
//! The solver is deterministic, so every node, LP, pivot and cut count it
//! reports repeats exactly from run to run. [`RECORDED`] holds those counts
//! for the evaluation's solver workloads:
//!
//! - the four apps on `paper_eval(1<<16)`, cold (`warm_lp: false`) and warm;
//! - joint-3tenant (NetCache + VLAN + LPM), cold and warm;
//! - cut-and-branch against capped plain branch-and-bound (diving off) on
//!   joint-3tenant and joint-3tenant-xl;
//! - the Figure-12 memory sweep `2^13..2^20`: warm through one shared
//!   context, cold on a fresh context per point.
//!
//! A test fails unless every count equals the table, so a wall-clock-free
//! "same search" holds on every run. A change that moves the search updates
//! the table in the same commit; the failure prints every field of the row
//! as `row key got want`, which names what moved. Beside the counts, each
//! test checks what the counts are about: cold and warm reach the same
//! objective, cut-and-branch proves optimality at the default
//! configuration's objective, and it needs at least 2x fewer nodes than the
//! plain tree, which does not close within [`PLAIN_NODE_CAP`].

use p4all_core::{Compilation, CompileCtx, CompileOptions, TenantProgram};
use p4all_elastic::apps::{conquest, lpm, netcache, precision, sketchlearn, vlan};
use p4all_ilp::SolveStatus;
use p4all_lang::Tenant;
use p4all_pisa::{presets, TargetSpec};

/// `(row, field, count)`. Field names are those of the JSON record the
/// counts were first kept in.
const RECORDED: &[(&str, &str, usize)] = &[
    ("NetCache", "cold_nodes", 0),
    ("NetCache", "warm_nodes", 0),
    ("NetCache", "cold_lp_solves", 12),
    ("NetCache", "warm_lp_solves", 7),
    ("NetCache", "cold_pivots", 1360),
    ("NetCache", "warm_pivots", 125),
    ("NetCache", "warm_path_lps", 6),
    ("NetCache", "cold_fallbacks", 0),
    ("SketchLearn", "cold_nodes", 0),
    ("SketchLearn", "warm_nodes", 0),
    ("SketchLearn", "cold_lp_solves", 12),
    ("SketchLearn", "warm_lp_solves", 3),
    ("SketchLearn", "cold_pivots", 2437),
    ("SketchLearn", "warm_pivots", 266),
    ("SketchLearn", "warm_path_lps", 2),
    ("SketchLearn", "cold_fallbacks", 0),
    ("Precision", "cold_nodes", 0),
    ("Precision", "warm_nodes", 0),
    ("Precision", "cold_lp_solves", 5),
    ("Precision", "warm_lp_solves", 10),
    ("Precision", "cold_pivots", 467),
    ("Precision", "warm_pivots", 220),
    ("Precision", "warm_path_lps", 9),
    ("Precision", "cold_fallbacks", 0),
    ("ConQuest", "cold_nodes", 1),
    ("ConQuest", "warm_nodes", 1),
    ("ConQuest", "cold_lp_solves", 1),
    ("ConQuest", "warm_lp_solves", 1),
    ("ConQuest", "cold_pivots", 63),
    ("ConQuest", "warm_pivots", 63),
    ("ConQuest", "warm_path_lps", 0),
    ("ConQuest", "cold_fallbacks", 0),
    ("joint_solve", "cold_nodes", 0),
    ("joint_solve", "warm_nodes", 0),
    ("joint_solve", "cold_pivots", 4219),
    ("joint_solve", "warm_pivots", 1377),
    ("cut_engine joint-3tenant", "plain_nodes", 5000),
    ("cut_engine joint-3tenant", "cuts_nodes", 4),
    ("cut_engine joint-3tenant", "cuts_lp_solves", 25),
    ("cut_engine joint-3tenant", "cuts_applied", 14),
    ("cut_engine joint-3tenant", "strong_branch_lps", 16),
    ("cut_engine joint-3tenant-xl", "plain_nodes", 5000),
    ("cut_engine joint-3tenant-xl", "cuts_nodes", 352),
    ("cut_engine joint-3tenant-xl", "cuts_lp_solves", 374),
    ("cut_engine joint-3tenant-xl", "cuts_applied", 18),
    ("cut_engine joint-3tenant-xl", "strong_branch_lps", 16),
    ("fig12_sweep", "cold_nodes", 0),
    ("fig12_sweep", "warm_nodes", 0),
    ("fig12_sweep", "cold_pivots", 12537),
    ("fig12_sweep", "warm_pivots", 1000),
    ("fig12_sweep", "warm_accepted_points", 8),
];

/// Fails unless `got` holds exactly the fields [`RECORDED`] lists for
/// `row`, each at its recorded count. The message lists every field.
fn check(row: &str, got: &[(&str, usize)]) {
    let want: Vec<(&str, usize)> =
        RECORDED.iter().filter(|r| r.0 == row).map(|&(_, key, n)| (key, n)).collect();
    let mut same = want.len() == got.len();
    let mut table = String::new();
    for &(key, g) in got {
        let w = want.iter().find(|w| w.0 == key).map(|w| w.1);
        let mark = if w == Some(g) { "" } else { "  <- moved" };
        same &= w == Some(g);
        let w = w.map_or_else(|| "-".to_string(), |w| w.to_string());
        table += &format!("{row} {key} {g} {w}{mark}\n");
    }
    assert!(same, "{row}: the search moved; update RECORDED if that is the change\n{table}");
}

/// The solver-work counters of one compile.
struct Sample {
    nodes: usize,
    lp_solves: usize,
    pivots: usize,
    warm_path_lps: usize,
    cold_fallbacks: usize,
    cuts_applied: usize,
    strong_branch_lps: usize,
    objective: f64,
}

impl Sample {
    fn of(c: &Compilation) -> Sample {
        let t = &c.solve_stats.telemetry;
        Sample {
            nodes: c.solve_stats.nodes,
            lp_solves: c.solve_stats.lp_solves,
            pivots: t.total_pivots(),
            warm_path_lps: t.total_warm_solves(),
            cold_fallbacks: t.total_cold_fallbacks(),
            cuts_applied: t.cuts.applied,
            strong_branch_lps: t.cuts.strong_branch_lps,
            objective: c.layout.objective,
        }
    }
}

fn options(warm: bool) -> CompileOptions {
    let mut o = CompileOptions::default();
    o.solver.warm_lp = warm;
    o
}

fn assert_same_objective(row: &str, cold: &Sample, warm: &Sample) {
    assert!(
        (cold.objective - warm.objective).abs() < 1e-6,
        "{row}: warm objective {} != cold {}",
        warm.objective,
        cold.objective
    );
}

/// NetCache at the figure binaries' size: a 3-row CMS, up to 4 KV slices.
fn netcache_src() -> String {
    let mut opts = netcache::NetCacheOptions::default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    netcache::source(&opts)
}

/// NetCache (weight 2) plus the VLAN-filter and LPM-routing co-tenants.
/// joint-3tenant is `tenants(2, 3, 4096)`, the `examples/p4all/` bounds;
/// joint-3tenant-xl is `tenants(4, 4, 8192)`, doubled elasticity on a
/// 128 Kb/stage target, which the plain no-dive search cannot close
/// within the node cap and cut-and-branch proves in a few hundred nodes.
fn tenants(cms_rows: u64, kv_slices: u64, cells: u64) -> Vec<TenantProgram> {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = cms_rows;
    nc.kvs.max_slices = Some(kv_slices);
    let vlan_opts = vlan::VlanOptions { max_cells: Some(cells), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(cells), ..Default::default() };
    vec![
        TenantProgram::new(Tenant::new("cache", 2.0).unwrap(), netcache::source(&nc)),
        TenantProgram::new(Tenant::new("filter", 1.0).unwrap(), vlan::source(&vlan_opts)),
        TenantProgram::new(Tenant::new("routes", 1.0).unwrap(), lpm::source(&lpm_opts)),
    ]
}

fn joint(tenants: &[TenantProgram], target: &TargetSpec, o: CompileOptions) -> Compilation {
    CompileCtx::new(o).compile_joint(tenants, target).expect("joint workload compiles").compilation
}

#[test]
fn the_four_apps_search_as_recorded() {
    let target = presets::paper_eval(1 << 16);
    let apps = [
        ("NetCache", netcache_src()),
        ("SketchLearn", sketchlearn::source(&Default::default())),
        ("Precision", precision::source(&Default::default())),
        ("ConQuest", conquest::source(&Default::default())),
    ];
    for (row, src) in &apps {
        let solve = |warm| {
            Sample::of(&CompileCtx::new(options(warm)).compile(src, &target).expect("app compiles"))
        };
        let (c, w) = (solve(false), solve(true));
        assert_same_objective(row, &c, &w);
        check(
            row,
            &[
                ("cold_nodes", c.nodes),
                ("warm_nodes", w.nodes),
                ("cold_lp_solves", c.lp_solves),
                ("warm_lp_solves", w.lp_solves),
                ("cold_pivots", c.pivots),
                ("warm_pivots", w.pivots),
                ("warm_path_lps", w.warm_path_lps),
                ("cold_fallbacks", w.cold_fallbacks),
            ],
        );
    }
}

#[test]
fn the_joint_solve_searches_as_recorded() {
    let (programs, target) = (tenants(2, 3, 4096), presets::paper_eval(1 << 16));
    let c = Sample::of(&joint(&programs, &target, options(false)));
    let w = Sample::of(&joint(&programs, &target, options(true)));
    assert_same_objective("joint_solve", &c, &w);
    check(
        "joint_solve",
        &[
            ("cold_nodes", c.nodes),
            ("warm_nodes", w.nodes),
            ("cold_pivots", c.pivots),
            ("warm_pivots", w.pivots),
        ],
    );
}

/// Node cap of the plain side of the cut-engine rows: without cuts the
/// joint trees do not close in any reasonable budget (the 3-tenant tree
/// passes 150k nodes unproven), so its node count is a lower bound.
const PLAIN_NODE_CAP: usize = 5_000;

/// Cut-and-branch against plain branch-and-bound, diving off so the node
/// counts compare the search trees themselves.
fn cut_engine_row(row: &str, tenants: &[TenantProgram], target: &TargetSpec) {
    let reference = joint(tenants, target, CompileOptions::default());
    assert_eq!(reference.solve_stats.status, SolveStatus::Optimal, "{row}: reference unproven");
    let side = |cuts: bool| {
        let mut o = CompileOptions::default();
        o.solver.dive_limit = 0;
        o.solver.cuts = cuts;
        if !cuts {
            o.solver.node_limit = PLAIN_NODE_CAP;
        }
        let c = joint(tenants, target, o);
        (Sample::of(&c), c.solve_stats.status)
    };
    let (plain, plain_status) = side(false);
    let (cuts, cuts_status) = side(true);
    assert_eq!(cuts_status, SolveStatus::Optimal, "{row}: cut-and-branch must prove optimality");
    assert!(
        (cuts.objective - reference.layout.objective).abs() < 1e-6,
        "{row}: cuts objective {} != reference {}",
        cuts.objective,
        reference.layout.objective
    );
    assert_ne!(plain_status, SolveStatus::Optimal, "{row}: the plain tree closed");
    assert_eq!(plain.nodes, PLAIN_NODE_CAP, "{row}: the plain tree stopped short of the cap");
    check(
        row,
        &[
            ("plain_nodes", plain.nodes),
            ("cuts_nodes", cuts.nodes),
            ("cuts_lp_solves", cuts.lp_solves),
            ("cuts_applied", cuts.cuts_applied),
            ("strong_branch_lps", cuts.strong_branch_lps),
        ],
    );
    let reduction = plain.nodes as f64 / cuts.nodes.max(1) as f64;
    assert!(reduction >= 2.0, "{row}: node reduction {reduction:.1}x below 2x");
}

#[test]
fn cut_and_branch_closes_joint_3tenant_as_recorded() {
    cut_engine_row("cut_engine joint-3tenant", &tenants(2, 3, 4096), &presets::paper_eval(1 << 16));
}

/// A test of its own: the capped plain tree dominates this file's cost.
#[test]
fn cut_and_branch_closes_joint_3tenant_xl_as_recorded() {
    cut_engine_row(
        "cut_engine joint-3tenant-xl",
        &tenants(4, 4, 8192),
        &presets::paper_eval(1 << 17),
    );
}

#[test]
fn the_fig12_sweep_searches_as_recorded() {
    let src = netcache_src();
    let mut shared = CompileCtx::new(options(true));
    let (mut cold, mut warm, mut accepted) = (Vec::new(), Vec::new(), 0);
    for shift in 13..=20u32 {
        let target = presets::paper_eval(1u64 << shift);
        let c = CompileCtx::new(options(false)).compile(&src, &target).expect("sweep point");
        cold.push(Sample::of(&c));
        let w = shared.compile(&src, &target).expect("sweep point");
        accepted += usize::from(w.solve_stats.telemetry.warm_start_accepted());
        warm.push(Sample::of(&w));
    }
    let sum = |v: &[Sample], count: fn(&Sample) -> usize| -> usize { v.iter().map(count).sum() };
    check(
        "fig12_sweep",
        &[
            ("cold_nodes", sum(&cold, |s| s.nodes)),
            ("warm_nodes", sum(&warm, |s| s.nodes)),
            ("cold_pivots", sum(&cold, |s| s.pivots)),
            ("warm_pivots", sum(&warm, |s| s.pivots)),
            ("warm_accepted_points", accepted),
        ],
    );
}
