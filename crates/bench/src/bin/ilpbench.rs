//! ILP solver benchmark: warm-started dual simplex vs the all-cold
//! reference configuration (`warm_lp: false`), on the four evaluation
//! apps and the Figure-12 memory sweep. Writes `BENCH_ilp.json` with per-app
//! cold/warm solve times, node counts, and pivot counts, plus the sweep's
//! cross-solve warm-start acceptance.
//!
//! ```sh
//! cargo run --release --bin ilpbench            # median-of-3, writes BENCH_ilp.json
//! cargo run --release --bin ilpbench -- --smoke # 1 rep, compares against the
//!                                               # committed BENCH_ilp.json (CI gate)
//! ```
//!
//! In `--smoke` mode the harness runs the same workload once and **fails**
//! (exit 1) unless every count it reports — nodes, LP solves and pivots of
//! every row, cuts applied, strong-branching LPs, warm-accepted sweep
//! points — equals the committed baseline's, or unless cut-and-branch
//! falls below 2x fewer nodes than plain branch-and-bound. The solver is
//! deterministic, so the gate is exact: it checks "same search" on every
//! push, where a wall-clock tripwire read 0.96–1.35x from run to run.

use std::fmt::Write as _;
use std::time::Instant;

use p4all_bench::bench_netcache_options;
use p4all_core::{CompileCtx, CompileOptions, Compilation, TenantProgram};
use p4all_ilp::SolveStatus;
use p4all_elastic::apps::{conquest, lpm, netcache, precision, sketchlearn, vlan};
use p4all_lang::Tenant;
use p4all_pisa::{presets, TargetSpec};

/// One measured solve: wall time plus the solver-work counters that
/// explain it.
#[derive(Clone, Copy, Default)]
struct Sample {
    solve_s: f64,
    nodes: usize,
    lp_solves: usize,
    pivots: usize,
    warm_lps: usize,
    fallbacks: usize,
    cuts_applied: usize,
    strong_branch_lps: usize,
    objective: f64,
}

impl Sample {
    fn of(c: &Compilation) -> Sample {
        Sample {
            solve_s: c.timings.solve.as_secs_f64(),
            nodes: c.solve_stats.nodes,
            lp_solves: c.solve_stats.lp_solves,
            pivots: c.solve_stats.telemetry.total_pivots(),
            warm_lps: c.solve_stats.telemetry.total_warm_solves(),
            fallbacks: c.solve_stats.telemetry.total_cold_fallbacks(),
            cuts_applied: c.solve_stats.telemetry.cuts.applied,
            strong_branch_lps: c.solve_stats.telemetry.cuts.strong_branch_lps,
            objective: c.layout.objective,
        }
    }

    fn add(&mut self, s: &Sample) {
        self.solve_s += s.solve_s;
        self.nodes += s.nodes;
        self.lp_solves += s.lp_solves;
        self.pivots += s.pivots;
        self.warm_lps += s.warm_lps;
        self.fallbacks += s.fallbacks;
        self.cuts_applied += s.cuts_applied;
        self.strong_branch_lps += s.strong_branch_lps;
        self.objective += s.objective;
    }
}

fn options(warm: bool) -> CompileOptions {
    let mut o = CompileOptions::default();
    o.solver.warm_lp = warm;
    o
}

/// Compile `src` on a fresh context and return the solve sample.
fn solve_once(src: &str, target: &TargetSpec, warm: bool) -> Sample {
    let mut ctx = CompileCtx::new(options(warm));
    let c = ctx.compile(src, target).expect("bench app must compile");
    Sample::of(&c)
}

/// The three-tenant joint workload (the `examples/p4all/` bounds):
/// NetCache weight 2 plus the VLAN-filter and LPM-routing co-tenants.
fn joint_tenants() -> Vec<TenantProgram> {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 2;
    nc.kvs.max_slices = Some(3);
    let vlan_opts = vlan::VlanOptions { max_cells: Some(4096), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(4096), ..Default::default() };
    vec![
        TenantProgram::new(Tenant::new("cache", 2.0).unwrap(), netcache::source(&nc)),
        TenantProgram::new(Tenant::new("filter", 1.0).unwrap(), vlan::source(&vlan_opts)),
        TenantProgram::new(Tenant::new("routes", 1.0).unwrap(), lpm::source(&lpm_opts)),
    ]
}

/// One joint compile of the three-tenant workload on a fresh context.
fn solve_joint_once(tenants: &[TenantProgram], target: &TargetSpec, warm: bool) -> Sample {
    let mut ctx = CompileCtx::new(options(warm));
    let jc = ctx.compile_joint(tenants, target).expect("joint bench workload must compile");
    Sample::of(&jc.compilation)
}

/// The scaled synthetic joint workload: the same three tenants with
/// doubled elasticity (CMS up to 4 rows, KVS up to 4 slices, 8192-cell
/// filter/routing tables) on a 128 Kb/stage target. This is the
/// "joint-model scale" row the cut engine targets: the plain no-dive
/// search cannot close it within the node cap, cut-and-branch proves
/// optimality in a few hundred nodes. (Joint models with 4+ distinct
/// tenants or the heavyweight sketch apps do not close under *any*
/// configuration in CI-scale time, so scale comes from elasticity, not
/// tenant count.)
fn scaled_joint_workload() -> Vec<TenantProgram> {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 4;
    nc.kvs.max_slices = Some(4);
    let vlan_opts = vlan::VlanOptions { max_cells: Some(8192), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(8192), ..Default::default() };
    vec![
        TenantProgram::new(Tenant::new("cache", 2.0).unwrap(), netcache::source(&nc)),
        TenantProgram::new(Tenant::new("filter", 1.0).unwrap(), vlan::source(&vlan_opts)),
        TenantProgram::new(Tenant::new("routes", 1.0).unwrap(), lpm::source(&lpm_opts)),
    ]
}

/// Node cap for the plain (cuts-off) baseline of the cut-engine rows.
/// Without cuts the joint trees do not close in any reasonable budget
/// (the 3-tenant tree passes 150k nodes without proving optimality), so
/// the baseline runs to this cap and its node count is a lower bound.
const PLAIN_NODE_CAP: usize = 5_000;

/// Options for the cut-engine comparison: diving is disabled so the node
/// counts compare the actual search trees. The plain side is capped (see
/// [`PLAIN_NODE_CAP`]); the cuts side keeps the default node budget and
/// is required to prove optimality.
fn cuts_options(on: bool) -> CompileOptions {
    let mut o = CompileOptions::default();
    o.solver.dive_limit = 0;
    o.solver.cuts = on;
    if !on {
        o.solver.node_limit = PLAIN_NODE_CAP;
    }
    o
}

/// One joint compile on a fresh context with the cut engine on or off.
/// Returns the sample plus whether the solve proved optimality.
fn solve_joint_cuts(
    tenants: &[TenantProgram],
    target: &TargetSpec,
    on: bool,
) -> (Sample, bool) {
    let mut ctx = CompileCtx::new(cuts_options(on));
    let jc = ctx.compile_joint(tenants, target).expect("joint cuts workload must compile");
    let optimal = jc.compilation.solve_stats.status == SolveStatus::Optimal;
    (Sample::of(&jc.compilation), optimal)
}

/// The reference objective for a joint workload: the default
/// configuration (diving on), which proves optimality on these models.
fn joint_reference_objective(tenants: &[TenantProgram], target: &TargetSpec) -> f64 {
    let mut ctx = CompileCtx::new(CompileOptions::default());
    let jc = ctx.compile_joint(tenants, target).expect("joint reference must compile");
    assert_eq!(
        jc.compilation.solve_stats.status,
        SolveStatus::Optimal,
        "joint reference solve must prove optimality"
    );
    jc.compilation.layout.objective
}

/// One full pass over the Figure-12 memory sweep (8 points). Warm mode
/// shares one context so each point's incumbent seeds the next solve;
/// cold mode uses a fresh context per point (greedy seed only, every LP
/// solved from scratch).
fn sweep_once(src: &str, warm: bool) -> (Sample, usize) {
    let mut totals = Sample::default();
    let mut warm_accepted = 0usize;
    let mut shared = CompileCtx::new(options(true));
    for shift in [13u32, 14, 15, 16, 17, 18, 19, 20] {
        let target = presets::paper_eval(1u64 << shift);
        let c = if warm {
            shared.compile(src, &target)
        } else {
            CompileCtx::new(options(false)).compile(src, &target)
        }
        .expect("sweep point must compile");
        if c.solve_stats.telemetry.warm_start_accepted() {
            warm_accepted += 1;
        }
        totals.add(&Sample::of(&c));
    }
    (totals, warm_accepted)
}

/// Median by solve time (so one scheduler hiccup doesn't skew a row).
fn median(mut v: Vec<(Sample, usize)>) -> (Sample, usize) {
    v.sort_by(|a, b| a.0.solve_s.total_cmp(&b.0.solve_s));
    let mid = v.len() / 2;
    v.swap_remove(mid)
}

/// Whether a `BENCH_ilp.json` field is a count the smoke gate holds equal.
fn is_count(key: &str) -> bool {
    key.ends_with("_nodes")
        || key.ends_with("_lp_solves")
        || key.ends_with("_pivots")
        || matches!(key, "cuts_applied" | "strong_branch_lps" | "warm_accepted_points")
}

/// Every count field of the hand-rolled JSON, in document order, as
/// `(row, key, value)`: `row` is the enclosing object's `app`/`workload`
/// name or top-level key. Rows are written in a fixed order, so two files
/// of the same workload list the same fields.
fn count_fields(json: &str) -> Vec<(String, String, String)> {
    let mut fields = Vec::new();
    let mut row = String::new();
    let mut rest = json;
    while let Some(open) = rest.find('"') {
        let Some(len) = rest[open + 1..].find('"') else { break };
        let key = &rest[open + 1..open + 1 + len];
        rest = &rest[open + len + 2..];
        let Some(value) = rest.strip_prefix(':').map(str::trim_start) else { continue };
        let end = value.find([',', '}', '\n']).unwrap_or(value.len());
        let value = value[..end].trim();
        if value.starts_with('{') || value.starts_with('[') {
            row = key.to_string();
        } else if matches!(key, "app" | "workload") {
            row = value.trim_matches('"').to_string();
        } else if is_count(key) {
            fields.push((row.clone(), key.to_string(), value.to_string()));
        }
    }
    fields
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    let target = presets::paper_eval(1 << 16);
    let t_all = Instant::now();

    let netcache_src = netcache::source(&bench_netcache_options());
    let apps: Vec<(&str, String)> = vec![
        ("NetCache", netcache_src.clone()),
        ("SketchLearn", sketchlearn::source(&Default::default())),
        ("Precision", precision::source(&Default::default())),
        ("ConQuest", conquest::source(&Default::default())),
    ];
    println!(
        "ilpbench: 1-thread cold vs warm-started solves, {reps} rep(s){}",
        if smoke { " [smoke]" } else { "" }
    );

    // Interleave cold/warm reps (like simbench) so a noisy window on a
    // shared box hits both variants and the ratio stays honest.
    let mut rows: Vec<(String, Sample, Sample)> = Vec::new();
    for (name, src) in &apps {
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        solve_once(src, &target, false); // untimed warm-up (page cache, allocator)
        for _ in 0..reps {
            cold.push((solve_once(src, &target, false), 0));
            warm.push((solve_once(src, &target, true), 0));
        }
        let (c, _) = median(cold);
        let (w, _) = median(warm);
        assert!(
            (c.objective - w.objective).abs() < 1e-6,
            "{name}: warm objective {} != cold {}",
            w.objective,
            c.objective
        );
        println!(
            "  {name:<12} cold {:>8.3}s ({} nodes, {} pivots)   warm {:>8.3}s ({} nodes, {} pivots, {} warm LPs, {} fallbacks)  {:.2}x",
            c.solve_s, c.nodes, c.pivots, w.solve_s, w.nodes, w.pivots, w.warm_lps, w.fallbacks,
            c.solve_s / w.solve_s.max(1e-9)
        );
        rows.push((name.to_string(), c, w));
    }

    // The multi-tenant joint solve: one ILP whose capacity rows are
    // shared by all three tenants (the CI gate for the joint path).
    let tenants = joint_tenants();
    let mut joint_cold = Vec::new();
    let mut joint_warm = Vec::new();
    solve_joint_once(&tenants, &target, false); // untimed warm-up
    for _ in 0..reps {
        joint_cold.push((solve_joint_once(&tenants, &target, false), 0));
        joint_warm.push((solve_joint_once(&tenants, &target, true), 0));
    }
    let (jc, _) = median(joint_cold);
    let (jw, _) = median(joint_warm);
    assert!(
        (jc.objective - jw.objective).abs() < 1e-6,
        "joint: warm objective {} != cold {}",
        jw.objective,
        jc.objective
    );
    println!(
        "  {:<12} cold {:>8.3}s ({} nodes, {} pivots)   warm {:>8.3}s ({} nodes, {} pivots, {} warm LPs, {} fallbacks)  {:.2}x",
        "joint-3tenant", jc.solve_s, jc.nodes, jc.pivots, jw.solve_s, jw.nodes, jw.pivots,
        jw.warm_lps, jw.fallbacks, jc.solve_s / jw.solve_s.max(1e-9)
    );

    // Cut-and-branch vs plain branch-and-bound on the joint workloads:
    // node counts with diving disabled, so the comparison is between the
    // search trees themselves. Node counts repeat exactly, so each
    // variant runs once. The cuts side must prove optimality and match
    // the default configuration's objective; the plain side runs to
    // PLAIN_NODE_CAP (it does not close these trees), so its node count
    // is a lower bound.
    let scaled = scaled_joint_workload();
    let scaled_target = presets::paper_eval(1 << 17);
    let mut cuts_rows: Vec<(&str, Sample, bool, Sample)> = Vec::new();
    for (label, tenants, tgt) in
        [("joint-3tenant", &tenants, &target), ("joint-3tenant-xl", &scaled, &scaled_target)]
    {
        let reference = joint_reference_objective(tenants, tgt);
        let (o, o_opt) = solve_joint_cuts(tenants, tgt, false);
        let (c, c_opt) = solve_joint_cuts(tenants, tgt, true);
        assert!(c_opt, "{label}: cut-and-branch must prove optimality");
        assert!(
            (c.objective - reference).abs() < 1e-6,
            "{label}: cuts objective {} != reference {}",
            c.objective,
            reference
        );
        println!(
            "  {label:<13} plain {:>6}{} nodes ({} LPs)   cuts {:>5} nodes ({} LPs, {} cuts, {} strong-branch LPs)  {:.0}x fewer nodes",
            o.nodes,
            if o_opt { "" } else { "+" },
            o.lp_solves,
            c.nodes,
            c.lp_solves,
            c.cuts_applied,
            c.strong_branch_lps,
            o.nodes as f64 / c.nodes.max(1) as f64
        );
        cuts_rows.push((label, o, o_opt, c));
    }

    let mut sweep_cold = Vec::new();
    let mut sweep_warm = Vec::new();
    for _ in 0..reps {
        sweep_cold.push(sweep_once(&netcache_src, false));
        sweep_warm.push(sweep_once(&netcache_src, true));
    }
    let (sc, _) = median(sweep_cold);
    let (sw, sw_accepted) = median(sweep_warm);
    println!(
        "  {:<12} cold {:>8.3}s ({} nodes, {} pivots)   warm {:>8.3}s ({} nodes, {} pivots, {}/8 points warm-accepted)  {:.2}x",
        "fig12-sweep",
        sc.solve_s,
        sc.nodes,
        sc.pivots,
        sw.solve_s,
        sw.nodes,
        sw.pivots,
        sw_accepted,
        sc.solve_s / sw.solve_s.max(1e-9)
    );

    // The acceptance metric: geometric-mean speedup over NetCache and the
    // sweep (the two workloads the warm path is built for), plus the
    // all-rows geomean for context.
    let speedup = |c: &Sample, w: &Sample| c.solve_s / w.solve_s.max(1e-9);
    let nc = &rows[0];
    let geo_accept = (speedup(&nc.1, &nc.2) * speedup(&sc, &sw)).sqrt();
    let mut log_sum = speedup(&sc, &sw).ln();
    for (_, c, w) in &rows {
        log_sum += speedup(c, w).ln();
    }
    let geo_all = (log_sum / (rows.len() + 1) as f64).exp();
    println!(
        "  geomean speedup: {geo_accept:.2}x (NetCache + sweep), {geo_all:.2}x (all rows)"
    );

    let total_warm_s: f64 =
        rows.iter().map(|(_, _, w)| w.solve_s).sum::<f64>() + jw.solve_s + sw.solve_s;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"apps\": [\n");
    for (i, (name, c, w)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"app\": \"{name}\", \"cold_solve_s\": {:.4}, \"warm_solve_s\": {:.4}, \
             \"speedup\": {:.2}, \"cold_nodes\": {}, \"warm_nodes\": {}, \
             \"cold_lp_solves\": {}, \"warm_lp_solves\": {}, \
             \"cold_pivots\": {}, \"warm_pivots\": {}, \
             \"warm_path_lps\": {}, \"cold_fallbacks\": {}}}",
            c.solve_s,
            w.solve_s,
            speedup(c, w),
            c.nodes,
            w.nodes,
            c.lp_solves,
            w.lp_solves,
            c.pivots,
            w.pivots,
            w.warm_lps,
            w.fallbacks
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"joint_solve\": {{\"workload\": \"NetCache+VLAN+LPM\", \"tenants\": 3, \
         \"cold_solve_s\": {:.4}, \"warm_solve_s\": {:.4}, \"speedup\": {:.2}, \
         \"cold_nodes\": {}, \"warm_nodes\": {}, \"cold_pivots\": {}, \"warm_pivots\": {}}},",
        jc.solve_s,
        jw.solve_s,
        speedup(&jc, &jw),
        jc.nodes,
        jw.nodes,
        jc.pivots,
        jw.pivots
    );
    json.push_str("  \"cut_engine\": [\n");
    for (i, (label, o, o_opt, c)) in cuts_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{label}\", \"plain_nodes\": {}, \"plain_optimal\": {o_opt}, \
             \"cuts_nodes\": {}, \"cuts_lp_solves\": {}, \"cuts_applied\": {}, \
             \"strong_branch_lps\": {}, \"node_reduction\": {:.1}, \"objective\": {:.4}}}",
            o.nodes,
            c.nodes,
            c.lp_solves,
            c.cuts_applied,
            c.strong_branch_lps,
            o.nodes as f64 / c.nodes.max(1) as f64,
            c.objective
        );
        json.push_str(if i + 1 < cuts_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"fig12_sweep\": {{\"points\": 8, \"cold_solve_s\": {:.4}, \"warm_solve_s\": {:.4}, \
         \"speedup\": {:.2}, \"cold_nodes\": {}, \"warm_nodes\": {}, \
         \"cold_pivots\": {}, \"warm_pivots\": {}, \"warm_accepted_points\": {sw_accepted}}},",
        sc.solve_s,
        sw.solve_s,
        speedup(&sc, &sw),
        sc.nodes,
        sw.nodes,
        sc.pivots,
        sw.pivots
    );
    let _ = writeln!(json, "  \"geomean_speedup_netcache_sweep\": {geo_accept:.2},");
    let _ = writeln!(json, "  \"geomean_speedup_all\": {geo_all:.2},");
    let _ = writeln!(json, "  \"total_warm_solve_s\": {total_warm_s:.4}");
    json.push_str("}\n");

    if smoke {
        // CI gate: the search is deterministic, so every count must equal
        // the committed full-run baseline's, plus the cut engine's
        // acceptance bar (>= 2x fewer nodes than the capped plain tree).
        let baseline = std::fs::read_to_string("BENCH_ilp.json").unwrap_or_else(|e| {
            eprintln!("FAIL: no committed BENCH_ilp.json to compare against: {e}");
            std::process::exit(1);
        });
        let (want, got) = (count_fields(&baseline), count_fields(&json));
        let mut failed = want.len() != got.len();
        if failed {
            eprintln!("FAIL: {} count fields vs {} in the baseline", got.len(), want.len());
        }
        for (w, g) in want.iter().zip(&got).filter(|(w, g)| w != g) {
            eprintln!("FAIL: {} {} = {} (baseline {} {} = {})", g.0, g.1, g.2, w.0, w.1, w.2);
            failed = true;
        }
        println!("smoke: {} count fields checked against the committed BENCH_ilp.json", got.len());
        for (label, o, _, c) in &cuts_rows {
            let reduction = o.nodes as f64 / c.nodes.max(1) as f64;
            println!(
                "smoke: {label} cut-and-branch {} nodes vs plain {} ({reduction:.1}x)",
                c.nodes, o.nodes
            );
            if reduction < 2.0 {
                eprintln!("FAIL: {label} node reduction {reduction:.1}x below the 2x acceptance bar");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    } else {
        std::fs::write("BENCH_ilp.json", &json).expect("write BENCH_ilp.json");
        println!("\nwrote BENCH_ilp.json ({:.1}s total)", t_all.elapsed().as_secs_f64());
    }
}
