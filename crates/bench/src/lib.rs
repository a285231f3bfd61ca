//! # p4all-bench — the evaluation's figures, regenerated
//!
//! One function per figure (Figs. 4, 11, 12, 13 and §6.1's ablation), each
//! returning the [`Figure`] of its `results/<name>.tsv`. The `figs` binary
//! writes them; the `figures` test holds the committed tables and the
//! paper's claims to them. The benchmark, `e2e`, uses none of this.

use std::path::PathBuf;

use p4all_core::{evaluate_utility, loc, Compilation, CompileCtx, CompileOptions};
use p4all_elastic::apps::netcache::{self, NetCacheOptions};
use p4all_elastic::apps::{conquest, precision, sketchlearn};
use p4all_elastic::baselines;
use p4all_ilp::SolveStatus;
use p4all_pisa::{presets, TargetSpec};
use p4all_sim::{NetCacheConfig, NetCacheRuntime, Switch};
use p4all_workloads::zipf_trace;

type BenchError = Box<dyn std::error::Error>;

/// Format each expression as one table cell.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// One figure's table: the header and rows of `results/<name>.tsv`.
pub struct Figure {
    pub name: &'static str,
    /// Tab-separated column names.
    pub header: &'static str,
    pub rows: Vec<Vec<String>>,
    /// Status of every ILP solve behind the rows, in order.
    pub statuses: Vec<SolveStatus>,
}

impl Figure {
    fn new(name: &'static str, header: &'static str) -> Self {
        Figure { name, header, rows: Vec::new(), statuses: Vec::new() }
    }

    /// The committed table: `results/<name>.tsv` at the repository root.
    pub fn path(&self) -> PathBuf {
        format!("{}/../../results/{}.tsv", env!("CARGO_MANIFEST_DIR"), self.name).into()
    }

    /// The table as TSV text: the header, then one line per row.
    pub fn tsv(&self) -> String {
        let lines = std::iter::once(self.header.to_string());
        lines.chain(self.rows.iter().map(|r| r.join("\t"))).map(|l| l + "\n").collect()
    }

    /// Compile `src` for `target` on `ctx`, trace to stderr, and add `row`
    /// extended by the cells `tabulate` makes of the compilation. When
    /// either fails, the rest of the row reads `-`, the last naming why.
    fn compile_row(
        &mut self,
        ctx: &mut CompileCtx,
        src: &str,
        target: &TargetSpec,
        mut row: Vec<String>,
        tabulate: impl FnOnce(&Compilation, &mut CompileCtx) -> Result<Vec<String>, BenchError>,
    ) {
        eprintln!("# {} row {}", self.name, self.rows.len() + 1);
        let cells = ctx.compile(src, target).map_err(BenchError::from).and_then(|c| {
            eprintln!("{}", c.trace.render());
            self.statuses.push(c.solve_stats.status);
            tabulate(&c, ctx)
        });
        match cells {
            Ok(cells) => row.extend(cells),
            Err(e) => {
                eprintln!("{}: {e}", self.name);
                let width = self.header.split('\t').count();
                row.resize(width.max(row.len() + 1) - 1, "-".into());
                row.push(format!("- ({e})"));
            }
        }
        self.rows.push(row);
    }
}

/// A fresh compile context with the default options.
fn fresh() -> CompileCtx {
    CompileCtx::new(CompileOptions::default())
}

/// NetCache sized so the ILPs stay small and the interesting sizes elastic.
fn bench_netcache_options() -> NetCacheOptions {
    let mut opts = NetCacheOptions::default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    opts
}

/// The four §6 applications: name, P4All source, hand-written P4.
fn apps() -> [(&'static str, String, String); 4] {
    [
        ("NetCache", netcache::source(&bench_netcache_options()), baselines::netcache_p4()),
        ("SketchLearn", sketchlearn::source(&Default::default()), baselines::sketchlearn_p4()),
        ("Precision", precision::source(&Default::default()), baselines::precision_p4()),
        ("ConQuest", conquest::source(&Default::default()), baselines::conquest_p4()),
    ]
}

/// NetCache's split: CMS rows, columns, counters; KVS slices, columns, items.
fn netcache_split(c: &Compilation) -> Vec<String> {
    let sym = &c.layout.symbol_values;
    let (r, w, s, k) = (sym["cms_rows"], sym["cms_cols"], sym["kv_slices"], sym["kv_cols"]);
    cells![r, w, r * w, s, k, s * k]
}

/// Seconds to the millisecond, as the tables print them.
fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Figure 4 — NetCache's hit rate on a Zipf trace for each pinned CMS
/// shape, the store taking what is left; then the ILP's own choice under
/// the paper's `0.4*cms + 0.6*kv` (`*`) and a cache-leaning `0.1/0.9` (`+`).
pub fn fig4() -> Figure {
    let mut fig = Figure::new("fig4_netcache_quality", "cms_rows\tcms_cols\tkv_items\thit_rate");
    // Six stages with 32 Kb each: tight enough that every count-min row
    // displaces key-value capacity — the tradeoff Figure 4 plots.
    let mut target = presets::paper_eval(1 << 15);
    target.stages = 6;
    let trace = zipf_trace(10_000, 0.99, 200_000, 4);
    let options = |cms_weight, kv_weight| {
        let mut opts = bench_netcache_options();
        opts.kvs.max_slices = None; // let the store take every free stage
        NetCacheOptions { cms_weight, kv_weight, ..opts }
    };
    // The store's size and the hit rate the compiled program earns.
    let run = |opts: &NetCacheOptions, src: &str, c: &Compilation| -> Result<_, BenchError> {
        let names = netcache::runtime_config(opts);
        let config = NetCacheConfig {
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
            promote_threshold: 4,
            epoch_packets: 50_000,
        };
        let switch = Switch::build(&c.concrete, &p4all_lang::parse(src)?)?;
        let mut rt = NetCacheRuntime::new(switch, config)?;
        for p in &trace.packets {
            rt.process(p.key, p.value)?;
        }
        Ok(cells![netcache_split(c)[5], format!("{:.4}", rt.stats().hit_rate())])
    };

    for rows in [1u64, 2, 3] {
        for cols in [64u64, 256, 1024] {
            let mut opts = options(0.0, 1.0); // stretch only the store
            (opts.cms.min_rows, opts.cms.max_rows) = (rows, rows);
            (opts.cms.min_cols, opts.cms.max_cols) = (cols, Some(cols));
            let src = netcache::source(&opts);
            let lead = cells![rows, cols];
            fig.compile_row(&mut fresh(), &src, &target, lead, |c, _| run(&opts, &src, c));
        }
    }
    for (mark, cms_weight, kv_weight) in [("*", 0.4, 0.6), ("+", 0.1, 0.9)] {
        let opts = options(cms_weight, kv_weight);
        let src = netcache::source(&opts);
        fig.compile_row(&mut fresh(), &src, &target, Vec::new(), |c, _| {
            let mut row = netcache_split(c)[..2].to_vec();
            row.iter_mut().for_each(|cell| cell.push_str(mark));
            row.extend(run(&opts, &src, c)?);
            Ok(row)
        });
    }
    fig
}

/// Figure 11 — per application: hand-written P4 vs P4All lines of code,
/// compile time and ILP size, each compiled once, cold.
pub fn fig11() -> Figure {
    let mut fig = Figure::new(
        "fig11_applications",
        "app\tp4_loc\tp4all_loc\tgenerated_loc\tcompile_s\tsolve_s\tilp_vars\tilp_constraints\
         \tlp_pivots\twarm_lps\tcuts_applied\tpseudocost_updates\tstatus",
    );
    let target = presets::paper_eval(1 << 16);
    for (name, src, baseline) in apps() {
        let lead = cells![name, loc(&baseline), loc(&src)];
        fig.compile_row(&mut fresh(), &src, &target, lead, |c, _| {
            let (t, ilp) = (&c.solve_stats.telemetry, &c.ilp_stats);
            let mut row = cells![loc(&c.p4_text), secs(c.timings.total), secs(c.timings.solve)];
            row.extend(cells![ilp.num_vars, ilp.num_constraints, t.total_pivots()]);
            row.extend(cells![t.total_warm_solves(), t.cuts.applied, t.cuts.pseudocost_updates]);
            row.push(format!("{:?}", c.solve_stats.status));
            Ok(row)
        });
    }
    fig
}

/// Figure 12 — NetCache's structures stretch as per-stage memory grows.
/// The points share one [`CompileCtx`]: the front half is compiled once,
/// and each point's incumbent seeds the next solve (`warm_accepted`).
pub fn fig12() -> Figure {
    let mut fig = Figure::new(
        "fig12_elastic_stretch",
        "mem_bits_per_stage\tcms_rows\tcms_cols\tcms_counters\tkv_slices\tkv_cols\tkv_items\
         \tcms_bits\tkv_bits\twarm_accepted\tlp_pivots",
    );
    let src = netcache::source(&bench_netcache_options());
    let mut ctx = fresh();
    for mem in (13..=20).map(|shift| 1u64 << shift) {
        fig.compile_row(&mut ctx, &src, &presets::paper_eval(mem), cells![mem], |c, _| {
            let registers = c.layout.registers.iter();
            let bits =
                |reg| registers.clone().filter(|x| x.reg == reg).map(|x| x.bits()).sum::<u64>();
            let t = &c.solve_stats.telemetry;
            let mut row = netcache_split(c);
            row.extend(cells![bits("cms"), bits("kvs"), t.warm_start_accepted() as u8]);
            row.push(t.total_pivots().to_string());
            Ok(row)
        });
    }
    fig
}

/// Figure 13 — the utility picks the layout at 1.75 Mb per stage: the
/// paper's store-leaning `0.4*cms + 0.6*kv` against `0.6*cms + 0.4*kv`,
/// with a guaranteed store size in both (§6.2).
pub fn fig13() -> Figure {
    let mut fig = Figure::new(
        "fig13_utility_functions",
        "utility\tcms_rows\tcms_cols\tcms_counters\tkv_slices\tkv_cols\tkv_items\ttotal_bits\
         \tobjective\tsolve_s\tlp_pivots\tcuts_applied",
    );
    let target = presets::paper_eval_fig13();
    for (label, mut opts) in [
        ("0.4*cms+0.6*kv", NetCacheOptions::paper_default()),
        ("0.6*cms+0.4*kv", NetCacheOptions::cms_heavy()),
    ] {
        opts.cms.max_rows = 4;
        opts.kvs.max_slices = None;
        opts.min_kv_items = Some(8192); // the paper's 8 Mb store, scaled to 1 Mb
        opts.utility_in_bits = true; // so the weights steer the split directly
        let src = netcache::source(&opts);
        fig.compile_row(&mut fresh(), &src, &target, cells![label], |c, _| {
            let (t, layout) = (&c.solve_stats.telemetry, &c.layout);
            let mut row = netcache_split(c);
            row.extend(cells![layout.total_memory_bits(), format!("{:.1}", layout.objective)]);
            row.extend(cells![secs(c.timings.solve), t.total_pivots(), t.cuts.applied]);
            Ok(row)
        });
    }
    fig
}

/// Ablation — §6.1's "competitive with hand-optimized code", quantified:
/// the ILP and greedy first-fit place each application on one context,
/// and each utility is evaluated at its allocator's symbolic values.
pub fn ablation() -> Figure {
    let mut fig = Figure::new("ablation_ilp_vs_greedy", "app\tilp_utility\tgreedy_utility\tgap");
    let target = presets::paper_eval(1 << 16);
    for (name, src, _) in apps() {
        fig.compile_row(&mut fresh(), &src, &target, cells![name], |c, ctx| {
            let (greedy, trace) = ctx.compile_greedy(&src, &target)?;
            eprintln!("{}", trace.render());
            let utility = p4all_lang::parse(&src)?.optimize.ok_or("no utility declared")?;
            let u_ilp = evaluate_utility(&utility, &c.layout.symbol_values).unwrap_or(0.0);
            let u_greedy = evaluate_utility(&utility, &greedy.symbol_values).unwrap_or(0.0);
            let gap = if u_ilp > 0.0 { 100.0 * (u_ilp - u_greedy) / u_ilp } else { 0.0 };
            Ok(cells![format!("{u_ilp:.1}"), format!("{u_greedy:.1}"), format!("{gap:.1}%")])
        });
    }
    fig
}
