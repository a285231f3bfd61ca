//! The benchmark's schema: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the root of
//! the repository is `e2e --benchmark-json`, so the names, units and
//! bounds the driver checks are the ones this file holds.

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// A count the program makes, or a ratio of such counts: it must
    /// repeat exactly at one seed, and `--compare` demands equality
    /// instead of applying a bound.
    pub count: bool,
    /// Reported at the median of its samples, not at their fast end.
    pub median: bool,
    /// Only some workloads measure this row. The benchmark driver wants
    /// every metric of `BENCHMARK.json` from every workload, so such a
    /// row is left out of that file and of the line the driver reads; the
    /// table and the result files still carry it.
    pub partial: bool,
}

impl MetricDef {
    /// The value a run reports for this metric from its samples: a count
    /// as it is (it repeats), anything timed at its fast decile unless the
    /// metric asks for the median.
    pub fn value(&self, series: &[f64]) -> Option<f64> {
        if self.count || self.median {
            stats::median(series)
        } else {
            stats::fast_decile(series, self.better == Better::Higher)
        }
    }

    const fn partial(self) -> MetricDef {
        MetricDef { partial: true, ..self }
    }

    const fn at_median(self) -> MetricDef {
        MetricDef { median: true, ..self }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { bound: Some(bound), ..layer(name, unit, better) }
}

const fn time(name: &'static str) -> MetricDef {
    layer(name, "s", Better::Lower)
}

const fn rate(name: &'static str) -> MetricDef {
    layer(name, "1/s", Better::Higher)
}

const fn count(name: &'static str, better: Better) -> MetricDef {
    exact(name, "count", better)
}

/// A count, or a ratio of counts, in a unit of its own.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { count: true, ..layer(name, unit, better) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, count: false, median: false, partial: false }
}

/// How long one run measures, in seconds (`run_seconds`).
///
/// The benchmark driver makes 4 + 22 runs a workload and gives them all,
/// set-ups and two builds included, 3420 s. Three workloads at 40 s, with
/// 2-4 s of set-ups a run, come to about 3100 s. A 10 s run cannot outlast
/// a host that slows for a minute at a time; this one mostly can, since
/// the fast end of its samples needs only a tenth of the run quiet.
pub const RUN_SECONDS: u32 = 40;

pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "apps_cold",
        "four paper apps, each on a fresh context: all solve at the root, so front half, encode, presolve and root LP carry the time; tree search, cuts and warm starts do no work",
    ),
    (
        "joint_tree",
        "compile_joint of three tenants closes in 77 nodes: tree search, cut rounds, strong branching and warm dual re-solves are 97 % of the time; replays the merged, table-heavy program",
    ),
    (
        "sweep_churn",
        "NetCache: Fig. 12 memory sweep through one shared context (front half cached, incumbents warm-start the next point), replay with the hottest keys cached, FIFO cache controller mutating the table",
    ),
];

/// What a user of the system sees. Every workload runs the whole path, so
/// every workload reports every one of these on its own program and trace.
///
/// The bound on everything timed is the widest the contract allows: on a
/// quiet host ten runs spread 1-3 % (native replay 2-5 %), but a vCPU of
/// the shared hosts this runs on slows by a fifth to a half for up to
/// minutes at a time, and a run that falls wholly inside such a stretch
/// reads that much worse.
pub const END_TO_END: [MetricDef; 8] = [
    // A run sets up a handful of times, the first time in a cold process:
    // the fast end of so few would be the single luckiest set-up.
    e2e("setup_s", "s", Better::Lower, 0.25).at_median(),
    e2e("compile_s", "s", Better::Lower, 0.25),
    e2e("path_s", "s", Better::Lower, 0.25),
    e2e("pkts_per_s", "1/s", Better::Higher, 0.25),
    e2e("native_pkts_per_s", "1/s", Better::Higher, 0.25),
    e2e("interp_pkts_per_s", "1/s", Better::Higher, 0.25),
    e2e("ctl_ops_per_s", "1/s", Better::Higher, 0.25),
    // A run peaks at 10-40 MB, and a megabyte of allocator slack either
    // way is 3-5 % of that.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// One layer each, measured from outside by timing calls into public
/// functions or by reading the counts those calls return.
pub const PER_LAYER: [MetricDef; 70] = [
    // Front half of the compiler.
    time("lang.parse_s"),
    time("core.elaborate_s"),
    time("core.bounds_s"),
    time("core.unroll_s"),
    time("core.depgraph_s"),
    count("core.front_cache_hits", Better::Higher),
    // Back half.
    time("core.encode_s"),
    count("core.encode_vars", Better::Lower),
    count("core.encode_rows", Better::Lower),
    time("core.greedy_s"),
    time("core.extract_s"),
    time("core.codegen_s"),
    count("core.p4_loc", Better::Lower),
    time("core.verify_s").partial(),
    time("core.merge_tenants_s").partial(),
    time("core.verify_joint_s").partial(),
    // One row per program.
    time("core.compile.netcache_s").partial(),
    time("core.compile.sketchlearn_s").partial(),
    time("core.compile.precision_s").partial(),
    time("core.compile.conquest_s").partial(),
    time("core.compile.joint3_s").partial(),
    time("core.compile.joint_xl_s").partial(),
    time("core.compile.p90_s"),
    // Solver.
    time("ilp.presolve_s"),
    time("ilp.root_lp_s"),
    time("ilp.solve_s"),
    time("ilp.tree_s"),
    count("ilp.pivots", Better::Lower),
    rate("ilp.pivots_per_s"),
    count("ilp.lp_solves", Better::Lower),
    count("ilp.refactorizations", Better::Lower),
    count("ilp.nodes", Better::Lower),
    count("ilp.cuts_applied", Better::Lower),
    count("ilp.strong_branch_lps", Better::Lower),
    layer("ilp.gap_rel", "ratio", Better::Lower),
    time("ilp.threads2_solve_s").partial(),
    count("ilp.warm_solves", Better::Higher),
    count("ilp.cold_fallbacks", Better::Lower),
    count("ilp.warm_start_accepted", Better::Higher),
    // Simulator.
    time("sim.build_s"),
    count("sim.bytecode_instrs", Better::Lower),
    rate("sim.make_packet_per_s"),
    // Ratios of counts the replay makes: exact at one seed.
    count("sim.instrs_per_pkt", Better::Lower),
    exact("sim.stage_cost_share_max", "ratio", Better::Lower),
    exact("sim.table_hit_frac", "ratio", Better::Higher).partial(),
    layer("sim.bytecode.ns_per_pkt", "ns", Better::Lower),
    layer("sim.interp.ns_per_pkt", "ns", Better::Lower),
    layer("sim.native.ns_per_pkt", "ns", Better::Lower),
    rate("sim.batched.pkts_per_s"),
    rate("sim.native_batched.pkts_per_s"),
    count("sim.batch_width_effective", Better::Higher),
    rate("sim.sharded2.pkts_per_s"),
    layer("sim.sharded2.occupancy", "ratio", Better::Higher),
    time("sim.native.prep_s"),
    time("sim.native.gen_s"),
    time("sim.native.rustc_s"),
    time("sim.native.dlopen_s"),
    count("sim.native.source_bytes", Better::Lower),
    // Control plane and per-packet API.
    rate("sim.run_packet_per_s"),
    rate("ctl.install_per_s").partial(),
    rate("ctl.remove_per_s").partial(),
    rate("ctl.reg_read_per_s"),
    rate("ctl.reg_write_per_s"),
    time("ctl.clear_register_s"),
    rate("ctl.native.install_per_s").partial(),
    rate("ctl.controller_pkts_per_s").partial(),
    // Set-up and the driver itself.
    rate("wl.zipf_trace_per_s"),
    time("elastic.source_s"),
    time("bench.setup_first_s"),
    layer("bench.trace_overhead_frac", "ratio", Better::Lower),
];

#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "crates/bench/src/bin/e2e/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["crates/bench/src/bin/e2e"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().filter(|m| !m.partial).map(metric).collect())),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn schema_stays_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {}", why.len());
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END.iter().all(|m| !m.partial), "every workload reports every one");
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("end_to_end").unwrap().as_arr()[0].as_obj().len(), 4);
        assert_eq!(doc.get("per_layer").unwrap().as_arr()[0].as_obj().len(), 3);
        assert!(doc.get("command").unwrap().as_arr().len() <= 32);
    }
}
