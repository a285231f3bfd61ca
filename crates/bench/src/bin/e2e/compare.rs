//! `--compare A.json B.json`: B against A, workload by workload and
//! metric by metric. An end-to-end metric is judged by its bound over all
//! of a workload's runs, a count by equality seed by seed (the trace, and
//! so every count taken from it, follows the seed), `failed_frac` by any
//! rise; a per-layer time has no bound and is shown for information. A
//! difference that the runs' own spread could explain is `unresolved`,
//! not `ok` and not `regressed`.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// A per-layer measurement without a bound.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// One side's values of one metric on one workload: a seed and a value
/// per run, and the widest quartile spread seen inside a run.
#[derive(Debug, Default, Clone)]
pub struct Side {
    pub runs: Vec<(u64, f64)>,
    pub inner_spread: f64,
}

impl Side {
    fn values(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.1).collect()
    }

    fn median(&self) -> Option<f64> {
        stats::median(&self.values())
    }

    /// Spread between runs when there are several, inside the run when
    /// there is one.
    fn spread(&self) -> f64 {
        stats::spread(&self.values()).unwrap_or(self.inner_spread)
    }

    fn at_seed(&self, seed: u64) -> impl Iterator<Item = f64> + '_ {
        self.runs.iter().filter(move |r| r.0 == seed).map(|r| r.1)
    }
}

/// A count must read the same in every run of either side at one seed.
/// Seeds that only one side ran say nothing about the other.
fn judge_count(a: &Side, b: &Side) -> Verdict {
    let shared: BTreeSet<u64> =
        a.runs.iter().map(|r| r.0).filter(|s| b.at_seed(*s).next().is_some()).collect();
    if shared.is_empty() {
        return Verdict::Unresolved;
    }
    let same = shared.iter().all(|&seed| {
        let first = a.at_seed(seed).next();
        a.at_seed(seed).chain(b.at_seed(seed)).all(|v| Some(v) == first)
    });
    if same {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(def: &MetricDef, a: &Side, b: &Side) -> Verdict {
    let (Some(ma), Some(mb)) = (a.median(), b.median()) else {
        // Nothing to compare on one side: a row that was null stays so.
        return if a.runs.len() == b.runs.len() { Verdict::Info } else { Verdict::Unresolved };
    };
    if def.count {
        return judge_count(a, b);
    }
    let Some(bound) = def.bound else {
        return Verdict::Info;
    };
    if a.spread().max(b.spread()) > bound {
        // Too noisy to call, unless every run of B beats every run of A.
        let (va, vb) = (a.values(), b.values());
        let clean_win = vb.iter().all(|y| va.iter().all(|x| worse_by(def, *x, *y) < 0.0));
        return if clean_win { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worse_by(def, ma, mb) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

type Table = BTreeMap<String, BTreeMap<String, Side>>;

/// Workload → metric → values, from a result file's runs.
fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    for run in doc.get("runs").map(Json::as_arr).unwrap_or(&[]) {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let rows = table.entry(workload).or_default();
        if let Some(frac) = run.get("failed_frac").and_then(Json::as_f64) {
            rows.entry("failed_frac".into()).or_default().runs.push((seed, frac));
        }
        for (name, m) in run.get("metrics").map(Json::as_obj).unwrap_or(&[]) {
            let Some(value) = m.get("value").and_then(Json::as_f64) else { continue };
            let side = rows.entry(name.clone()).or_default();
            side.runs.push((seed, value));
            let quartile = |k| m.get(k).and_then(Json::as_f64);
            if let (Some(q1), Some(q3)) = (quartile("q1"), quartile("q3")) {
                side.inner_spread =
                    side.inner_spread.max((q3 - q1) / value.abs().max(f64::MIN_POSITIVE));
            }
        }
    }
    if table.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(table)
}

/// Print one row per workload and metric; the exit code is 1 when any row
/// regressed, else 2 when any is unresolved, else 0.
pub fn compare(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let failed_frac = MetricDef {
        name: "failed_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: None,
        count: false,
        median: false,
        partial: false,
    };
    let none = Side::default();
    let mut worst = Verdict::Ok;
    println!(
        "{:<16} {:<32} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (workload, rows_a) in &a {
        let Some(rows_b) = b.get(workload) else {
            println!("{workload:<16} missing from {path_b}");
            worst = Verdict::Regressed;
            continue;
        };
        let defs = metrics::END_TO_END.iter().chain(&metrics::PER_LAYER).chain([&failed_frac]);
        for def in defs {
            let (sa, sb) =
                (rows_a.get(def.name).unwrap_or(&none), rows_b.get(def.name).unwrap_or(&none));
            if sa.runs.is_empty() && sb.runs.is_empty() {
                continue;
            }
            let (ma, mb) = (sa.median(), sb.median());
            let verdict = if def.name == "failed_frac" {
                match (ma, mb) {
                    (Some(fa), Some(fb)) if fb > fa => Verdict::Regressed,
                    _ => Verdict::Ok,
                }
            } else {
                judge(def, sa, sb)
            };
            let show = |m: Option<f64>| m.map_or("null".to_string(), |v| format!("{v:.6e}"));
            let change = match (ma, mb) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", 100.0 * (y - x) / x.abs()),
                _ => "-".to_string(),
            };
            println!(
                "{workload:<16} {:<32} {:>14} {:>14} {change:>8}  {}",
                def.name,
                show(ma),
                show(mb),
                verdict.as_str()
            );
            worst = match (worst, verdict) {
                (_, Verdict::Regressed) | (Verdict::Regressed, _) => Verdict::Regressed,
                (_, Verdict::Unresolved) | (Verdict::Unresolved, _) => Verdict::Unresolved,
                _ => Verdict::Ok,
            };
        }
    }
    println!("verdict: {}", worst.as_str());
    Ok(match worst {
        Verdict::Regressed => 1,
        Verdict::Unresolved => 2,
        _ => 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs at seed 7.
    fn side(values: &[f64]) -> Side {
        seeded(&values.iter().map(|v| (7, *v)).collect::<Vec<_>>())
    }

    fn seeded(runs: &[(u64, f64)]) -> Side {
        Side { runs: runs.to_vec(), inner_spread: 0.0 }
    }

    /// A metric bounded at 10 %, whatever the schema's bounds are today.
    fn bounded(name: &str) -> MetricDef {
        MetricDef { bound: Some(0.1), ..*metrics::find(name).unwrap() }
    }

    #[test]
    fn a_bounded_metric_is_judged_in_its_own_direction() {
        let (lower, higher) = (&bounded("compile_s"), &bounded("pkts_per_s"));
        let a = side(&[1.00, 1.01, 0.99]);
        assert_eq!(judge(lower, &a, &side(&[1.05, 1.06, 1.04])), Verdict::Ok);
        assert_eq!(judge(lower, &a, &side(&[1.15, 1.16, 1.14])), Verdict::Regressed);
        assert_eq!(judge(lower, &a, &side(&[0.5, 0.51, 0.49])), Verdict::Ok);
        assert_eq!(judge(higher, &a, &side(&[0.85, 0.86, 0.84])), Verdict::Regressed);
        assert_eq!(judge(higher, &a, &side(&[1.5, 1.6, 1.4])), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let def = &bounded("compile_s");
        let noisy = side(&[1.0, 1.4, 0.7, 1.2]);
        assert_eq!(judge(def, &noisy, &side(&[1.1, 1.0, 1.3, 0.9])), Verdict::Unresolved);
        assert_eq!(judge(def, &noisy, &side(&[0.5, 0.6, 0.4, 0.65])), Verdict::Ok);
        // One run a side: the spread inside the run stands in.
        let wide = Side { runs: vec![(7, 1.0)], inner_spread: 0.3 };
        assert_eq!(judge(def, &wide, &side(&[1.05])), Verdict::Unresolved);
    }

    #[test]
    fn counts_must_be_equal_and_layers_without_bound_inform() {
        let nodes = metrics::find("ilp.nodes").unwrap();
        assert_eq!(judge(nodes, &side(&[352.0, 352.0]), &side(&[352.0])), Verdict::Ok);
        assert_eq!(judge(nodes, &side(&[352.0]), &side(&[351.0])), Verdict::Regressed);
        // A count follows the seed: each seed is held to its own value,
        // and a seed only one side ran is not compared.
        let instrs = metrics::find("sim.instrs_per_pkt").unwrap();
        let a = seeded(&[(1, 13.25), (2, 13.5), (3, 13.0)]);
        assert_eq!(judge(instrs, &a, &seeded(&[(2, 13.5), (1, 13.25)])), Verdict::Ok);
        assert_eq!(judge(instrs, &a, &seeded(&[(1, 13.25), (2, 13.25)])), Verdict::Regressed);
        assert_eq!(judge(instrs, &a, &seeded(&[(4, 13.25)])), Verdict::Unresolved);
        let parse = metrics::find("lang.parse_s").unwrap();
        assert_eq!(judge(parse, &side(&[1.0]), &side(&[9.0])), Verdict::Info);
        assert_eq!(judge(parse, &side(&[]), &side(&[])), Verdict::Info);
        assert_eq!(judge(parse, &side(&[1.0]), &side(&[])), Verdict::Unresolved);
    }
}
