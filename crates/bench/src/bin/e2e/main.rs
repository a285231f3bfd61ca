//! `e2e` — the repository's benchmark: the whole path `P4All source →
//! layout → engine → replayed trace` on three named workloads, with a
//! per-layer split measured from outside. See `README.md` beside this
//! file for the workloads, the metrics and how they are meant to move.
//!
//! ```sh
//! e2e --workload sweep_churn --seed 7                # timed, then traced
//! e2e --workload apps_cold --seed 7 --trace 0        # end-to-end metrics only
//! e2e --workload apps_cold --seed 7 --trace 1        # per-layer metrics only
//! e2e --smoke                                        # all three, tiny, same checks
//! e2e --compare A.json B.json                        # B against A, by the bounds
//! ```

mod compare;
mod compile;
mod ctl;
mod host;
mod json;
mod manifest;
mod metrics;
mod record;
mod run;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::MetricDef;
use run::{Mode, Outcome};

const USAGE: &str = "usage:
  e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <file>]
  e2e --smoke
  e2e --compare <A.json> <B.json>
  e2e --list | --benchmark-json

  --trace 0   untraced run: end-to-end metrics
  --trace 1   traced run: per-layer metrics (also plain --trace)
  neither     both runs, every metric
  --out       append this run, with its host record, to a result file";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out: Option<String>,
}

enum Command {
    Run(Args),
    Smoke,
    Compare(String, String),
    List,
    BenchmarkJson,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: f64::from(metrics::RUN_SECONDS),
        mode: Mode::Both,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = value(&mut i, "--workload")?,
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.mode = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        Mode::Timed
                    }
                    Some("1") => {
                        i += 1;
                        Mode::Traced
                    }
                    _ => Mode::Traced,
                };
            }
            "--out" => args.out = Some(value(&mut i, "--out")?),
            "--smoke" => return Ok(Command::Smoke),
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                return Ok(Command::Compare(a, b));
            }
            "--list" => return Ok(Command::List),
            "--benchmark-json" => return Ok(Command::BenchmarkJson),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if args.workload.is_empty() {
        return Err("no --workload given".into());
    }
    Ok(Command::Run(args))
}

/// Where the driver may write: the build directory of the checkout it runs
/// in. The native engine's scratch crates go there too, through `TMPDIR`.
fn scratch_dir() -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = std::env::current_dir().map_err(|e| e.to_string())?.join(target).join("e2e-scratch");
    std::fs::create_dir_all(dir.join("tmp")).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_var("TMPDIR", dir.join("tmp"));
    Ok(dir)
}

/// One metric of one run: its value with median, quartiles and sample
/// count, or `null` with the reason.
fn metric_json(
    def: &MetricDef,
    series: &[f64],
    reason: Option<&String>,
    percentile: Option<f64>,
) -> Json {
    let mut pairs = vec![("value", Json::num(def.value(series))), ("unit", Json::str(def.unit))];
    if series.is_empty() {
        let why = reason.cloned().unwrap_or_else(|| "not exercised by this workload".into());
        pairs.push(("reason", Json::str(why)));
        return Json::obj(pairs);
    }
    pairs.push(("n", Json::Num(series.len() as f64)));
    pairs.push(("median", Json::num(stats::median(series))));
    if let Some((q1, q3)) = stats::quartiles(series) {
        pairs.push(("q1", Json::Num(q1)));
        pairs.push(("q3", Json::Num(q3)));
    }
    if def.count && series.iter().any(|v| *v != series[0]) {
        pairs.push(("unstable", Json::Bool(true)));
    }
    if let Some(p) = percentile {
        pairs.push(("percentile", Json::Num(p)));
    }
    Json::obj(pairs)
}

/// Every metric the mode produces, as `(definition, report)`.
fn reports(out: &Outcome, mode: Mode) -> Vec<(&'static MetricDef, Json)> {
    let mut rows = Vec::new();
    if mode != Mode::Traced {
        for def in &metrics::END_TO_END {
            rows.push((
                def,
                metric_json(def, out.timed.series(def.name), out.timed.reasons.get(def.name), None),
            ));
        }
    }
    if mode != Mode::Timed {
        for def in &metrics::PER_LAYER {
            let reason = out.traced.reasons.get(def.name);
            let percentile =
                (def.name == "core.compile.p90_s").then(|| run::compile_percentile(&out.traced));
            rows.push((def, metric_json(def, out.layer_series(def.name), reason, percentile)));
        }
    }
    rows
}

fn print_table(rows: &[(&MetricDef, Json)]) {
    println!("{:<32} {:>16} {:<6} {:>5} {:>14}  spread", "metric", "value", "unit", "n", "median");
    for (def, report) in rows {
        match report.get("value").and_then(Json::as_f64) {
            Some(v) => {
                let n = report.get("n").and_then(Json::as_f64).unwrap_or(0.0);
                let q = |k| report.get(k).and_then(Json::as_f64);
                let spread = match (q("q1"), q("q3")) {
                    (Some(q1), Some(q3)) if v != 0.0 => {
                        format!("{:.1}%", 100.0 * (q3 - q1) / v.abs())
                    }
                    _ => "-".into(),
                };
                let median = q("median").unwrap_or(v);
                println!(
                    "{:<32} {v:>16.6e} {:<6} {n:>5} {median:>14.6e}  {spread}",
                    def.name, def.unit
                );
            }
            None => {
                let why = report.get("reason").and_then(Json::as_str).unwrap_or("");
                println!(
                    "{:<32} {:>16} {:<6} {:>5} {:>14}  {why}",
                    def.name, "null", def.unit, 0, "-"
                );
            }
        }
    }
}

/// The line the benchmark driver reads: the metrics of `BENCHMARK.json`,
/// which leaves out the rows only some workloads measure. The line has no
/// way to carry `null`, so a row this host could not measure is left out
/// of it, never given a number; the table above says why.
fn driver_line(out: &Outcome, rows: &[(&MetricDef, Json)]) -> String {
    let metrics = rows.iter().filter(|(def, _)| !def.partial).filter_map(|(def, report)| {
        let value = report.get("value").and_then(Json::as_f64)?;
        Some((def.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))])))
    });
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .line()
}

fn append_result(path: &str, run: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            doc.get("runs").map(|r| r.as_arr().to_vec()).unwrap_or_default()
        }
        Err(_) => Vec::new(),
    };
    runs.push(run);
    std::fs::write(path, Json::obj([("runs", Json::Arr(runs))]).pretty())
        .map_err(|e| format!("{path}: {e}"))
}

fn run_workload(args: &Args, smoke: bool, process_start: Instant) -> Result<bool, String> {
    let name = args.workload.as_str();
    let scratch = scratch_dir()?;
    let out = run::run(name, args.seed, args.seconds, args.mode, smoke, process_start)?;
    let rows = reports(&out, args.mode);

    println!(
        "# {name}  seed {}  {} s  {:?}{}",
        args.seed,
        args.seconds,
        args.mode,
        if smoke { "  [smoke]" } else { "" }
    );
    print_table(&rows);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{:<32} {failed_frac:>16.6e} {:<6} {:>5}", "failed_frac", "ratio", out.attempted);
    for f in &out.failures {
        println!("FAILED {f}");
    }
    if args.mode != Mode::Timed {
        let path = scratch.join(format!("trace-{name}-{}.json", args.seed));
        std::fs::write(&path, out.tracer.trace_events().line())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans written to {}", out.tracer.spans.len(), path.display());
    }
    if let Some(path) = &args.out {
        let run = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("mode", Json::str(format!("{:?}", args.mode).to_lowercase())),
            ("host", host::record()),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("failed_frac", Json::Num(failed_frac)),
            ("failures", Json::Arr(out.failures.iter().map(Json::str).collect())),
            ("metrics", Json::obj(rows.iter().map(|(def, report)| (def.name, report.clone())))),
        ]);
        append_result(path, run)?;
    }
    println!("{}", driver_line(&out, &rows));
    Ok(out.failed == 0 && (!smoke || schema_kept(name, &out, &rows)))
}

/// `BENCHMARK.json` promises each of its metrics from every workload: a
/// row that came back empty, without the host being the reason, belongs
/// among the partial ones.
fn schema_kept(workload: &str, out: &Outcome, rows: &[(&MetricDef, Json)]) -> bool {
    let mut kept = true;
    for (def, report) in rows {
        let host =
            out.timed.reasons.contains_key(def.name) || out.traced.reasons.contains_key(def.name);
        if !def.partial && !host && report.get("value").and_then(Json::as_f64).is_none() {
            println!("FAILED {} is in BENCHMARK.json but {workload} does not measure it", def.name);
            kept = false;
        }
    }
    kept
}

/// The settings of a manifest's `[profile.release]`, one per line.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// All three workloads with tiny traces and one round each, both runs, the
/// same checks. When run from the root of the repository it also holds
/// `BENCHMARK.json` to the schema in `metrics.rs`, and the release profile
/// of the benchmark's own manifest to the workspace's, so the package the
/// benchmark driver builds is the build a user of the workspace gets.
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in metrics::WORKLOADS {
        let args = Args {
            workload: name.to_string(),
            seed: 7,
            seconds: 0.01,
            mode: Mode::Both,
            out: None,
        };
        ok &= run_workload(&args, true, Instant::now())?;
    }
    if let Ok(committed) = std::fs::read_to_string("BENCHMARK.json") {
        if committed != metrics::benchmark_json() {
            println!("FAILED BENCHMARK.json differs from `e2e --benchmark-json`");
            ok = false;
        }
    }
    let manifest = |path| std::fs::read_to_string(path).ok();
    if let (Some(workspace), Some(own)) =
        (manifest("Cargo.toml"), manifest("crates/bench/src/bin/e2e/Cargo.toml"))
    {
        if release_profile(&workspace) != release_profile(&own) {
            println!(
                "FAILED [profile.release] of the benchmark's manifest differs from the workspace's"
            );
            ok = false;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match command {
        Command::Run(args) => {
            run_workload(&args, false, process_start).map(|ok| if ok { 0 } else { 1 })
        }
        Command::Smoke => smoke().map(|ok| if ok { 0 } else { 1 }),
        Command::Compare(a, b) => compare::compare(&a, &b),
        Command::List => {
            for (name, why) in metrics::WORKLOADS {
                println!("{name:<16} {why}");
            }
            Ok(0)
        }
        Command::BenchmarkJson => {
            print!("{}", metrics::benchmark_json());
            Ok(0)
        }
    };
    match done {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driver_line_carries_measured_rows_of_the_schema_and_no_others() {
        let out = Outcome {
            timed: Default::default(),
            traced: Default::default(),
            tracer: spans::Tracer::new(false),
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
        };
        let row = |name: &str, series: &[f64]| {
            let def = metrics::find(name).unwrap();
            (def, metric_json(def, series, Some(&"the host has 1 core".to_string()), None))
        };
        let rows = [
            row("sim.build_s", &[0.5]),
            // Only some workloads measure it: not in `BENCHMARK.json`.
            row("core.verify_s", &[0.1]),
            // Not measured on this host: no number, so no entry.
            row("sim.sharded2.pkts_per_s", &[]),
        ];
        let line = Json::parse(&driver_line(&out, &rows)).unwrap();
        let names: Vec<&str> =
            line.get("metrics").unwrap().as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["sim.build_s"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn release_profile_is_the_settings_of_that_section_only() {
        let manifest = "[package]\nname = \"x\"\n\n# why\n[profile.release]\nlto = \"thin\"\n\n# note\ncodegen-units = 1\n[profile.dev]\nopt-level = 2\n";
        assert_eq!(release_profile(manifest), ["lto = \"thin\"", "codegen-units = 1"]);
        assert!(release_profile("[package]\n").is_empty());
    }
}
