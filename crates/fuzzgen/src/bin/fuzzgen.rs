//! The fuzzing driver.
//!
//! Generates `--samples` cases from consecutive seeds, runs the full
//! four-way oracle on each (reference interpreter, bytecode engine,
//! generated-Rust native engine, sharded replay), shrinks any
//! divergence, and (optionally)
//! commits the minimized case to the corpus directory. Deterministic:
//! the same `--seed`/`--samples` pair always examines the same cases, so
//! a reported seed replays alone via `--samples 1 --seed <seed>`.
//!
//! The summary line splits the clean feasible cases by how the bytecode
//! engine ran them: without an undo log (the listing's header reads
//! `undo log: elided`) or with one, so a run shows that the oracle
//! covered both. It also counts the install contracts of those cases,
//! each of which the oracle tried one out-of-range install against.
//!
//! Exit codes: `0` all clean, `1` divergences found, `2` usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use p4all_core::{CompileOptions, Compiler};
use p4all_fuzzgen::{
    generate, generate_joint, merged_case, run_case, run_joint_case, shrink, FuzzCase,
    OracleOptions, Outcome,
};
use p4all_sim::Switch;

struct Args {
    samples: u64,
    joint_samples: u64,
    seed: u64,
    trace_len: usize,
    corpus_dir: PathBuf,
    save_corpus: bool,
    do_shrink: bool,
    cross_checks: bool,
    native: bool,
    max_divergences: usize,
    shrink_budget: usize,
    time_limit_s: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            samples: 200,
            joint_samples: 25,
            seed: 1,
            trace_len: 48,
            corpus_dir: PathBuf::from("tests/fuzz-corpus"),
            save_corpus: false,
            do_shrink: true,
            cross_checks: true,
            native: true,
            max_divergences: 5,
            shrink_budget: 300,
            time_limit_s: 10,
        }
    }
}

const USAGE: &str = "\
usage: fuzzgen [options]
  --samples N          number of single-program cases to run (default 200)
  --joint N            number of 2-3-tenant joint cases to run after the
                       single-program samples (default 25)
  --seed S             base seed; case i uses seed S+i (default 1)
  --trace-len L        packets per replay trace (default 48)
  --corpus-dir DIR     where to write shrunk cases (default tests/fuzz-corpus)
  --save-corpus        write shrunk divergent cases into the corpus dir
  --no-shrink          report divergences without minimizing them
  --no-cross           skip the warm/cold and cuts-on/off solver cross-checks
  --no-native          skip the generated-Rust native engine (three-way oracle)
  --max-divergences M  stop after M distinct divergent samples (default 5)
  --shrink-budget B    oracle runs per shrink (default 300)
  --time-limit S       per-solve wall clock cap in seconds (default 10)
  --help               this text";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--samples" => args.samples = val("--samples")?.parse().map_err(|e| format!("--samples: {e}"))?,
            "--joint" => args.joint_samples = val("--joint")?.parse().map_err(|e| format!("--joint: {e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace-len" => args.trace_len = val("--trace-len")?.parse().map_err(|e| format!("--trace-len: {e}"))?,
            "--corpus-dir" => args.corpus_dir = PathBuf::from(val("--corpus-dir")?),
            "--save-corpus" => args.save_corpus = true,
            "--no-shrink" => args.do_shrink = false,
            "--no-cross" => args.cross_checks = false,
            "--no-native" => args.native = false,
            "--max-divergences" => {
                args.max_divergences = val("--max-divergences")?.parse().map_err(|e| format!("--max-divergences: {e}"))?
            }
            "--shrink-budget" => {
                args.shrink_budget = val("--shrink-budget")?.parse().map_err(|e| format!("--shrink-budget: {e}"))?
            }
            "--time-limit" => {
                args.time_limit_s = val("--time-limit")?.parse().map_err(|e| format!("--time-limit: {e}"))?
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzzgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut native = args.native;
    if native && !p4all_sim::rustc_available() {
        eprintln!("fuzzgen: rustc not found on PATH — native backend checks skipped (three-way oracle)");
        native = false;
    }
    let opts = OracleOptions {
        time_limit: Duration::from_secs(args.time_limit_s),
        cross_checks: args.cross_checks,
        native,
        ..OracleOptions::default()
    };

    let mut tally = Tally::default();
    for i in 0..args.samples {
        let seed = args.seed.wrapping_add(i);
        let case = generate(seed, args.trace_len);
        let target = case.target.as_str();
        let outcome = run_case(&case, &opts);
        if outcome == (Outcome::Clean { feasible: true }) {
            tally.count_undo(&case, &opts);
        }
        if handle(outcome, seed, "seed", target, Some(&case), &args, &opts, &mut tally) {
            break;
        }
    }
    // The multi-tenant pass: joint-specific kinds (`joint-*`) are
    // reported by seed only; divergences from the shared machinery shrink
    // and save as ordinary cases over the *merged* program, which replays
    // through the standard corpus path.
    if tally.divergences < args.max_divergences {
        for i in 0..args.joint_samples {
            let seed = args.seed.wrapping_add(i);
            let case = generate_joint(seed, args.trace_len);
            let target = case.target.as_str();
            let outcome = run_joint_case(&case, &opts);
            if outcome == (Outcome::Clean { feasible: true }) {
                if let Ok(merged) = merged_case(&case) {
                    tally.count_undo(&merged, &opts);
                }
            }
            let merged = match outcome.divergence() {
                Some(d) if !d.kind.starts_with("joint-") => merged_case(&case).ok(),
                _ => None,
            };
            if handle(outcome, seed, "joint seed", target, merged.as_ref(), &args, &opts, &mut tally)
            {
                break;
            }
        }
    }

    println!(
        "fuzzgen: {} samples + {} joint from seed {}: {} feasible ({} undo-free, {} logged, {} contract slots), {} infeasible, {} skipped, {} divergent",
        args.samples,
        args.joint_samples,
        args.seed,
        tally.clean_feasible,
        tally.undo_free,
        tally.undo_logged,
        tally.contracts,
        tally.clean_infeasible,
        tally.skipped,
        tally.divergences
    );
    if tally.divergences > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[derive(Default)]
struct Tally {
    clean_feasible: u64,
    /// Clean feasible cases the bytecode engine ran without, and with, an
    /// undo log.
    undo_free: u64,
    undo_logged: u64,
    /// Install contracts of those cases, summed.
    contracts: u64,
    clean_infeasible: u64,
    skipped: u64,
    divergences: usize,
}

impl Tally {
    /// Rebuild a clean feasible case's switch under the oracle's solver
    /// budget, count it by the header line of its bytecode listing, and
    /// add up its install contracts. A rebuild that fails (a solve that
    /// hits the time limit this time) is counted in none.
    fn count_undo(&mut self, case: &FuzzCase, opts: &OracleOptions) {
        let src = case.source();
        let mut o = CompileOptions::default();
        o.solver.node_limit = opts.node_limit;
        o.solver.time_limit = Some(opts.time_limit);
        o.explain_infeasible = false;
        let Ok(c) = Compiler::with_options(case.target.to_spec(), o).compile(&src) else {
            return;
        };
        let Ok(sw) = Switch::build(&c.concrete, &case.program) else { return };
        self.contracts += sw.install_contracts().count() as u64;
        if sw.dump_bytecode().starts_with("undo log: elided") {
            self.undo_free += 1;
        } else {
            self.undo_logged += 1;
        }
    }
}

/// Record one oracle outcome; on divergence, shrink and save when a
/// shrinkable single-program form of the case is available. Returns true
/// when the divergence budget is exhausted and the run should stop.
#[allow(clippy::too_many_arguments)]
fn handle(
    outcome: Outcome,
    seed: u64,
    label: &str,
    target: &str,
    shrinkable: Option<&p4all_fuzzgen::FuzzCase>,
    args: &Args,
    opts: &OracleOptions,
    tally: &mut Tally,
) -> bool {
    match outcome {
        Outcome::Clean { feasible: true } => tally.clean_feasible += 1,
        Outcome::Clean { feasible: false } => tally.clean_infeasible += 1,
        Outcome::Skipped { reason } => {
            tally.skipped += 1;
            eprintln!("{label} {seed}: skipped ({reason})");
        }
        Outcome::Divergence(d) => {
            tally.divergences += 1;
            eprintln!("== divergence at {label} {seed} (target {target}) ==");
            eprintln!("kind: {}", d.kind);
            eprintln!("{}", d.detail);
            let Some(case) = shrinkable else {
                eprintln!("replay with the fuzzgen --joint path at this seed");
                return tally.divergences >= args.max_divergences;
            };
            let (final_case, final_div) = if args.do_shrink {
                let s = shrink(case, &d, opts, args.shrink_budget);
                eprintln!(
                    "shrunk in {} oracle runs to {} source lines, trace {} packets:",
                    s.oracle_runs,
                    s.case.source().lines().count(),
                    s.case.trace_len
                );
                eprintln!("{}", s.case.source());
                (s.case, s.divergence)
            } else {
                (case.clone(), d)
            };
            if args.save_corpus {
                match p4all_fuzzgen::save(&args.corpus_dir, &final_case, &final_div) {
                    Ok(path) => eprintln!("saved to {}", path.display()),
                    Err(e) => eprintln!("failed to save corpus case: {e}"),
                }
            }
            if tally.divergences >= args.max_divergences {
                eprintln!("stopping after {} divergences", tally.divergences);
                return true;
            }
        }
    }
    false
}
