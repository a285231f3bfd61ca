//! `p4allc` — the P4All command-line compiler.
//!
//! ```text
//! p4allc PROGRAM.p4all [options]
//! p4allc --tenant A.p4all:W [--tenant B.p4all:W ...] [options]
//!
//!   --target NAME        tofino | paper-eval | paper-example | small
//!                        (default: tofino)
//!   --tenant FILE[:W]    repeatable: jointly compile FILE as one tenant
//!                        with utility weight W (default 1). All tenants
//!                        share ONE pipeline; the solver maximizes the
//!                        weighted sum of their utilities. Mutually
//!                        exclusive with a positional PROGRAM
//!   --stages N           override pipeline stage count
//!   --memory BITS        override per-stage register memory
//!   --stateful-alus N    override stateful ALUs per stage
//!   --stateless-alus N   override stateless ALUs per stage
//!   --phv BITS           override PHV size
//!   --emit WHAT          p4 | layout | stats | all   (default: all)
//!   --out FILE           write the generated P4 to FILE
//!   --greedy             use the greedy first-fit allocator instead of
//!                        the ILP (baseline / quick feasibility check)
//!   --sim N              after compiling, replay N synthetic packets
//!                        through the behavioral simulator and report
//!                        throughput, drops, and per-stage cost
//!   --sim-backend B      interp | compiled | native   (default: compiled;
//!                        native generates Rust, compiles it with the
//!                        in-container rustc, and runs it as a cdylib)
//!   --sim-threads N      replay worker threads (0 = all cores;
//!                        default 1 = sequential; capped at the
//!                        machine's available parallelism)
//!   --sim-batch N        SoA batch width for replay (0 = scalar, the
//!                        default; replay reports the width that
//!                        actually ran — the interpreter has no batch
//!                        mode)
//!   --timings            print the per-pass compile trace (wall time,
//!                        artifact sizes, cache hits), the cut-engine
//!                        counters and what the root dive did
//!   --json-diagnostics   also emit diagnostics as one stable-schema JSON
//!                        object on stdout: {"diagnostics": [...]}
//! ```
//!
//! Exit codes: `0` success, `1` usage error, `2` invalid source (or
//! unreadable input), `3` no feasible layout on the target, `4` solver
//! failure or limit, `5` internal compiler error.

use std::fmt::Write as _;
use std::process::ExitCode;

use p4all_core::{
    merge_tenants, CompileCtx, CompileError, CompileOptions, Compilation, Compiler,
    TenantProgram, TenantReport,
};
use p4all_lang::diag::Diagnostic;
use p4all_lang::Tenant;
use p4all_pisa::{presets, TargetSpec};
use p4all_sim::{Backend, Switch};

struct Args {
    input: Option<String>,
    /// `--tenant FILE[:W]` specs, in order.
    tenants: Vec<String>,
    target: TargetSpec,
    emit_p4: bool,
    emit_layout: bool,
    emit_stats: bool,
    out: Option<String>,
    greedy: bool,
    sim: Option<u64>,
    sim_backend: Backend,
    sim_threads: usize,
    sim_batch: usize,
    timings: bool,
    json_diagnostics: bool,
}

/// A run failure: the per-class exit code, the human-readable report for
/// stderr, and the machine-readable diagnostics for `--json-diagnostics`.
struct Failure {
    code: u8,
    human: String,
    diagnostics: Vec<Diagnostic>,
}

impl Failure {
    /// An input/IO failure (same exit class as invalid source).
    fn io(message: String) -> Self {
        Failure { code: 2, human: message.clone(), diagnostics: vec![Diagnostic::error(message)] }
    }

    fn compile(e: CompileError, src: &str, file: &str) -> Self {
        let human = match e.diagnostic() {
            Some(d) => d.render(src, file),
            None => format!("{e}"),
        };
        let diagnostics = match e.diagnostic() {
            Some(d) => vec![d.clone()],
            None => vec![Diagnostic::error(e.to_string())],
        };
        Failure { code: e.exit_class(), human, diagnostics }
    }
}

/// The stable `--json-diagnostics` payload: one object per line of output.
fn json_report(diagnostics: &[Diagnostic]) -> String {
    let body: Vec<String> = diagnostics.iter().map(|d| d.to_json()).collect();
    format!("{{\"diagnostics\":[{}]}}", body.join(","))
}

fn usage() -> &'static str {
    "usage: p4allc PROGRAM.p4all | --tenant FILE[:WEIGHT] ... \
     [--target tofino|paper-eval|paper-example|small] \
     [--stages N] [--memory BITS] [--stateful-alus N] [--stateless-alus N] \
     [--phv BITS] [--emit p4|layout|stats|all] [--out FILE] [--greedy] \
     [--sim N] [--sim-backend interp|compiled|native] [--sim-threads N] [--sim-batch N] \
     [--timings] [--json-diagnostics]"
}

fn parse_args() -> Result<Args, String> {
    let mut input: Option<String> = None;
    let mut tenants: Vec<String> = Vec::new();
    let mut target = presets::tofino_like();
    let mut emit = "all".to_string();
    let mut out = None;
    let mut greedy = false;
    let mut sim = None;
    let mut sim_backend = Backend::Compiled;
    let mut sim_threads = 1usize;
    let mut sim_batch = 0usize;
    let mut timings = false;
    let mut json_diagnostics = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--target" => {
                target = match next(&mut i, "--target")?.as_str() {
                    "tofino" => presets::tofino_like(),
                    "paper-eval" => presets::paper_eval(1_750_000),
                    "paper-example" => presets::paper_example(),
                    "small" => presets::small_switch(),
                    other => return Err(format!("unknown target `{other}`")),
                };
            }
            "--stages" => {
                target.stages = next(&mut i, "--stages")?
                    .parse()
                    .map_err(|_| "--stages needs an integer".to_string())?;
            }
            "--memory" => {
                target.memory_bits = next(&mut i, "--memory")?
                    .parse()
                    .map_err(|_| "--memory needs an integer".to_string())?;
            }
            "--stateful-alus" => {
                target.stateful_alus = next(&mut i, "--stateful-alus")?
                    .parse()
                    .map_err(|_| "--stateful-alus needs an integer".to_string())?;
            }
            "--stateless-alus" => {
                target.stateless_alus = next(&mut i, "--stateless-alus")?
                    .parse()
                    .map_err(|_| "--stateless-alus needs an integer".to_string())?;
            }
            "--phv" => {
                target.phv_bits = next(&mut i, "--phv")?
                    .parse()
                    .map_err(|_| "--phv needs an integer".to_string())?;
            }
            "--tenant" => tenants.push(next(&mut i, "--tenant")?),
            "--emit" => emit = next(&mut i, "--emit")?,
            "--out" => out = Some(next(&mut i, "--out")?),
            "--greedy" => greedy = true,
            "--timings" => timings = true,
            "--json-diagnostics" => json_diagnostics = true,
            "--sim" => {
                sim = Some(
                    next(&mut i, "--sim")?
                        .parse()
                        .map_err(|_| "--sim needs a packet count".to_string())?,
                );
            }
            "--sim-backend" => {
                sim_backend = match next(&mut i, "--sim-backend")?.as_str() {
                    "interp" => Backend::Interp,
                    "compiled" => Backend::Compiled,
                    "native" => Backend::Native,
                    other => return Err(format!("unknown --sim-backend `{other}`")),
                };
            }
            "--sim-threads" => {
                sim_threads = next(&mut i, "--sim-threads")?
                    .parse()
                    .map_err(|_| "--sim-threads needs an integer".to_string())?;
            }
            "--sim-batch" => {
                sim_batch = next(&mut i, "--sim-batch")?
                    .parse()
                    .map_err(|_| "--sim-batch needs an integer".to_string())?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            file => {
                if input.replace(file.to_string()).is_some() {
                    return Err("multiple input files".to_string());
                }
            }
        }
        i += 1;
    }
    match (&input, tenants.is_empty()) {
        (None, true) => return Err(usage().to_string()),
        (Some(_), false) => {
            return Err("give either PROGRAM.p4all or --tenant, not both".to_string())
        }
        _ => {}
    }
    let (emit_p4, emit_layout, emit_stats) = match emit.as_str() {
        "p4" => (true, false, false),
        "layout" => (false, true, false),
        "stats" => (false, false, true),
        "all" => (true, true, true),
        other => return Err(format!("unknown --emit `{other}` (p4|layout|stats|all)")),
    };
    target.validate().map_err(|e| format!("invalid target: {e}"))?;
    Ok(Args {
        input,
        tenants,
        target,
        emit_p4,
        emit_layout,
        emit_stats,
        out,
        greedy,
        sim,
        sim_backend,
        sim_threads,
        sim_batch,
        timings,
        json_diagnostics,
    })
}

/// One `--tenant` input: the tenant program plus the file it came from
/// (for rendering that tenant's own diagnostics).
struct TenantFile {
    tp: TenantProgram,
    path: String,
}

/// Derive a tenant name from the file stem, sanitized to a plain
/// identifier (`apps/vlan.p4all` → `vlan`).
fn tenant_name(path: &str) -> String {
    let stem =
        std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("tenant");
    let mut name: String = stem
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if !name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_') {
        name.insert(0, 't');
    }
    name
}

/// Load `--tenant FILE[:WEIGHT]` specs: read each file, derive the tenant
/// name from its stem, default the weight to 1.
fn load_tenants(specs: &[String]) -> Result<Vec<TenantFile>, Failure> {
    let mut out = Vec::new();
    for spec in specs {
        let (path, weight) = match spec.rsplit_once(':') {
            Some((p, w)) => match w.parse::<f64>() {
                Ok(w) => (p.to_string(), w),
                Err(_) => (spec.clone(), 1.0),
            },
            None => (spec.clone(), 1.0),
        };
        let src = std::fs::read_to_string(&path)
            .map_err(|e| Failure::io(format!("cannot read {path}: {e}")))?;
        let tenant = Tenant::new(tenant_name(&path), weight)
            .map_err(|e| Failure::io(format!("--tenant {spec}: {e}")))?;
        out.push(TenantFile { tp: TenantProgram::new(tenant, src), path });
    }
    Ok(out)
}

/// Attribute a joint-compile failure: a tenant-tagged source error renders
/// against that tenant's own file; anything else (e.g. a joint
/// infeasibility) renders against the merged program's printed source.
fn joint_failure(e: CompileError, tenants: &[TenantFile]) -> Failure {
    if let Some(d) = e.diagnostic() {
        for t in tenants {
            let tag = format!("in tenant `{}`", t.tp.tenant.name);
            if d.notes.iter().any(|n| n.message.contains(&tag)) {
                return Failure {
                    code: e.exit_class(),
                    human: d.render(&t.tp.src, &t.path),
                    diagnostics: vec![d.clone()],
                };
            }
        }
        let tps: Vec<TenantProgram> = tenants.iter().map(|t| t.tp.clone()).collect();
        if let Ok(joint) = merge_tenants(&tps) {
            return Failure {
                code: e.exit_class(),
                human: d.render(&joint.src, "<joint>"),
                diagnostics: vec![d.clone()],
            };
        }
    }
    Failure {
        code: e.exit_class(),
        human: format!("{e}"),
        diagnostics: vec![Diagnostic::error(e.to_string())],
    }
}

/// The `--json-diagnostics` success payload of a joint compile: the empty
/// diagnostics list plus the per-tenant utility split.
fn json_tenant_report(reports: &[TenantReport]) -> String {
    let body: Vec<String> = reports
        .iter()
        .map(|r| {
            let u = match r.utility {
                Some(u) => format!("{u}"),
                None => "null".to_string(),
            };
            format!("{{\"name\":\"{}\",\"weight\":{},\"utility\":{}}}", r.name, r.weight, u)
        })
        .collect();
    format!("{{\"diagnostics\":[],\"tenants\":[{}]}}", body.join(","))
}

fn run(args: Args) -> Result<(), Failure> {
    eprintln!("target: {}", args.target);
    let options = CompileOptions::default();

    let (src, mut c, reports): (String, Compilation, Option<Vec<TenantReport>>) =
        if args.tenants.is_empty() {
            let input = args.input.clone().expect("parse_args guarantees an input");
            let src = std::fs::read_to_string(&input)
                .map_err(|e| Failure::io(format!("cannot read {input}: {e}")))?;
            let compiler = Compiler::with_options(args.target.clone(), options);
            if args.greedy {
                let layout = compiler
                    .compile_greedy(&src)
                    .map_err(|e| Failure::compile(e, &src, &input))?;
                println!("{}", layout.render());
                if args.json_diagnostics {
                    println!("{}", json_report(&[]));
                }
                return Ok(());
            }
            let c = compiler
                .compile(&src)
                .map_err(|e| Failure::compile(e, &src, &input))?;
            (src, c, None)
        } else {
            let files = load_tenants(&args.tenants)?;
            let tps: Vec<TenantProgram> = files.iter().map(|f| f.tp.clone()).collect();
            let mut ctx = CompileCtx::new(options);
            if args.greedy {
                let joint = merge_tenants(&tps).map_err(|e| joint_failure(e, &files))?;
                let (layout, _trace) = ctx
                    .compile_greedy(&joint.src, &args.target)
                    .map_err(|e| Failure::compile(e, &joint.src, "<joint>"))?;
                println!("{}", layout.render());
                if args.json_diagnostics {
                    println!("{}", json_report(&[]));
                }
                return Ok(());
            }
            let jc =
                ctx.compile_joint(&tps, &args.target).map_err(|e| joint_failure(e, &files))?;
            eprintln!("joint compile: {} tenants, one pipeline", jc.tenants.len());
            (jc.joint.src, jc.compilation, Some(jc.tenants))
        };
    // Build the simulator up front when requested: preparing the native
    // backend here registers its codegen + rustc phases in the compile
    // trace before --timings renders it.
    let mut sim_switch = None;
    if args.sim.is_some() {
        let program = p4all_lang::parse(&src).map_err(|e| {
            Failure::compile(CompileError::from(e), &src, args.input.as_deref().unwrap_or("<joint>"))
        })?;
        let mut sw = Switch::build(&c.concrete, &program)
            .map_err(|e| Failure::io(format!("simulator: {e}")))?;
        sw.set_backend(args.sim_backend);
        if args.sim_backend == Backend::Native {
            let report = sw
                .prepare_native()
                .map_err(|e| Failure::io(format!("native backend: {e}")))?;
            c.trace.record(
                "native-gen",
                false,
                report.gen_time,
                format!("{} bytes of Rust", report.source_bytes),
            );
            c.trace.record("native-rustc", false, report.rustc_time, "cdylib".to_string());
        }
        sim_switch = Some(sw);
    }
    // Replay before --timings renders: the replay's batch width and
    // pipeline-overlap occupancy are recorded into the compile trace.
    let mut replay_stats = None;
    if let Some(packets) = args.sim {
        let mut sw = sim_switch.take().expect("built above when --sim is set");
        sw.set_batch_width(args.sim_batch);
        let trace = synth_trace(&sw, packets);
        let stats = sw.run_trace(&trace, args.sim_threads);
        c.trace.record(
            "sim-replay",
            false,
            stats.elapsed,
            format!(
                "{} pkts, {} thread(s), batch width {}, occupancy {:.0}%",
                stats.packets,
                stats.threads,
                stats.batch_width,
                100.0 * stats.overlap_occupancy
            ),
        );
        replay_stats = Some(stats);
    }
    if args.timings {
        print!("{}", c.trace.render());
        let cc = &c.solve_stats.telemetry.cuts;
        if *cc != Default::default() {
            println!(
                "cut engine: {} cuts separated, {} applied, {} aged out; {} pseudocost updates, {} strong-branch LPs",
                cc.separated, cc.applied, cc.aged_out, cc.pseudocost_updates, cc.strong_branch_lps
            );
        }
        if let Some(dive) = &c.solve_stats.telemetry.dive {
            println!("root dive: {dive}");
        }
        if let Some(reports) = &reports {
            println!("tenant utility split:");
            for r in reports {
                match r.utility {
                    Some(u) => println!(
                        "  {:<12} weight {:>6.2}  utility {:>12.2}",
                        r.name, r.weight, u
                    ),
                    None => println!("  {:<12} weight {:>6.2}  utility n/a", r.name, r.weight),
                }
            }
        }
    }
    if args.emit_layout {
        println!("{}", c.layout.render());
    }
    if args.emit_stats {
        println!("unroll bounds:");
        for (sym, k) in &c.upper_bounds {
            println!("  {sym} <= {k}");
        }
        println!("ILP: {}", c.ilp_stats);
        println!(
            "solve: {:?} in {:.3}s ({} nodes, {} LPs); total compile {:.3}s",
            c.solve_stats.status,
            c.timings.solve.as_secs_f64(),
            c.solve_stats.nodes,
            c.solve_stats.lp_solves,
            c.timings.total.as_secs_f64()
        );
        println!("solve summary:");
        for line in c.solve_stats.telemetry.summary().lines() {
            println!("  {line}");
        }
        println!("generated P4: {} lines", p4all_core::loc(&c.p4_text));
    }
    if let Some(stats) = &replay_stats {
        // Sharded replay always runs the bytecode engine; the backend
        // choice only steers single-threaded execution.
        let engine = if stats.threads > 1 { Backend::Compiled } else { args.sim_backend };
        let batch = if stats.batch_width >= 2 {
            format!(", batch width {}", stats.batch_width)
        } else if args.sim_batch >= 2 {
            ", scalar loop (the interpreter has no batch mode)".to_string()
        } else {
            String::new()
        };
        let occupancy = if stats.threads > 1 {
            format!(", occupancy {:.0}%", 100.0 * stats.overlap_occupancy)
        } else {
            String::new()
        };
        println!(
            "replay: {} packets, {} dropped, {} thread(s), {:.0} pkts/sec ({engine:?} backend{batch}{occupancy})",
            stats.packets,
            stats.dropped,
            stats.threads,
            stats.pkts_per_sec(),
        );
        let total = stats.total_cost().max(1);
        let split: Vec<String> = stats
            .stage_cost
            .iter()
            .map(|&c| format!("{:.1}%", 100.0 * c as f64 / total as f64))
            .collect();
        println!("stage cost: {}", split.join(" "));
    }
    match (&args.out, args.emit_p4) {
        (Some(path), _) => {
            std::fs::write(path, &c.p4_text)
                .map_err(|e| Failure::io(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        (None, true) => println!("{}", c.p4_text),
        _ => {}
    }
    if args.json_diagnostics {
        let base = match &reports {
            Some(rs) => json_tenant_report(rs),
            None => json_report(&[]),
        };
        // Splice a `solver` object into every success payload: node and
        // LP counts, the cut-engine and pseudocost counters, and what the
        // root dive did (`null` when it did not run).
        let mut out = base;
        out.pop();
        let cc = &c.solve_stats.telemetry.cuts;
        let dive = c.solve_stats.telemetry.dive.map_or("null".to_string(), |d| d.to_json());
        let _ = write!(
            out,
            ",\"solver\":{{\"nodes\":{},\"lp_solves\":{},\"cuts_separated\":{},\"cuts_applied\":{},\"cuts_aged_out\":{},\"pseudocost_updates\":{},\"strong_branch_lps\":{},\"dive\":{dive}}}",
            c.solve_stats.nodes,
            c.solve_stats.lp_solves,
            cc.separated,
            cc.applied,
            cc.aged_out,
            cc.pseudocost_updates,
            cc.strong_branch_lps
        );
        match &replay_stats {
            // And a `replay` object when --sim ran, exposing the batch
            // width and pipeline-overlap occupancy.
            Some(s) => {
                println!(
                    "{out},\"replay\":{{\"packets\":{},\"dropped\":{},\"threads\":{},\"batch_width\":{},\"overlap_occupancy\":{:.3},\"pkts_per_sec\":{:.0}}}}}",
                    s.packets,
                    s.dropped,
                    s.threads,
                    s.batch_width,
                    s.overlap_occupancy,
                    s.pkts_per_sec()
                );
            }
            None => println!("{out}}}"),
        }
    }
    Ok(())
}

/// Deterministic synthetic trace: every header field of every packet gets
/// a pseudorandom value in `0..1024` (bounded so hash indices and table
/// keys repeat across packets, exercising flow locality).
fn synth_trace(sw: &Switch, packets: u64) -> Vec<p4all_sim::Phv> {
    let fields = sw.header_fields();
    let mut out = Vec::with_capacity(packets as usize);
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for _ in 0..packets {
        let vals: Vec<(String, u64)> = fields
            .iter()
            .map(|f| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (f.clone(), (state >> 33) % 1024)
            })
            .collect();
        let refs: Vec<(&str, u64)> = vals.iter().map(|(f, v)| (f.as_str(), *v)).collect();
        out.push(sw.make_packet(&refs).expect("fields come from header_fields"));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    let json = args.json_diagnostics;
    match run(args) {
        // Success JSON (including the joint-compile tenant split) is
        // printed inside `run`, which knows the compile mode.
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            // Rendered diagnostics already carry their own `error:` prefix.
            if f.human.starts_with("error") || f.human.starts_with("internal error") {
                eprint!("{}", f.human);
            } else {
                eprint!("error: {}", f.human);
            }
            if !f.human.ends_with('\n') {
                eprintln!();
            }
            if json {
                println!("{}", json_report(&f.diagnostics));
            }
            ExitCode::from(f.code)
        }
    }
}
