//! One workload, one process, one client, closed loop: set up, then run
//! whole-path rounds back to back until the time is spent. Every round
//! goes source → layout → switch → PHV trace → bytecode replay → checked
//! outputs, then replays the long-lived switch on each engine, then
//! drives the control plane. Workloads differ in the program, the trace
//! and which of those phases carries the time.

use std::sync::Arc;
use std::time::Instant;

use p4all_lang::ast::Program;
use p4all_sim::{Phv, Switch};
use p4all_workloads::zipf_trace;

use crate::compile::{compile_joint, compile_unit, parse_unit, solve_threads2};
use crate::ctl::{burst, controller_chunk, Cache};
use crate::host;
use crate::manifest::{Unit, Workload};
use crate::metrics;
use crate::record::{Op, Recorder};
use crate::sim::{
    build_phvs, bytecode_instrs, pass, per_packet, prepare_native, record_pass, Engine, Loaded,
    Snapshot, Trace,
};
use crate::spans::Tracer;
use crate::stats;

/// Interleaved repetitions of the rows only the traced run measures.
const EXTRA_REPS: usize = 3;
/// Operation ids of spans outside any round (set-ups, the traced run's
/// extra rows) start here, so per-round layer times can leave them out.
const OUTSIDE_ROUNDS: u64 = 1 << 32;

/// Seconds of rounds on one CPU before the next takes over: long enough
/// that waking an idle CPU (cold caches, clock ramping up) costs a few
/// samples of many, short enough that a run visits each CPU several times.
const CPU_TURN_S: f64 = 4.0;

/// Everything a round needs that set-up made.
pub struct State {
    parsed: Vec<Arc<Program>>,
    program: Arc<Program>,
    trace: Trace,
    phvs: Vec<Phv>,
    /// The long-lived switch every engine replays.
    loaded: Loaded,
    native: bool,
    seed: u64,
    /// The tree interpreter's register state after the trace; made by the
    /// first interpreter pass, compared with by every other pass.
    oracle: Option<Snapshot>,
    /// `sweep_churn`'s controller, the switch it drives and the keys it
    /// serves.
    controller: Option<(Switch, Cache, Vec<u64>)>,
}

/// Everything before the first timed operation, as often as asked: render
/// the sources, compile once (which also warms the compiler), build and
/// populate the switch, draw the trace, build its PHVs, load the native
/// engine, and replay once to fault the registers in. The first set-up of
/// a process is timed from `process_start`, so it carries what a cold
/// process costs; it is also reported on its own (`bench.setup_first_s`).
fn setup(
    name: &str,
    smoke: bool,
    seed: u64,
    process_start: Option<Instant>,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> Result<(Workload, State), String> {
    let t = process_start.unwrap_or_else(Instant::now);
    tr.begin("setup");
    let (w, secs) = tr.leaf("elastic.source", || Workload::build(name, smoke));
    let w = w.ok_or_else(|| format!("unknown workload `{name}`"))?;
    rec.push("elastic.source_s", secs);

    let parsed = parse_unit(&w.unit)?;
    // The warm-up compile's timings are cold-process timings: its checks
    // count, its samples do not.
    let mut warm = Recorder::default();
    let (compiled, _) = compile_unit(&w.unit, &parsed, 0, tr, &mut warm);
    rec.attempted += warm.attempted;
    rec.failed += warm.failed;
    rec.failures.append(&mut warm.failures);
    let compiled = compiled.ok_or("the set-up compile failed")?;

    let mut loaded = Loaded::build(&compiled, tr)?;
    let fields = loaded.sw.header_fields();
    let (trace, secs) =
        tr.leaf("wl.zipf_trace", || Trace::generate(&fields, w.keys, w.alpha, w.packets, seed));
    rec.push("wl.zipf_trace_per_s", (w.packets * fields.len()) as f64 / secs);
    loaded.populate(&compiled.program, &w, &trace)?;
    let phvs = build_phvs(&loaded.sw, &trace)?;
    rec.push("sim.bytecode_instrs", bytecode_instrs(&loaded.sw) as f64);
    let native = prepare_native(&mut loaded.sw, tr, rec);
    loaded.sw.run_trace(&phvs, 1);

    let controller = match (&w.controller, &w.kv) {
        (Some(spec), Some(kv)) => {
            let sw = Loaded::build(&compiled, tr)?.sw;
            let cache = Cache::new(&sw, kv);
            // Its own seeded draw, apart from every header field's.
            let stream = zipf_trace(spec.keys, spec.alpha, spec.draws, seed ^ (1 << 63));
            Some((sw, cache, stream.packets.iter().map(|p| p.key).collect()))
        }
        _ => None,
    };
    tr.end();
    let secs = t.elapsed().as_secs_f64();
    rec.push("setup_s", secs);
    if process_start.is_some() {
        rec.push("bench.setup_first_s", secs);
    }
    let state = State {
        parsed,
        program: compiled.program,
        trace,
        phvs,
        loaded,
        native,
        seed,
        oracle: None,
        controller,
    };
    Ok((w, state))
}

fn replay(w: &Workload, st: &mut State, engine: Engine, tr: &mut Tracer, rec: &mut Recorder) {
    let stats = pass(&mut st.loaded, w, &st.phvs, engine, &mut st.oracle, tr, rec);
    if let Some(stats) = stats {
        record_pass(engine, &stats, rec);
    }
}

/// The whole path, cold: compile the unit, build and populate a switch
/// for it, build the PHV trace, replay it once on bytecode, check the
/// outputs. Returns the seconds spent on outside probes, and the switch
/// with its program for the round's control bursts: it has no native
/// engine to mirror installs into.
fn path(
    w: &Workload,
    st: &mut State,
    rotate: usize,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> (f64, Option<(Switch, Arc<Program>)>) {
    let t = Instant::now();
    tr.begin("path");
    let (compiled, probe_s) = compile_unit(&w.unit, &st.parsed, rotate, tr, rec);
    let mut op = Op::new("whole path");
    let built = compiled.ok_or_else(|| "compile failed".to_string()).and_then(|c| {
        let mut loaded = Loaded::build(&c, tr)?;
        loaded.populate(&c.program, w, &st.trace)?;
        let (phvs, secs) = tr.leaf("sim.make_packet", || build_phvs(&loaded.sw, &st.trace));
        let phvs = phvs?;
        rec.push("sim.make_packet_per_s", phvs.len() as f64 / secs);
        Ok((c, loaded, phvs))
    });
    let kept = match built {
        Err(e) => {
            op.fail(e);
            None
        }
        Ok((c, mut loaded, phvs)) => {
            match pass(&mut loaded, w, &phvs, Engine::Bytecode, &mut st.oracle, tr, rec) {
                Some(_) => rec.push("path_s", t.elapsed().as_secs_f64() - probe_s),
                None => op.fail("the cold replay failed its check"),
            }
            Some((loaded.sw, c.program))
        }
    };
    rec.finish(op);
    tr.end();
    (probe_s, kept)
}

/// One round. Returns its wall seconds less the outside probes, which an
/// untraced round never runs.
fn round(w: &Workload, st: &mut State, r: usize, tr: &mut Tracer, rec: &mut Recorder) -> f64 {
    tr.set_op(r as u64);
    tr.begin("round");
    let t = Instant::now();
    // The interpreter goes first: its first pass is every other pass's oracle.
    replay(w, st, Engine::Interp, tr, rec);
    let (probe_s, mut pathed) = path(w, st, st.seed as usize + r, tr, rec);
    for i in 0..w.passes {
        if i > 0 {
            replay(w, st, Engine::Interp, tr, rec);
        }
        replay(w, st, Engine::Bytecode, tr, rec);
        if st.native {
            replay(w, st, Engine::Native, tr, rec);
        }
        if let Some((sw, program)) = &mut pathed {
            burst(sw, program, false, tr, rec);
        }
    }
    if let (Some(spec), Some(kv), Some((sw, cache, keys))) =
        (&w.controller, &w.kv, &mut st.controller)
    {
        controller_chunk(cache, sw, kv, spec, keys, tr, rec);
    }
    tr.end();
    t.elapsed().as_secs_f64() - probe_s
}

/// Rows with no end-to-end metric of their own, measured in the traced
/// run only: the batched and sharded replay paths, the per-packet API,
/// installs mirrored into the native engine, the other joints
/// (`joint-3tenant`, `joint-3tenant-xl`) and the two-thread solve.
fn extras(w: &Workload, st: &mut State, tr: &mut Tracer, rec: &mut Recorder) {
    tr.set_op(OUTSIDE_ROUNDS + (1 << 16));
    tr.begin("extras");
    for _ in 0..EXTRA_REPS {
        replay(w, st, Engine::Batched, tr, rec);
        replay(w, st, Engine::Sharded2, tr, rec);
        if st.native {
            replay(w, st, Engine::NativeBatched, tr, rec);
            burst(&mut st.loaded.sw, &st.program, true, tr, rec);
        }
        per_packet(&mut st.loaded, w, &st.trace, tr, rec);
    }
    for (row, joint, reps) in &w.extra_joints {
        for _ in 0..*reps {
            let t = Instant::now();
            if compile_joint(joint, 1, rec).is_some() {
                rec.push(row, t.elapsed().as_secs_f64());
            }
        }
    }
    if let (true, Unit::Joint(joint)) = (w.threads2, &w.unit) {
        // Two threads get the time one thread takes: needing longer, they
        // have lost.
        match stats::median(rec.series("compile_s")) {
            _ if host::cores() < 2 => {
                rec.null("ilp.threads2_solve_s", "needs 2 solver threads, the host has 1 core");
            }
            Some(one_thread_s) => solve_threads2(joint, one_thread_s, rec),
            None => rec.null("ilp.threads2_solve_s", "no one-thread compile to set its time by"),
        }
    }
    tr.end();
}

/// Rounds back to back for `seconds`, at least `min_rounds`; a round is
/// not started when less than half of one is left. The rounds of each
/// [`CPU_TURN_S`] run pinned to the next of the allowed CPUs (see
/// [`host::Cpus`]).
fn rounds(
    w: &Workload,
    st: &mut State,
    seconds: f64,
    min_rounds: usize,
    first: usize,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> Vec<f64> {
    let t = Instant::now();
    let cpus = host::Cpus::allowed();
    let mut walls = Vec::new();
    loop {
        let spent = t.elapsed().as_secs_f64();
        let mean = spent / walls.len().max(1) as f64;
        if walls.len() >= min_rounds && spent + mean / 2.0 > seconds {
            cpus.unpin();
            return walls;
        }
        cpus.pin((spent / CPU_TURN_S) as usize);
        walls.push(round(w, st, first + walls.len(), tr, rec));
    }
}

/// The traced compile seeds the solver by a copy of what
/// `CompileCtx::compile` does. Hold the copy to the original: a compile
/// unit must encode the same model and search it in the same steps both
/// ways, or the per-layer times are of another search than `compile_s`.
fn same_search(timed: &Recorder, traced: &mut Recorder) {
    const COUNTS: [&str; 7] = [
        "core.encode_vars",
        "core.encode_rows",
        "ilp.nodes",
        "ilp.lp_solves",
        "ilp.pivots",
        "ilp.cuts_applied",
        "ilp.warm_start_accepted",
    ];
    let mut op = Op::new("traced compile against untraced");
    for name in COUNTS {
        let (off, on) = (stats::median(timed.series(name)), stats::median(traced.series(name)));
        op.expect(off == on, || format!("{name}: {off:?} untraced, {on:?} traced"));
    }
    traced.finish(op);
}

/// Which of the two runs a process makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end metrics.
    Timed,
    /// A short untraced stretch, then the traced run: the per-layer metrics.
    Traced,
    /// Untraced in full, then traced at a quarter of the time.
    Both,
}

pub struct Outcome {
    /// Set-up and untraced rounds: the end-to-end metrics.
    pub timed: Recorder,
    /// Set-up, traced rounds and the rows only they measure: the
    /// per-layer metrics. Empty for [`Mode::Timed`].
    pub traced: Recorder,
    pub tracer: Tracer,
    /// Checked operations of the whole process.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    /// A per-layer metric's samples: the traced run's, or the untraced
    /// run's for what only it can measure (the front-half cache).
    pub fn layer_series(&self, name: &str) -> &[f64] {
        match self.traced.series(name) {
            [] => self.timed.series(name),
            series => series,
        }
    }
}

/// Run one workload. `process_start` is when the process began working
/// on it: the first set-up is timed from there.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    mode: Mode,
    smoke: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(mode != Mode::Timed);
    let mut base = Recorder::default();
    tr.set_op(OUTSIDE_ROUNDS);
    let (mut w, mut st) = setup(name, smoke, seed, Some(process_start), &mut tr, &mut base)?;
    for i in 1..w.setups {
        tr.set_op(OUTSIDE_ROUNDS + i as u64);
        // Drop the previous set-up first, so peak memory is one set-up's.
        drop((w, st));
        (w, st) = setup(name, smoke, seed, None, &mut tr, &mut base)?;
    }

    let (timed_s, traced_s) = match mode {
        Mode::Timed => (seconds, 0.0),
        Mode::Traced => (seconds / 3.0, seconds * 2.0 / 3.0),
        Mode::Both => (seconds, seconds / 4.0),
    };
    let mut timed = Recorder::default();
    tr.enabled = false;
    // Three rounds however short the run: the value of a timing is its
    // fastest sample of ten or fewer.
    let timed_min = if smoke || mode == Mode::Traced { 1 } else { 3 };
    let timed_walls = rounds(&w, &mut st, timed_s, timed_min, 0, &mut tr, &mut timed);
    if let Some(mb) = host::peak_rss_mb() {
        timed.push("peak_rss_mb", mb);
    }

    let mut traced = Recorder::default();
    if mode != Mode::Timed {
        tr.enabled = true;
        let walls = rounds(&w, &mut st, traced_s, 1, timed_walls.len(), &mut tr, &mut traced);
        extras(&w, &mut st, &mut tr, &mut traced);
        for (span, by_op) in tr.self_time_by_op() {
            let metric =
                metrics::PER_LAYER.iter().find(|m| m.name.strip_suffix("_s") == Some(span));
            if let Some(def) = metric {
                let rounds = by_op.range(..OUTSIDE_ROUNDS).map(|(_, secs)| *secs);
                traced.samples.entry(def.name).or_default().extend(rounds);
            }
        }
        let fast = |series: &[f64]| stats::fast_decile(series, false);
        if let (Some(on), Some(off)) = (fast(&walls), fast(&timed_walls)) {
            traced.push("bench.trace_overhead_frac", (on - off) / off);
        }
        same_search(&timed, &mut traced);
        if let Some(solve) = fast(traced.series("ilp.solve_s")) {
            let inside: f64 = ["ilp.presolve_s", "ilp.root_lp_s"]
                .iter()
                .filter_map(|n| fast(traced.series(n)))
                .sum();
            traced.push("ilp.tree_s", (solve - inside).max(0.0));
        }
    }
    for rec in [&mut timed, &mut traced] {
        if let Some(p) = stats::percentile(rec.series("compile_s"), compile_percentile(rec)) {
            rec.push("core.compile.p90_s", p);
        }
    }

    let mut failures = base.failures.clone();
    failures.extend(timed.failures.iter().chain(&traced.failures).cloned());
    let attempted = base.attempted + timed.attempted + traced.attempted;
    let failed = base.failed + timed.failed + traced.failed;
    for rec in [&mut timed, &mut traced] {
        for (name, series) in &base.samples {
            rec.samples.entry(name).or_default().extend(series);
        }
        for (name, why) in &base.reasons {
            rec.null(name, why.clone());
        }
    }
    Ok(Outcome { timed, traced, tracer: tr, attempted, failed, failures })
}

/// The percentile `core.compile.p90_s` is taken at: 90 with a hundred
/// compile units or more, else the highest with ten samples beyond it.
pub fn compile_percentile(rec: &Recorder) -> f64 {
    stats::pick_percentile(rec.series("compile_s").len()).min(90.0)
}
