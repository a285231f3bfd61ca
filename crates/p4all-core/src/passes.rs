//! Pass manager for the Figure-8 compile pipeline.
//!
//! Each compiler stage — `parse`, `elaborate`, `bounds`, `unroll`,
//! `depgraph`, `encode`, `solve`, `explain`, `extract`, `codegen` — runs
//! as a named pass recorded in a [`CompileTrace`]: wall time, a coarse
//! artifact-size description, and whether the result was served from
//! cache.
//!
//! The *front half* (everything up to and including the dependency graph)
//! depends only on the source text, the target's stage/ALU shape, and the
//! unroll cap — **not** on per-stage memory or PHV size. A [`CompileCtx`]
//! therefore caches those artifacts keyed by a hash of exactly those
//! inputs, so a memory sweep (Figure 12), a repeated compile, or a
//! greedy-baseline run after an ILP run re-executes only `encode` and
//! `solve`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p4all_pisa::TargetSpec;

use crate::bounds::all_upper_bounds;
use crate::depgraph::{build_full, DepGraph};
use crate::elaborate::{elaborate, ProgramInfo};
use crate::ir::{instantiate, Unrolled};
use crate::pipeline::{CompileError, CompileOptions};

/// One executed (or cache-served) pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    pub name: &'static str,
    pub duration: Duration,
    /// True when the artifact came from the front-half cache.
    pub cached: bool,
    /// Coarse artifact-size description, e.g. `"9 instances"`.
    pub artifact: String,
}

/// Per-pass record of one compilation, in execution order.
#[derive(Debug, Clone, Default)]
pub struct CompileTrace {
    pub passes: Vec<PassRecord>,
}

impl CompileTrace {
    /// Append one pass record. Public so downstream drivers can register
    /// phases that run outside `CompileCtx` — e.g. the CLI records the
    /// simulator's native-backend lowering and `rustc` invocation as
    /// `native-gen` / `native-rustc` passes.
    pub fn record(
        &mut self,
        name: &'static str,
        cached: bool,
        duration: Duration,
        artifact: String,
    ) {
        self.passes.push(PassRecord { name, duration, cached, artifact });
    }

    /// Look up a pass by name.
    pub fn pass(&self, name: &str) -> Option<&PassRecord> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// True when the named pass ran and was served from cache.
    pub fn cached(&self, name: &str) -> bool {
        self.pass(name).map(|p| p.cached).unwrap_or(false)
    }

    /// Number of cache-served passes.
    pub fn cache_hits(&self) -> usize {
        self.passes.iter().filter(|p| p.cached).count()
    }

    /// Sum of all pass durations.
    pub fn total(&self) -> Duration {
        self.passes.iter().map(|p| p.duration).sum()
    }

    /// Render the `--timings` table: one row per pass with its share of
    /// the total wall time.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let total = self.total().as_secs_f64().max(1e-12);
        let mut out = String::from("pass timings:\n");
        for p in &self.passes {
            let secs = p.duration.as_secs_f64();
            let _ = writeln!(
                out,
                "  {:<10} {:>9.3}ms {:>5.1}%{}  {}",
                p.name,
                secs * 1e3,
                100.0 * secs / total,
                if p.cached { "  (cached)" } else { "          " },
                p.artifact
            );
        }
        let _ = writeln!(out, "  {:<10} {:>9.3}ms", "total", total * 1e3);
        out
    }
}

/// Front-half artifacts: everything the back half (`encode` onward) needs.
#[derive(Clone)]
pub(crate) struct FrontArtifacts {
    pub info: ProgramInfo,
    pub bounds: BTreeMap<String, usize>,
    pub unrolled: Arc<Unrolled>,
    pub graph: Arc<DepGraph>,
}

/// Cache key over exactly the inputs the front half reads: the source
/// text, the target's stage/ALU shape, and the unroll cap. Per-stage
/// memory and PHV size are deliberately excluded — they only feed the ILP
/// encoding — so memory/PHV sweeps share one front half.
fn front_key(src: &str, target: &TargetSpec, max_unroll: usize) -> u64 {
    let mut h = DefaultHasher::new();
    src.hash(&mut h);
    target.stages.hash(&mut h);
    target.stateful_alus.hash(&mut h);
    target.stateless_alus.hash(&mut h);
    // The cost model's fields are private; its Debug form is canonical.
    format!("{:?}", target.alu_costs).hash(&mut h);
    max_unroll.hash(&mut h);
    h.finish()
}

/// A reusable compile context: options plus the front-half artifact cache.
///
/// [`crate::Compiler`] owns one internally; create one directly (and feed
/// it multiple targets) to share parsed/elaborated/unrolled artifacts
/// across a sweep:
///
/// ```
/// use p4all_core::{CompileCtx, CompileOptions};
/// use p4all_pisa::presets;
///
/// let mut ctx = CompileCtx::new(CompileOptions::default());
/// let src = "header h { bit<32> x; } struct metadata { bit<32> y; }
///            action a() { meta.y = hdr.x; }
///            control Main() { apply { a(); } }";
/// let mut t = presets::paper_example();
/// let first = ctx.compile(src, &t).unwrap();
/// assert_eq!(first.trace.cache_hits(), 0);
/// t.memory_bits *= 2; // memory change: front half is reused
/// let second = ctx.compile(src, &t).unwrap();
/// assert!(second.trace.cached("parse") && second.trace.cached("unroll"));
/// assert!(!second.trace.cached("encode"));
/// ```
pub struct CompileCtx {
    pub options: CompileOptions,
    /// Front-half artifacts keyed by [`front_key`]. A map (not a single
    /// slot) so a joint compile interleaving N tenant sources — or a
    /// driver alternating between programs — keeps every front hot.
    front: HashMap<u64, FrontArtifacts>,
    /// Variable assignment of the previous successful solve on this
    /// context. A parameter sweep (Figure 12) re-encodes an almost
    /// identical model at each point, so the last point's incumbent is
    /// usually feasible for the next and seeds branch-and-bound pruning
    /// from the root. [`CompileCtx::compile`] re-validates it against the
    /// fresh encoding before use, so a stale assignment (different
    /// program, shrunken target) is simply ignored.
    pub(crate) last_incumbent: Option<Vec<f64>>,
}

impl CompileCtx {
    pub fn new(options: CompileOptions) -> Self {
        CompileCtx { options, front: HashMap::new(), last_incumbent: None }
    }

    /// Run (or serve from cache) the front half: `parse` → `elaborate` →
    /// `bounds` → `unroll` → `depgraph`, recording each pass in `trace`.
    pub(crate) fn front(
        &mut self,
        src: &str,
        target: &TargetSpec,
        trace: &mut CompileTrace,
    ) -> Result<FrontArtifacts, CompileError> {
        let key = front_key(src, target, self.options.max_unroll);
        if let Some(f) = self.front.get(&key) {
            let f = f.clone();
            trace.record("parse", true, Duration::ZERO, describe_program(&f.info));
            trace.record("elaborate", true, Duration::ZERO, describe_info(&f.info));
            trace.record("bounds", true, Duration::ZERO, describe_bounds(&f.bounds));
            trace.record("unroll", true, Duration::ZERO, describe_unrolled(&f.unrolled));
            trace.record("depgraph", true, Duration::ZERO, describe_graph(&f.graph));
            return Ok(f);
        }

        let t = Instant::now();
        let program = Arc::new(p4all_lang::parse(src)?);
        let parse_artifact = format!(
            "{} actions, {} controls, {} registers",
            program.actions.len(),
            program.controls.len(),
            program.registers.len()
        );
        trace.record("parse", false, t.elapsed(), parse_artifact);

        let t = Instant::now();
        let info = elaborate(&program)?;
        trace.record("elaborate", false, t.elapsed(), describe_info(&info));

        let t = Instant::now();
        let bounds = all_upper_bounds(&info, target, self.options.max_unroll)?;
        trace.record("bounds", false, t.elapsed(), describe_bounds(&bounds));

        let t = Instant::now();
        let unrolled = Arc::new(instantiate(&info, &bounds)?);
        trace.record("unroll", false, t.elapsed(), describe_unrolled(&unrolled));

        let t = Instant::now();
        let graph = Arc::new(build_full(&unrolled));
        trace.record("depgraph", false, t.elapsed(), describe_graph(&graph));

        let f = FrontArtifacts { info, bounds, unrolled, graph };
        // Bound the cache: a runaway sweep over many distinct sources
        // must not hold every front forever.
        if self.front.len() >= 64 {
            self.front.clear();
        }
        self.front.insert(key, f.clone());
        Ok(f)
    }
}

fn describe_program(info: &ProgramInfo) -> String {
    format!(
        "{} actions, {} controls, {} registers",
        info.program.actions.len(),
        info.program.controls.len(),
        info.program.registers.len()
    )
}

fn describe_info(info: &ProgramInfo) -> String {
    format!("{} symbolics", info.roles.len())
}

fn describe_bounds(bounds: &BTreeMap<String, usize>) -> String {
    format!("{} loop bounds", bounds.len())
}

fn describe_unrolled(u: &Unrolled) -> String {
    format!("{} instances", u.instances.len())
}

fn describe_graph(g: &DepGraph) -> String {
    format!(
        "{} groups, {} precedence, {} exclusion edges",
        g.nodes.len(),
        g.precedence.len(),
        g.exclusion.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4all_pisa::presets;

    #[test]
    fn front_key_ignores_memory_and_phv() {
        let t1 = presets::paper_eval(1 << 10);
        let mut t2 = presets::paper_eval(1 << 20);
        t2.phv_bits = 8192;
        assert_eq!(front_key("x", &t1, 64), front_key("x", &t2, 64));
    }

    #[test]
    fn front_key_sees_stage_shape_and_source() {
        let t = presets::paper_example();
        let mut wider = t.clone();
        wider.stages += 1;
        assert_ne!(front_key("x", &t, 64), front_key("x", &wider, 64));
        assert_ne!(front_key("x", &t, 64), front_key("y", &t, 64));
        assert_ne!(front_key("x", &t, 64), front_key("x", &t, 32));
    }

    #[test]
    fn trace_renders_cached_markers() {
        let mut tr = CompileTrace::default();
        tr.record("parse", true, Duration::from_millis(1), "1 action".into());
        tr.record("encode", false, Duration::from_millis(2), "10 rows".into());
        let s = tr.render();
        assert!(s.contains("(cached)"), "{s}");
        assert!(s.contains("encode"), "{s}");
        assert_eq!(tr.cache_hits(), 1);
        assert!(tr.cached("parse") && !tr.cached("encode"));
    }
}
