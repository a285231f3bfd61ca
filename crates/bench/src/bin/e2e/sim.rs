//! The replay phase: seeded traces, table population, one replay pass on
//! a chosen engine, and the check of every pass against the tree
//! interpreter's register state on the same packets.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

use p4all_lang::ast::Program;
use p4all_sim::{Backend, Phv, SimStats, Switch};
use p4all_workloads::zipf_trace;

use crate::compile::Compiled;
use crate::host;
use crate::manifest::Workload;
use crate::record::{Op, Recorder};
use crate::spans::Tracer;

/// SoA batch width of the batched rows: wide enough to amortise the
/// gather, small enough that a batch's columns stay in L1.
pub const BATCH_WIDTH: usize = 64;

/// Header values of a trace, one column per header field of the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub fields: Vec<String>,
    pub cols: Vec<Vec<u64>>,
    /// Each column's keys by popularity, worked out on first use: set-up
    /// pays for it, so the cold path's table population does not.
    ranked: Vec<OnceCell<Vec<u64>>>,
}

impl Trace {
    /// Every header field gets its own seeded Zipf draw over `keys` keys,
    /// so the same seed gives the same bytes and nothing else does.
    pub fn generate(fields: &[String], keys: u64, alpha: f64, packets: usize, seed: u64) -> Trace {
        let cols = (0..fields.len() as u64)
            .map(|i| {
                let t = zipf_trace(keys, alpha, packets, seed.wrapping_add(i << 32));
                t.packets.iter().map(|p| p.key).collect()
            })
            .collect();
        Trace::new(fields.to_vec(), cols)
    }

    fn new(fields: Vec<String>, cols: Vec<Vec<u64>>) -> Trace {
        let ranked = cols.iter().map(|_| OnceCell::new()).collect();
        Trace { fields, cols, ranked }
    }

    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    pub fn column(&self, field: &str) -> Option<&[u64]> {
        self.fields.iter().position(|f| f == field).map(|i| self.cols[i].as_slice())
    }

    /// Keys of `field`, most frequent first (ties by key, so the order is
    /// a function of the trace alone).
    fn ranked_keys(&self, field: &str) -> &[u64] {
        let Some(i) = self.fields.iter().position(|f| f == field) else {
            return &[];
        };
        self.ranked[i].get_or_init(|| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &k in &self.cols[i] {
                *counts.entry(k).or_default() += 1;
            }
            let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
            ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.into_iter().map(|(k, _)| k).collect()
        })
    }
}

/// The PHV form `run_trace` replays.
pub fn build_phvs(sw: &Switch, trace: &Trace) -> Result<Vec<Phv>, String> {
    let mut fields: Vec<(&str, u64)> = trace.fields.iter().map(|f| (f.as_str(), 0)).collect();
    (0..trace.len())
        .map(|p| {
            for (slot, col) in fields.iter_mut().zip(&trace.cols) {
                slot.1 = col[p];
            }
            sw.make_packet(&fields).map_err(|e| e.to_string())
        })
        .collect()
}

/// Value the control plane stores for a cached key.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Every `(slice, index)` of the value store, slice-major.
pub fn kv_slots(sw: &Switch, kv_register: &str) -> Vec<(usize, usize)> {
    (0..sw.register_instances(kv_register))
        .flat_map(|slice| {
            let cells = sw.register_cells(kv_register, slice).unwrap_or(0);
            (0..cells).map(move |idx| (slice, idx))
        })
        .collect()
}

/// A built switch and what the control plane has put into it: needed to
/// write register values back after a reset, and to predict table hits.
pub struct Loaded {
    pub sw: Switch,
    kv_keys: HashSet<u64>,
    values: Vec<(usize, usize, u64)>,
}

impl Loaded {
    /// `Switch::build` for a compiled program; nothing installed yet.
    pub fn build(c: &Compiled, tr: &mut Tracer) -> Result<Loaded, String> {
        let built = tr.leaf("sim.build", || Switch::build(&c.concrete, &c.program)).0;
        Ok(Loaded {
            sw: built.map_err(|e| e.to_string())?,
            kv_keys: HashSet::new(),
            values: Vec::new(),
        })
    }

    /// Install the hottest keys in the cache table (with their values) and
    /// permit every other VLAN by popularity, so hit and miss paths both
    /// run. `fill` is the share of the value store, and of the ACL's
    /// capacity, used.
    pub fn populate(
        &mut self,
        program: &Program,
        w: &Workload,
        trace: &Trace,
    ) -> Result<(), String> {
        let sw = &mut self.sw;
        if let Some(kv) = &w.kv {
            let slots = kv_slots(sw, &kv.kv_register);
            let take = (slots.len() as f64 * w.fill) as usize;
            for (&key, &(slice, idx)) in
                trace.ranked_keys(&kv.key_field).iter().zip(&slots).take(take)
            {
                sw.write_register(&kv.kv_register, slice, idx, value_of(key))
                    .map_err(|e| e.to_string())?;
                sw.install_entry(
                    &kv.table,
                    vec![key],
                    &kv.hit_action,
                    &[(kv.slice_meta.as_str(), slice as u64), (kv.idx_meta.as_str(), idx as u64)],
                )
                .map_err(|e| e.to_string())?;
                self.kv_keys.insert(key);
                self.values.push((slice, idx, value_of(key)));
            }
        }
        if let Some(vlan) = &w.vlan {
            let size = program.tables.iter().find(|t| t.name == vlan.table).map_or(0, |t| t.size);
            let take = (size as f64 * w.fill) as usize;
            for &key in trace.ranked_keys(&vlan.key_field).iter().step_by(2).take(take) {
                sw.install_entry(&vlan.table, vec![key], &vlan.permit_action, &[])
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Back to the state population left. `Switch::reset` zeroes every
    /// register, the control plane's value writes included; write them again.
    fn reset(&mut self, w: &Workload) {
        self.sw.reset();
        if let Some(kv) = &w.kv {
            for &(slice, idx, value) in &self.values {
                let _ = self.sw.write_register(&kv.kv_register, slice, idx, value);
            }
        }
    }
}

/// Instructions in the lowered program (`dump_bytecode` prints one per
/// indented line).
pub fn bytecode_instrs(sw: &Switch) -> usize {
    sw.dump_bytecode().lines().filter(|l| l.starts_with("  ")).count()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Interp,
    Bytecode,
    Native,
    Batched,
    NativeBatched,
    Sharded2,
}

impl Engine {
    fn backend(self) -> Backend {
        match self {
            Engine::Interp => Backend::Interp,
            Engine::Bytecode | Engine::Batched | Engine::Sharded2 => Backend::Compiled,
            Engine::Native | Engine::NativeBatched => Backend::Native,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Engine::Interp => "sim.replay.interp",
            Engine::Bytecode => "sim.replay.bytecode",
            Engine::Native => "sim.replay.native",
            Engine::Batched => "sim.replay.batched",
            Engine::NativeBatched => "sim.replay.native_batched",
            Engine::Sharded2 => "sim.replay.sharded2",
        }
    }
}

/// Register state after a pass: name, instance, stage, cells.
pub type Snapshot = Vec<(String, usize, usize, Vec<u64>)>;

/// One replay of `phvs` on `engine` from freshly reset state, checked:
/// nothing dropped, and register state equal to `oracle` (the tree
/// interpreter's on the same packets). The first interpreter pass makes
/// the oracle.
pub fn pass(
    loaded: &mut Loaded,
    w: &Workload,
    phvs: &[Phv],
    engine: Engine,
    oracle: &mut Option<Snapshot>,
    tr: &mut Tracer,
    rec: &mut Recorder,
) -> Option<SimStats> {
    if engine == Engine::Sharded2 && host::cores() < 2 {
        for row in ["sim.sharded2.pkts_per_s", "sim.sharded2.occupancy"] {
            rec.null(row, "needs 2 threads, the host has 1 core");
        }
        return None;
    }
    let mut op = Op::new(format!("replay on {engine:?}"));
    loaded.reset(w);
    let sw = &mut loaded.sw;
    sw.set_backend(engine.backend());
    let batched = matches!(engine, Engine::Batched | Engine::NativeBatched);
    sw.set_batch_width(if batched { BATCH_WIDTH } else { 0 });
    let threads = if engine == Engine::Sharded2 { 2 } else { 1 };
    let (stats, _) = tr.leaf(engine.span(), || sw.run_trace(phvs, threads));
    sw.set_batch_width(0);
    sw.set_backend(Backend::Compiled);

    op.expect(stats.dropped == 0, || format!("{} packets dropped", stats.dropped));
    let snapshot = sw.registers_snapshot();
    match oracle {
        Some(want) => {
            op.expect(snapshot == *want, || "registers differ from the interpreter's".into())
        }
        None if engine == Engine::Interp => *oracle = Some(snapshot),
        None => op.fail("no interpreter pass to compare with"),
    }
    rec.finish(op).then_some(stats)
}

/// Record a pass under its metric names.
pub fn record_pass(engine: Engine, stats: &SimStats, rec: &mut Recorder) {
    let pps = stats.pkts_per_sec();
    let ns = stats.elapsed.as_secs_f64() * 1e9 / stats.packets.max(1) as f64;
    match engine {
        Engine::Interp => {
            rec.push("interp_pkts_per_s", pps);
            rec.push("sim.interp.ns_per_pkt", ns);
        }
        Engine::Bytecode => {
            rec.push("pkts_per_s", pps);
            rec.push("sim.bytecode.ns_per_pkt", ns);
            let total = stats.total_cost().max(1) as f64;
            rec.push("sim.instrs_per_pkt", total / stats.packets.max(1) as f64);
            let max = stats.stage_cost.iter().copied().max().unwrap_or(0) as f64;
            rec.push("sim.stage_cost_share_max", max / total);
        }
        Engine::Native => {
            rec.push("native_pkts_per_s", pps);
            rec.push("sim.native.ns_per_pkt", ns);
        }
        Engine::Batched => {
            rec.push("sim.batch_width_effective", stats.batch_width as f64);
            // A width of 0 means the batch gate declined and the scalar
            // loop ran: that is not a batched measurement.
            if stats.batch_width == 0 {
                rec.null("sim.batched.pkts_per_s", "batch gate declined: batch_width came back 0");
            } else {
                rec.push("sim.batched.pkts_per_s", pps);
            }
        }
        Engine::NativeBatched => {
            if stats.batch_width == 0 {
                rec.null(
                    "sim.native_batched.pkts_per_s",
                    "batched entry did not run: batch_width came back 0",
                );
            } else {
                rec.push("sim.native_batched.pkts_per_s", pps);
            }
        }
        Engine::Sharded2 => {
            if stats.threads < 2 {
                rec.null(
                    "sim.sharded2.pkts_per_s",
                    format!("replay ran on {} shard", stats.threads),
                );
            } else {
                rec.push("sim.sharded2.pkts_per_s", pps);
                rec.push("sim.sharded2.occupancy", stats.overlap_occupancy);
            }
        }
    }
}

/// Generate, compile and load the native engine; records the prepare
/// time and its split. False (with reasons recorded) when there is no
/// `rustc` to run.
pub fn prepare_native(sw: &mut Switch, tr: &mut Tracer, rec: &mut Recorder) -> bool {
    const ROWS: [&str; 8] = [
        "native_pkts_per_s",
        "sim.native.prep_s",
        "sim.native.ns_per_pkt",
        "sim.native_batched.pkts_per_s",
        "sim.native.gen_s",
        "sim.native.rustc_s",
        "sim.native.dlopen_s",
        "ctl.native.install_per_s",
    ];
    if !p4all_sim::rustc_available() {
        for row in ROWS {
            rec.null(row, "no rustc on PATH");
        }
        return false;
    }
    let mut op = Op::new("prepare_native");
    let (report, secs) = tr.leaf("sim.native.prepare", || sw.prepare_native());
    match &report {
        Ok(r) => {
            let (gen, rustc) = (r.gen_time.as_secs_f64(), r.rustc_time.as_secs_f64());
            rec.push("sim.native.prep_s", secs);
            rec.push("sim.native.gen_s", gen);
            rec.push("sim.native.rustc_s", rustc);
            rec.push("sim.native.dlopen_s", (secs - gen - rustc).max(0.0));
            rec.push("sim.native.source_bytes", r.source_bytes as f64);
        }
        Err(e) => op.fail(e.to_string()),
    }
    rec.finish(op)
}

/// The per-packet API over a prefix of the trace: packets per second, and
/// the share of packets that hit the cache table, which must equal what
/// the installed keys predict.
pub fn per_packet(
    loaded: &mut Loaded,
    w: &Workload,
    trace: &Trace,
    tr: &mut Tracer,
    rec: &mut Recorder,
) {
    let n = trace.len().min(50_000);
    let mut op = Op::new("per-packet API");
    loaded.reset(w);
    let sw = &mut loaded.sw;
    let hit_meta = w.kv.as_ref().map(|kv| kv.hit_meta.as_str());
    let (result, secs) = tr.leaf("sim.run_packet", || -> Result<u64, String> {
        let mut hits = 0;
        for p in 0..n {
            sw.begin_packet();
            for (field, col) in trace.fields.iter().zip(&trace.cols) {
                sw.set_header(field, col[p]).map_err(|e| e.to_string())?;
            }
            sw.run_packet().map_err(|e| e.to_string())?;
            if let Some(m) = hit_meta {
                hits += sw.meta(m).map_err(|e| e.to_string())?;
            }
        }
        Ok(hits)
    });
    match result {
        Err(e) => op.fail(e),
        Ok(hits) => {
            rec.push("sim.run_packet_per_s", n as f64 / secs);
            if let Some(kv) = &w.kv {
                let keys = trace.column(&kv.key_field).unwrap_or(&[]);
                let predicted =
                    keys[..n].iter().filter(|k| loaded.kv_keys.contains(k)).count() as u64;
                op.expect(hits == predicted, || {
                    format!("{hits} table hits, {predicted} predicted")
                });
                rec.push("sim.table_hit_frac", hits as f64 / n.max(1) as f64);
            }
        }
    }
    rec.finish(op);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> Vec<String> {
        vec!["key".to_string(), "vlan".to_string()]
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = Trace::generate(&fields(), 1_000, 0.99, 5_000, 7);
        let b = Trace::generate(&fields(), 1_000, 0.99, 5_000, 7);
        let c = Trace::generate(&fields(), 1_000, 0.99, 5_000, 11);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5_000);
        // Fields draw independently: a packet's key says nothing of its VLAN.
        assert_ne!(a.cols[0], a.cols[1]);
        assert!(a.cols.iter().flatten().all(|&k| k < 1_000));
    }

    #[test]
    fn ranking_is_by_count_then_key() {
        let t = Trace::new(vec!["key".into()], vec![vec![5, 3, 5, 9, 3, 5, 1]]);
        assert_eq!(t.ranked_keys("key"), [5, 3, 1, 9]);
        assert!(t.ranked_keys("absent").is_empty());
        assert_eq!(t.column("key").unwrap().len(), 7);
    }
}
