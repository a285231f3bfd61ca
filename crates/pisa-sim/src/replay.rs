//! Batched, sharded trace replay.
//!
//! [`Switch::run_trace`] replays a whole packet trace through the
//! pipeline at once. With one thread it runs in place (honoring the
//! selected backend); with `threads > 1` it shards the trace by **flow
//! hash** over the header fields — mirroring how a real switch's CRC
//! partitions flows across pipes — and executes the shards on worker
//! threads with private copies of the register file. The shard count is
//! capped at `available_parallelism`: oversubscription buys nothing (the
//! extra gather and merge work used to cost ~2% versus sequential on a
//! small box), so an oversubscribed request degrades to the capped
//! configuration instead of below the sequential path.
//!
//! **SoA batches** ([`Switch::set_batch_width`]): when a batch width is
//! requested, the bytecode engine gathers packets into column-major
//! structure-of-arrays batches and runs the lanes one after another, each
//! to completion, through the same dispatch loop the scalar path uses
//! (`compiled::run_batch`). Lane order is trace order, so batched replay
//! is scalar replay on a transposed buffer: a faulting lane rolls back its
//! own writes and is counted as a drop like any scalar packet, and every
//! program batches (`tests/batch_equivalence.rs` and the fuzz oracle hold
//! the two bit-identical). The native backend instead uses its batched FFI
//! entry point (`p4n_run_batch`), amortizing the per-packet call and
//! fault-word traffic.
//!
//! The sharded front end is **pipelined**: the main thread flow-hashes
//! and gathers chunk `k + 1` into contiguous per-worker segments while
//! the workers execute chunk `k` (bounded channels provide the
//! backpressure). Each packet is flow-hashed to its shard — one shard per
//! worker — and its slot vector copied into that worker's segment in
//! trace order, so per-flow packet order is preserved and per-flow
//! register state stays worker-private by construction. Workers stream
//! contiguous segments with unit stride — no per-packet pointer chasing
//! through the heap-scattered `Phv` list.
//!
//! Merging is a **join and delta-sum**: each worker, when its channel
//! closes, returns its register deltas (`worker − base`, wrapping), drop
//! count, stage costs and final PHV, and the main thread joins the workers
//! in spawn order and folds each result as it arrives — worker `k`'s fold
//! overlaps worker `k + 1`'s execution. The folded result is the delta-sum
//! rule: for every register cell, `merged = base + Σ_w (worker_w − base)`
//! (wrapping, element-masked), exact for the two state classes elastic
//! data planes use:
//!
//! - **mergeable counters** (count-min rows, Bloom/counting-Bloom cells):
//!   every update is an increment, and increments commute — the summed
//!   deltas equal the sequential count;
//! - **per-flow state** (key/value slots, per-flow trackers): the cell
//!   index derives from the flow key, every packet of a flow lands in the
//!   same shard, so at most one worker has a nonzero delta.
//!
//! A per-packet fault (division by zero, out-of-bounds index) drops just
//! that packet: its register writes are rolled back from the undo log and
//! [`SimStats::dropped`] counts it — the trace keeps going, as a real
//! pipeline would keep forwarding.

use std::time::{Duration, Instant};

use crate::compiled::{self, BatchCtx, ExecCtx};
use crate::interp::{splitmix, Backend, RegUndo, Switch};
use crate::state::{gather_lane, scatter_lane, Phv, RegState};

/// Packets hashed and gathered per pipeline step of the sharded front
/// end: small enough that the gather of chunk `k + 1` overlaps the
/// execution of chunk `k`, large enough to amortize the channel hop.
const PIPELINE_CHUNK: usize = 4096;

/// Telemetry of one [`Switch::run_trace`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Packets offered (processed + dropped).
    pub packets: u64,
    /// Packets dropped on a per-packet fault, with their writes undone.
    pub dropped: u64,
    /// Shards executed (the request is capped at `available_parallelism`
    /// and the trace length; the merged result is identical either way).
    pub threads: usize,
    /// SoA batch width the replay actually executed with: `0` means the
    /// scalar per-packet loop ran — no width was requested
    /// ([`Switch::set_batch_width`]), or the engine has no batch mode (the
    /// interpreter; a native engine that failed to prepare).
    pub batch_width: usize,
    /// Fraction of the replay workers' wall-clock spent executing
    /// packets (versus waiting on the pipelined gather front end),
    /// averaged over workers. `1.0` for single-threaded replay.
    pub overlap_occupancy: f64,
    /// Wall-clock of the replay (excludes trace construction).
    pub elapsed: Duration,
    /// Instructions (bytecode) / statements (interpreter) executed per
    /// stage, summed over all packets and workers: where the pipeline's
    /// cost concentrates.
    pub stage_cost: Vec<u64>,
}

impl SimStats {
    /// Packets per second of wall-clock.
    pub fn pkts_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.packets as f64 / secs
        } else {
            0.0
        }
    }

    /// Total per-stage cost (all stages).
    pub fn total_cost(&self) -> u64 {
        self.stage_cost.iter().sum()
    }
}

/// What one sharded-replay worker returns when it finishes — everything
/// the merge needs.
struct ShardDelta {
    /// Per register, per cell: `worker − base` (wrapping).
    deltas: Vec<Vec<u64>>,
    dropped: u64,
    stage_cost: Vec<u64>,
    final_phv: Vec<u64>,
    /// Time spent executing packets (vs waiting on the front end).
    busy: Duration,
    /// Worker lifetime, spawn to return.
    wall: Duration,
}

/// One replay worker: a private register file plus all per-packet scratch.
struct Worker<'a> {
    prog: &'a compiled::CompiledProgram,
    ctables: &'a [crate::flat_table::Table],
    regs: Vec<RegState>,
    cur: Phv,
    ctx: ExecCtx,
    bctx: BatchCtx,
    /// Effective SoA batch width (`>= 2` selects the batched path).
    width: usize,
    undo: Vec<RegUndo>,
    stage_cost: Vec<u64>,
    dropped: u64,
}

impl<'a> Worker<'a> {
    fn new(
        prog: &'a compiled::CompiledProgram,
        ctables: &'a [crate::flat_table::Table],
        regs: Vec<RegState>,
        masks: &[u64],
        stages: usize,
        width: usize,
    ) -> Worker<'a> {
        Worker {
            prog,
            ctables,
            regs,
            cur: Phv::new(masks.to_vec()),
            ctx: ExecCtx::for_program(prog),
            bctx: BatchCtx::default(),
            width,
            undo: Vec::new(),
            stage_cost: vec![0; stages],
            dropped: 0,
        }
    }

    /// Run `rows` — one input slot vector per packet, in trace order —
    /// through the scalar trace loop, or in SoA batches of up to `width`
    /// lanes.
    fn run_rows<'r>(&mut self, mut rows: impl ExactSizeIterator<Item = &'r [u64]>) {
        if self.width < 2 {
            self.dropped += compiled::run_trace(
                self.prog,
                self.ctables,
                &mut self.regs,
                &mut self.cur,
                &mut self.ctx,
                &mut self.undo,
                &mut self.stage_cost,
                rows,
            );
            return;
        }
        let stride = self.cur.masks.len();
        while rows.len() > 0 {
            let n = self.width.min(rows.len());
            self.bctx.prepare(self.prog, stride, n);
            for (lane, slots) in rows.by_ref().take(n).enumerate() {
                scatter_lane(&mut self.bctx.slots, n, lane, slots);
            }
            self.dropped += compiled::run_batch(
                self.prog,
                self.ctables,
                &mut self.regs,
                &self.cur.masks,
                n,
                &mut self.bctx,
                &mut self.undo,
                &mut self.stage_cost,
            );
            gather_lane(&self.bctx.slots, n, n - 1, &mut self.cur.slots);
        }
    }
}

impl Switch {
    /// The SoA batch width replay executes with: widths below 2 are the
    /// scalar loop.
    fn effective_batch_width(&self) -> usize {
        if self.batch_width >= 2 {
            self.batch_width
        } else {
            0
        }
    }

    /// Replay `trace` (inputs built with [`Switch::make_packet`]) and
    /// return throughput + drop + per-stage-cost telemetry. `threads = 0`
    /// uses every available core; `threads = 1` runs in place with the
    /// selected backend; `threads > 1` always runs the bytecode engine
    /// (the interpreter exists as the single-threaded oracle). Requests
    /// beyond `available_parallelism` are capped — oversubscription never
    /// degrades replay below the sequential path.
    ///
    /// Register state after the call reflects the whole trace (sharded
    /// runs are merged by the delta-sum rule — see the module docs for
    /// when that is exact). The working PHV afterwards is the final PHV
    /// of whichever packet ran last, so per-packet PHV observations only
    /// make sense single-threaded.
    pub fn run_trace(&mut self, trace: &[Phv], threads: usize) -> SimStats {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let threads = match threads {
            0 => cores,
            n => n,
        };
        // Never oversubscribe the machine: more shards than cores buys
        // nothing (same merged result) and the extra gather + merge work
        // used to cost ~2% versus the sequential path. A program without
        // PHV slots has nothing to flow-hash and runs in place.
        let threads =
            if self.masks.is_empty() { 1 } else { threads.min(cores).min(trace.len()).max(1) };
        self.stage_cost.iter_mut().for_each(|c| *c = 0);
        let start = Instant::now();

        let width = self.effective_batch_width();
        let mut dropped = 0u64;
        let mut used_width = 0usize;
        let mut occupancy = 1.0f64;
        if threads > 1 {
            used_width = width;
            (dropped, occupancy) = self.run_trace_sharded(trace, threads);
        } else if self.backend == Backend::Compiled {
            used_width = width;
            dropped = self.run_trace_compiled(trace, width);
        } else {
            let batched = if self.backend == Backend::Native && width >= 2 {
                self.run_trace_native_batched(trace, width)
            } else {
                None
            };
            if let Some(d) = batched {
                used_width = width;
                dropped = d;
            } else {
                for input in trace {
                    self.cur.slots.copy_from_slice(&input.slots);
                    // `run_packet` rolls the faulting packet's register
                    // writes back before returning the error.
                    if self.run_packet().is_err() {
                        dropped += 1;
                    }
                }
            }
        }

        SimStats {
            packets: trace.len() as u64,
            dropped,
            threads,
            batch_width: used_width,
            overlap_occupancy: occupancy,
            elapsed: start.elapsed(),
            stage_cost: self.stage_cost.clone(),
        }
    }

    /// Single-thread replay on the bytecode engine, scalar (`width` 0) or
    /// in SoA batches: a [`Worker`] around the live register file.
    fn run_trace_compiled(&mut self, trace: &[Phv], width: usize) -> u64 {
        let regs = std::mem::take(&mut self.registers);
        let stages = self.stage_cost.len();
        let mut worker =
            Worker::new(&self.compiled, &self.ctables, regs, &self.masks, stages, width);
        worker.run_rows(trace.iter().map(|p| p.slots.as_slice()));
        self.registers = worker.regs;
        self.stage_cost = worker.stage_cost;
        if !trace.is_empty() {
            self.cur.slots = worker.cur.slots;
        }
        worker.dropped
    }

    /// Sharded replay: pipelined hash + gather on the main thread,
    /// execution on `workers` threads, join and delta-sum for the merge.
    /// Returns `(dropped, overlap occupancy)`.
    fn run_trace_sharded(&mut self, trace: &[Phv], workers: usize) -> (u64, f64) {
        use std::sync::mpsc;

        let header_count = self.header_count;
        let stride = self.masks.len();
        let base = self.registers.clone();
        let prog = &self.compiled;
        let ctables = &self.ctables;
        let masks = &self.masks;
        let stages = self.stage_cost.len();
        let width = self.effective_batch_width();
        let registers = &mut self.registers;
        let stage_cost = &mut self.stage_cost;
        let final_phv = &mut self.cur;
        let base_ref = &base;

        let mut dropped = 0u64;
        let mut occ_sum = 0.0f64;
        std::thread::scope(|scope| {
            // Bounded channels give the pipeline its backpressure: the
            // main thread gathers at most a couple of chunks ahead of the
            // slowest worker.
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = mpsc::sync_channel::<Vec<u64>>(2);
                senders.push(tx);
                handles.push(scope.spawn(move || {
                    // Build the worker on its own thread so the register
                    // copy and scratch are allocated (and first-touched)
                    // thread-locally.
                    let spawned = Instant::now();
                    let mut busy = Duration::ZERO;
                    let mut worker =
                        Worker::new(prog, ctables, base_ref.to_vec(), masks, stages, width);
                    while let Ok(seg) = rx.recv() {
                        let t = Instant::now();
                        worker.run_rows(seg.chunks_exact(stride));
                        busy += t.elapsed();
                    }
                    ShardDelta {
                        deltas: worker
                            .regs
                            .iter()
                            .enumerate()
                            .map(|(ri, r)| {
                                r.cells
                                    .iter()
                                    .zip(&base_ref[ri].cells)
                                    .map(|(wv, bv)| wv.wrapping_sub(*bv))
                                    .collect()
                            })
                            .collect(),
                        dropped: worker.dropped,
                        stage_cost: worker.stage_cost,
                        final_phv: worker.cur.slots,
                        busy,
                        wall: spawned.elapsed(),
                    }
                }));
            }

            // Pipelined front end: flow-hash and gather chunk k + 1 into
            // contiguous per-worker segments while the workers execute
            // chunk k. Packets append in trace order, so per-flow order
            // is preserved inside each worker.
            for chunk in trace.chunks(PIPELINE_CHUNK) {
                let per_worker =
                    (chunk.len() / workers + chunk.len() / (4 * workers) + 16) * stride;
                let mut segs: Vec<Vec<u64>> =
                    (0..workers).map(|_| Vec::with_capacity(per_worker)).collect();
                for p in chunk {
                    let mut h = 0xa076_1d64_78bd_642fu64;
                    for &v in &p.slots[..header_count] {
                        h = splitmix(h ^ v);
                    }
                    segs[(h % workers as u64) as usize].extend_from_slice(&p.slots);
                }
                for (w, seg) in segs.into_iter().enumerate() {
                    if !seg.is_empty() {
                        senders[w].send(seg).expect("replay worker hung up");
                    }
                }
            }
            drop(senders); // close the channels: workers drain and return

            // Join in spawn order and fold each delta as it arrives:
            // worker k's fold overlaps worker k + 1's execution.
            for handle in handles {
                let d = handle.join().expect("replay worker panicked");
                for (ri, cells) in d.deltas.iter().enumerate() {
                    let reg = &mut registers[ri];
                    for (ci, delta) in cells.iter().enumerate() {
                        reg.cells[ci] = reg.cells[ci].wrapping_add(*delta) & reg.elem_mask;
                    }
                }
                dropped += d.dropped;
                for (s, c) in d.stage_cost.iter().enumerate() {
                    stage_cost[s] += c;
                }
                // Expose *some* final PHV so post-trace metadata
                // reads don't see stale single-thread state.
                final_phv.slots.copy_from_slice(&d.final_phv);
                occ_sum += if d.wall > Duration::ZERO {
                    (d.busy.as_secs_f64() / d.wall.as_secs_f64()).min(1.0)
                } else {
                    1.0
                };
            }
        });

        (dropped, occ_sum / workers as f64)
    }

    /// Accumulated per-stage execution cost since the last `run_trace`
    /// reset (also grows across plain `run_packet` calls).
    pub fn stage_cost(&self) -> &[u64] {
        &self.stage_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Backend, SimError};
    use p4all_core::Compiler;
    use p4all_pisa::presets;

    fn build(src: &str) -> Switch {
        let c = Compiler::new(presets::paper_eval(1 << 14)).compile(src).unwrap();
        let program = p4all_lang::parse(src).unwrap();
        Switch::build(&c.concrete, &program).unwrap()
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    const CMS: &str = r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= 2 && rows <= 2;
        assume cols >= 16 && cols <= 16;
        optimize rows * cols;
        header pkt { bit<32> key; }
        struct metadata { bit<32>[rows] index; bit<32>[rows] count; bit<32> min; }
        register<bit<32>>[cols][rows] cms;
        action incr()[int i] {
            meta.index[i] = hash(hdr.key, cols);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
            meta.count[i] = cms[i][meta.index[i]];
        }
        action set_min()[int i] { meta.min = meta.count[i]; }
        control sketch() { apply { for (i < rows) { incr()[i]; } } }
        control minimum() {
            apply {
                for (i < rows) {
                    if (meta.count[i] < meta.min || meta.min == 0) { set_min()[i]; }
                }
            }
        }
        control Main() { apply { sketch.apply(); minimum.apply(); } }
    "#;

    /// Two independent registers: `a` counts every packet, `b[hdr.i]`
    /// faults when `i` is out of bounds — the faulting packet's increment
    /// of `a` must be rolled back. `a` is written by one statement and
    /// read back by another, so a packet observes every earlier packet's
    /// write: execution order across packets is visible in `meta.t`.
    const FAULTY_IDX: &str = r#"
        header h { bit<32> x; bit<32> i; }
        struct metadata { bit<32> t; }
        register<bit<32>>[4] a;
        register<bit<32>>[4] b;
        action first() { a[0] = a[0] + 1; meta.t = a[0]; }
        action second() { b[hdr.i] = hdr.x; }
        control Main() { apply { first(); second(); } }
    "#;

    /// `q = x / y` faults on y == 0, after `a` was bumped.
    const FAULTY_DIV: &str = r#"
        header h { bit<32> x; bit<32> y; }
        struct metadata { bit<32> q; }
        register<bit<32>>[4] a;
        action tally() { a[0] = a[0] + 1; }
        action divide() { meta.q = hdr.x / hdr.y; }
        control Main() { apply { tally(); divide(); } }
    "#;

    fn cms_trace(sw: &Switch, n: u64) -> Vec<Phv> {
        (0..n).map(|k| sw.make_packet(&[("key", k % 7)]).unwrap()).collect()
    }

    #[test]
    fn run_trace_matches_per_packet_execution() {
        let mut a = build(CMS);
        a.set_backend(Backend::Interp);
        for k in 0..50u64 {
            a.begin_packet();
            a.set_header("key", k % 7).unwrap();
            a.run_packet().unwrap();
        }
        let mut b = build(CMS);
        let trace = cms_trace(&b, 50);
        let stats = b.run_trace(&trace, 1);
        assert_eq!(stats.packets, 50);
        assert_eq!(stats.dropped, 0);
        assert_eq!(a.registers_snapshot(), b.registers_snapshot());
        assert_eq!(a.phv_snapshot(), b.phv_snapshot());
    }

    #[test]
    fn sharded_replay_merges_sketch_counters_exactly() {
        let mut seq = build(CMS);
        let trace = cms_trace(&seq, 400);
        seq.run_trace(&trace, 1);
        for threads in [2, 4, 8] {
            let mut par = build(CMS);
            let trace = cms_trace(&par, 400);
            let stats = par.run_trace(&trace, threads);
            assert_eq!(stats.threads, threads.min(cores()));
            assert_eq!(
                seq.registers_snapshot(),
                par.registers_snapshot(),
                "merged counters diverge at {threads} threads"
            );
        }
    }

    /// Satellite of the 8-thread regression fix: an oversubscribed
    /// request is capped at `available_parallelism` (never more shards
    /// than cores), so it can never degrade below the sequential path.
    #[test]
    fn oversubscribed_request_caps_at_available_parallelism() {
        let mut seq = build(CMS);
        let trace = cms_trace(&seq, 400);
        seq.run_trace(&trace, 1);
        let mut par = build(CMS);
        let trace = cms_trace(&par, 400);
        let stats = par.run_trace(&trace, 64);
        assert_eq!(stats.threads, 64.min(cores()));
        assert!(stats.threads <= cores(), "oversubscribed request must be capped");
        assert_eq!(seq.registers_snapshot(), par.registers_snapshot());
    }

    /// The gather + multi-worker merge path, pinned to several OS threads
    /// regardless of the host's core count (on a small box `run_trace`
    /// legitimately collapses to the sequential path, which would leave
    /// this machinery untested).
    #[test]
    fn pinned_gather_and_merge_match_sequential() {
        let mut seq = build(CMS);
        let trace = cms_trace(&seq, 400);
        seq.run_trace(&trace, 1);
        for workers in [2, 4, 8] {
            let mut par = build(CMS);
            let trace = cms_trace(&par, 400);
            let (dropped, occupancy) = par.run_trace_sharded(&trace, workers);
            assert_eq!(dropped, 0);
            assert!((0.0..=1.0).contains(&occupancy), "occupancy {occupancy} out of range");
            assert_eq!(
                seq.registers_snapshot(),
                par.registers_snapshot(),
                "merged counters diverge on {workers} threads"
            );
        }
    }

    /// Batched sharded workers (pinned multi-worker path) merge to the
    /// same state as sequential scalar replay.
    #[test]
    fn batched_sharded_replay_matches_sequential() {
        let mut seq = build(CMS);
        let trace = cms_trace(&seq, 400);
        seq.run_trace(&trace, 1);
        for width in [2, 7, 64] {
            let mut par = build(CMS);
            par.set_batch_width(width);
            let trace = cms_trace(&par, 400);
            let (dropped, _) = par.run_trace_sharded(&trace, 2);
            assert_eq!(dropped, 0);
            assert_eq!(
                seq.registers_snapshot(),
                par.registers_snapshot(),
                "batched sharded replay diverges at width {width}"
            );
        }
    }

    /// A program without PHV slots has nothing to flow-hash: the replay
    /// runs in place and reports the one thread it used, not the request.
    #[test]
    fn program_without_phv_slots_reports_one_thread() {
        const NO_PHV: &str = r#"
            register<bit<32>>[4] a;
            action tally() { a[0] = a[0] + 1; }
            control Main() { apply { tally(); } }
        "#;
        let mut sw = build(NO_PHV);
        let trace: Vec<Phv> = (0..8).map(|_| sw.make_packet(&[]).unwrap()).collect();
        assert!(trace[0].slots.is_empty());
        assert_eq!(sw.run_trace(&trace, 4).threads, 1);
        sw.set_batch_width(3);
        let stats = sw.run_trace(&trace, 4);
        assert_eq!((stats.threads, stats.batch_width), (1, 3));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 16);
    }

    #[test]
    fn stats_report_stage_cost_and_rate() {
        let mut sw = build(CMS);
        let trace = cms_trace(&sw, 100);
        let stats = sw.run_trace(&trace, 1);
        assert_eq!(stats.stage_cost.len(), sw.stage_count());
        assert!(stats.total_cost() > 0, "cost telemetry must be populated");
        assert!(stats.pkts_per_sec() > 0.0);
        assert_eq!(stats.batch_width, 0, "no batch width requested");
        assert_eq!(stats.overlap_occupancy, 1.0, "single-threaded replay");
    }

    /// Batched replay is bit-identical to scalar replay: registers, final
    /// PHV, and per-stage cost — across widths that do and do not divide
    /// the trace length.
    #[test]
    fn batched_replay_matches_scalar_bit_for_bit() {
        let mut scalar = build(CMS);
        let trace = cms_trace(&scalar, 50);
        let sstats = scalar.run_trace(&trace, 1);
        for width in [1, 2, 3, 7, 64] {
            let mut batched = build(CMS);
            batched.set_batch_width(width);
            let trace = cms_trace(&batched, 50);
            let bstats = batched.run_trace(&trace, 1);
            assert_eq!(bstats.dropped, 0);
            assert_eq!(bstats.batch_width, if width >= 2 { width } else { 0 });
            assert_eq!(scalar.registers_snapshot(), batched.registers_snapshot(), "w={width}");
            assert_eq!(scalar.phv_snapshot(), batched.phv_snapshot(), "w={width}");
            assert_eq!(sstats.stage_cost, bstats.stage_cost, "w={width}");
        }
    }

    /// A faulting lane rolls back its own writes and is counted as a drop,
    /// leaving the rest of its batch untouched.
    #[test]
    fn batched_replay_with_faults_matches_scalar() {
        let mut scalar = build(FAULTY_DIV);
        let trace: Vec<Phv> = (0..20u64)
            .map(|p| {
                let y = if p % 10 == 3 { 0 } else { 2 };
                scalar.make_packet(&[("x", 100 + p), ("y", y)]).unwrap()
            })
            .collect();
        let sstats = scalar.run_trace(&trace, 1);
        assert_eq!(sstats.dropped, 2);

        let mut batched = build(FAULTY_DIV);
        batched.set_batch_width(4);
        let bstats = batched.run_trace(&trace, 1);
        assert_eq!(bstats.batch_width, 4);
        assert_eq!(bstats.dropped, 2);
        assert_eq!(scalar.registers_snapshot(), batched.registers_snapshot());
        assert_eq!(sstats.stage_cost, bstats.stage_cost);
        assert_eq!(batched.read_register("a", 0, 0).unwrap(), 18);

        // Two shard workers, scalar and batched: a faulting packet gives
        // back its unreached cost on whichever worker it lands, so the
        // merged per-stage cost is still the scalar run's.
        for width in [0, 4] {
            let mut sharded = build(FAULTY_DIV);
            sharded.set_batch_width(width);
            assert_eq!(sharded.run_trace_sharded(&trace, 2).0, 2, "w={width}");
            assert_eq!(scalar.registers_snapshot(), sharded.registers_snapshot(), "w={width}");
            assert_eq!(sstats.stage_cost, sharded.stage_cost(), "w={width}");
        }
    }

    /// `FAULTY_IDX` makes packet order observable through a register
    /// (and was once refused batching for it): lanes run in trace order,
    /// so it batches at the requested width and equals the scalar run.
    #[test]
    fn formerly_batch_unsafe_program_batches_and_equals_scalar() {
        let mut scalar = build(FAULTY_IDX);
        let mk = |sw: &Switch| -> Vec<Phv> {
            (0..10u64)
                .map(|p| {
                    let i = if p == 5 { 9 } else { p % 4 };
                    sw.make_packet(&[("x", p), ("i", i)]).unwrap()
                })
                .collect()
        };
        let trace = mk(&scalar);
        let sstats = scalar.run_trace(&trace, 1);

        let mut batched = build(FAULTY_IDX);
        batched.set_batch_width(8);
        let trace = mk(&batched);
        let stats = batched.run_trace(&trace, 1);
        assert_eq!(stats.batch_width, 8);
        assert_eq!((sstats.dropped, stats.dropped), (1, 1));
        assert_eq!(scalar.registers_snapshot(), batched.registers_snapshot());
        assert_eq!(scalar.phv_snapshot(), batched.phv_snapshot());
        assert_eq!(batched.read_register("a", 0, 0).unwrap(), 9);
    }

    /// The bytecode trace loop charges every stage for the whole trace up
    /// front and checks its preconditions once; a faulting packet gives
    /// back what it did not reach. With the first and the last packet
    /// faulting, it must leave what a `begin_packet`/`run_packet` loop
    /// over the same packets leaves: drops, registers, final PHV and
    /// per-stage cost.
    #[test]
    fn trace_loop_matches_a_run_packet_loop_when_first_and_last_packets_fault() {
        let faults = |p: u64| p == 0 || p == 6 || p == 11;
        let div: Vec<Vec<(&str, u64)>> =
            (0..12).map(|p| vec![("x", 100 + p), ("y", if faults(p) { 0 } else { 3 })]).collect();
        let idx: Vec<Vec<(&str, u64)>> =
            (0..12).map(|p| vec![("x", p), ("i", if faults(p) { 9 } else { p % 4 })]).collect();
        for (src, packets) in [(FAULTY_DIV, div), (FAULTY_IDX, idx)] {
            let mut looped = build(src);
            let mut dropped = 0;
            for fields in &packets {
                looped.begin_packet();
                for &(f, v) in fields {
                    looped.set_header(f, v).unwrap();
                }
                dropped += u64::from(looped.run_packet().is_err());
            }
            assert_eq!(dropped, 3);
            let mut traced = build(src);
            let trace: Vec<Phv> = packets.iter().map(|f| traced.make_packet(f).unwrap()).collect();
            let stats = traced.run_trace(&trace, 1);
            assert_eq!(stats.dropped, dropped);
            assert_eq!(stats.stage_cost, looped.stage_cost());
            assert_eq!(traced.registers_snapshot(), looped.registers_snapshot());
            assert_eq!(traced.phv_snapshot(), looped.phv_snapshot());
            assert_eq!(traced.read_register("a", 0, 0).unwrap(), 9);
        }
    }

    #[test]
    fn out_of_bounds_packet_drops_and_rolls_back_mid_trace() {
        for backend in [Backend::Interp, Backend::Compiled] {
            let mut sw = build(FAULTY_IDX);
            sw.set_backend(backend);
            let mut trace = Vec::new();
            for p in 0..10u64 {
                // Packet 5 indexes b[9] — out of bounds (len 4).
                let i = if p == 5 { 9 } else { p % 4 };
                trace.push(sw.make_packet(&[("x", p), ("i", i)]).unwrap());
            }
            let stats = sw.run_trace(&trace, 1);
            assert_eq!(stats.dropped, 1, "{backend:?}");
            assert_eq!(stats.packets, 10);
            // 10 packets, 1 dropped: its increment of a[0] was undone.
            assert_eq!(sw.read_register("a", 0, 0).unwrap(), 9, "{backend:?}");
        }
    }

    #[test]
    fn div_by_zero_packet_drops_and_rolls_back_mid_trace() {
        for backend in [Backend::Interp, Backend::Compiled] {
            let mut sw = build(FAULTY_DIV);
            sw.set_backend(backend);
            let trace: Vec<Phv> = (0..20u64)
                .map(|p| {
                    let y = if p % 10 == 3 { 0 } else { 2 }; // packets 3, 13 fault
                    sw.make_packet(&[("x", 100 + p), ("y", y)]).unwrap()
                })
                .collect();
            let stats = sw.run_trace(&trace, 1);
            assert_eq!(stats.dropped, 2, "{backend:?}");
            assert_eq!(sw.read_register("a", 0, 0).unwrap(), 18, "{backend:?}");
        }
    }

    #[test]
    fn run_packet_surfaces_error_but_leaves_state_clean() {
        let mut sw = build(FAULTY_DIV);
        sw.begin_packet();
        sw.set_header("x", 4).unwrap();
        sw.set_header("y", 2).unwrap();
        sw.run_packet().unwrap();
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 1);
        sw.begin_packet();
        sw.set_header("x", 4).unwrap();
        sw.set_header("y", 0).unwrap();
        let err = sw.run_packet().unwrap_err();
        assert_eq!(err, SimError::DivByZero);
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 1, "faulting write must roll back");
    }

    #[test]
    fn sharded_replay_counts_drops() {
        let mut sw = build(FAULTY_DIV);
        let trace: Vec<Phv> = (0..64u64)
            .map(|p| sw.make_packet(&[("x", p), ("y", p % 4)]).unwrap())
            .collect();
        let stats = sw.run_trace(&trace, 4);
        assert_eq!(stats.dropped, 16);
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 48);

        // Same trace through the pinned multi-worker gather path: drops
        // and rollbacks must merge identically.
        let mut sw = build(FAULTY_DIV);
        let trace: Vec<Phv> = (0..64u64)
            .map(|p| sw.make_packet(&[("x", p), ("y", p % 4)]).unwrap())
            .collect();
        assert_eq!(sw.run_trace_sharded(&trace, 4).0, 16);
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 48);
    }
}
