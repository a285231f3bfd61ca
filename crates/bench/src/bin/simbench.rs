//! Simulator throughput benchmark: the bytecode replay engine against the
//! reference interpreter (and, when `rustc` is on PATH, the generated-Rust
//! native engine), single-threaded and sharded, over a Zipf NetCache
//! trace. Writes `BENCH_sim.json` with pkts/sec per configuration, the
//! compiled-vs-interpreter and native-vs-compiled speedups, and the
//! thread scaling curve. `--smoke` additionally gates native ≥ 1x
//! bytecode (exit 1 below), a deliberately loose CI floor — the real
//! target (≥ 5x) is what the full run on a bench host records.
//!
//! ```sh
//! cargo run --release --bin simbench            # 1M-packet trace
//! cargo run --release --bin simbench -- --smoke # 10k packets (CI)
//! ```

use std::fmt::Write as _;

use p4all_bench::{bench_netcache_options, build_netcache_switch, phv_trace};
use p4all_pisa::presets;
use p4all_sim::{Backend, Phv, SimStats, Switch};
use p4all_workloads::zipf_trace;

fn one_pass(sw: &mut Switch, trace: &[Phv], backend: Backend, threads: usize) -> SimStats {
    sw.set_backend(backend);
    let stats = sw.run_trace(trace, threads);
    assert_eq!(stats.dropped, 0, "NetCache trace must not fault");
    stats
}

fn median(mut passes: Vec<SimStats>) -> SimStats {
    passes.sort_by(|a, b| a.pkts_per_sec().total_cmp(&b.pkts_per_sec()));
    let mid = passes.len() / 2;
    passes.swap_remove(mid)
}

/// Measure both single-thread engines with *interleaved* median-of-3
/// passes (interp, compiled, interp, compiled, ...). On a shared box the
/// scheduler can steal cycles for seconds at a time; interleaving puts
/// both engines inside any such window so the reported *ratio* stays
/// honest even when the absolute numbers dip, and the median then
/// discards a stolen pass without favoring either engine's lucky run.
fn measure_pair(sw: &mut Switch, trace: &[Phv]) -> (SimStats, SimStats) {
    // One untimed pass per engine warms caches and faults in the
    // register file.
    one_pass(sw, trace, Backend::Interp, 1);
    one_pass(sw, trace, Backend::Compiled, 1);
    let mut interp = Vec::new();
    let mut compiled = Vec::new();
    for _ in 0..3 {
        interp.push(one_pass(sw, trace, Backend::Interp, 1));
        compiled.push(one_pass(sw, trace, Backend::Compiled, 1));
    }
    (median(interp), median(compiled))
}

/// SoA batch width for the batched rows: wide enough to amortize the
/// per-batch gather, small enough that a batch's columns stay in L1.
const BATCH_WIDTH: usize = 64;

/// Batched vs scalar bytecode replay, interleaved like [`measure_pair`].
fn measure_batched(sw: &mut Switch, trace: &[Phv]) -> (SimStats, SimStats) {
    sw.set_batch_width(BATCH_WIDTH);
    one_pass(sw, trace, Backend::Compiled, 1); // warm
    sw.set_batch_width(0);
    one_pass(sw, trace, Backend::Compiled, 1);
    let mut batched = Vec::new();
    let mut scalar = Vec::new();
    for _ in 0..3 {
        sw.set_batch_width(BATCH_WIDTH);
        let b = one_pass(sw, trace, Backend::Compiled, 1);
        assert_eq!(b.batch_width, BATCH_WIDTH, "bytecode batch mode must run");
        batched.push(b);
        sw.set_batch_width(0);
        scalar.push(one_pass(sw, trace, Backend::Compiled, 1));
    }
    sw.set_batch_width(0);
    (median(batched), median(scalar))
}

/// `threads`-shard replay vs a 1-thread baseline, interleaved in one
/// window so the scaling ratio is immune to the box slowing down between
/// rows (the current batch width applies to both sides). Returns the
/// sharded stats and the within-window scaling factor.
fn measure_scaled(sw: &mut Switch, trace: &[Phv], threads: usize) -> (SimStats, f64) {
    one_pass(sw, trace, Backend::Compiled, 1); // warm
    one_pass(sw, trace, Backend::Compiled, threads);
    let mut base = Vec::new();
    let mut multi = Vec::new();
    for _ in 0..3 {
        base.push(one_pass(sw, trace, Backend::Compiled, 1));
        multi.push(one_pass(sw, trace, Backend::Compiled, threads));
    }
    let (base, multi) = (median(base), median(multi));
    let scaling = multi.pkts_per_sec() / base.pkts_per_sec();
    (multi, scaling)
}

/// Batched-FFI native replay vs per-packet native replay, interleaved.
/// Only called once the scalar native measurement succeeded.
fn measure_native_batched(sw: &mut Switch, trace: &[Phv]) -> (SimStats, SimStats) {
    sw.set_batch_width(BATCH_WIDTH);
    one_pass(sw, trace, Backend::Native, 1); // warm
    sw.set_batch_width(0);
    one_pass(sw, trace, Backend::Native, 1);
    let mut batched = Vec::new();
    let mut scalar = Vec::new();
    for _ in 0..3 {
        sw.set_batch_width(BATCH_WIDTH);
        let b = one_pass(sw, trace, Backend::Native, 1);
        assert_eq!(b.batch_width, BATCH_WIDTH, "native batched entry must run");
        batched.push(b);
        sw.set_batch_width(0);
        scalar.push(one_pass(sw, trace, Backend::Native, 1));
    }
    sw.set_batch_width(0);
    (median(batched), median(scalar))
}

/// Native vs compiled, interleaved for the same reasons as
/// [`measure_pair`]. Returns `None` (with a printed reason) when the
/// native engine can't run here, so the benchmark still completes on
/// hosts without a `rustc`.
fn measure_native(sw: &mut Switch, trace: &[Phv]) -> Option<(SimStats, SimStats)> {
    if !p4all_sim::rustc_available() {
        println!("  native    1 thread :      skipped  (rustc not on PATH)");
        return None;
    }
    if let Err(e) = sw.prepare_native() {
        println!("  native    1 thread :      skipped  ({e})");
        return None;
    }
    one_pass(sw, trace, Backend::Native, 1);
    let mut native = Vec::new();
    let mut compiled = Vec::new();
    for _ in 0..3 {
        native.push(one_pass(sw, trace, Backend::Native, 1));
        compiled.push(one_pass(sw, trace, Backend::Compiled, 1));
    }
    Some((median(native), median(compiled)))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let packets = if smoke { 10_000 } else { 1_000_000 };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let target = presets::paper_eval(1 << 15);
    let opts = bench_netcache_options();
    let (mut sw, key) = build_netcache_switch(&opts, &target).expect("netcache builds");
    let trace = zipf_trace(10_000, 0.99, packets, 7);
    let phvs = phv_trace(&sw, &key, &trace);
    println!(
        "simbench: NetCache pipeline, {} stages, {} packets (Zipf 0.99 over 10k keys){}",
        sw.stage_count(),
        packets,
        if smoke { " [smoke]" } else { "" }
    );

    let (interp, compiled) = measure_pair(&mut sw, &phvs);
    println!("  interp    1 thread : {:>12.0} pkts/sec", interp.pkts_per_sec());
    let speedup = compiled.pkts_per_sec() / interp.pkts_per_sec();
    println!(
        "  compiled  1 thread : {:>12.0} pkts/sec  ({speedup:.1}x interp)",
        compiled.pkts_per_sec()
    );

    // Batched SoA execution vs the scalar bytecode loop, the compiled
    // side re-measured inside the same interleaving window.
    let (batched, batched_base) = measure_batched(&mut sw, &phvs);
    let batched_speedup = batched.pkts_per_sec() / batched_base.pkts_per_sec();
    println!(
        "  batched   1 thread : {:>12.0} pkts/sec  ({batched_speedup:.2}x compiled, width {BATCH_WIDTH})",
        batched.pkts_per_sec()
    );

    // Native (generated Rust) vs compiled, with the compiled side
    // re-measured inside the same interleaving window so the ratio is
    // apples to apples.
    let native = measure_native(&mut sw, &phvs).map(|(nat, comp)| {
        let nat_speedup = nat.pkts_per_sec() / comp.pkts_per_sec();
        println!(
            "  native    1 thread : {:>12.0} pkts/sec  ({nat_speedup:.1}x compiled)",
            nat.pkts_per_sec()
        );
        (nat, nat_speedup)
    });

    // Batched FFI (`p4n_run_batch`) vs per-packet native calls.
    let native_batched = native.as_ref().map(|_| {
        let (nb, nb_base) = measure_native_batched(&mut sw, &phvs);
        let nb_speedup = nb.pkts_per_sec() / nb_base.pkts_per_sec();
        println!(
            "  nat-batch 1 thread : {:>12.0} pkts/sec  ({nb_speedup:.2}x native, width {BATCH_WIDTH})",
            nb.pkts_per_sec()
        );
        (nb, nb_speedup)
    });

    // Sharded replay at 2/4/8 requested workers regardless of core count
    // — `run_trace` caps the shard count at `available_parallelism`, so
    // on a small box the scaling column honestly reports ~1x. Batched
    // rows use the same shards with SoA workers.
    let mut thread_rows = Vec::new();
    for t in [2usize, 4, 8] {
        let (s, scaling) = measure_scaled(&mut sw, &phvs, t);
        sw.set_batch_width(BATCH_WIDTH);
        let (b, b_scaling) = measure_scaled(&mut sw, &phvs, t);
        sw.set_batch_width(0);
        println!(
            "  compiled {t:>2} threads: {:>12.0} pkts/sec  ({scaling:.2}x 1-thread) | batched {:>12.0} pkts/sec ({b_scaling:.2}x)",
            s.pkts_per_sec(),
            b.pkts_per_sec()
        );
        thread_rows.push((t, s.pkts_per_sec(), scaling, b.pkts_per_sec(), b_scaling));
    }

    // Where the cycles go: per-stage bytecode cost of the compiled run.
    let total = compiled.total_cost().max(1);
    let per_stage: Vec<String> = compiled
        .stage_cost
        .iter()
        .map(|&c| format!("{:.1}%", 100.0 * c as f64 / total as f64))
        .collect();
    println!("  stage cost split   : {}", per_stage.join(" "));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"packets\": {packets},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"interp_pkts_per_sec\": {:.0},", interp.pkts_per_sec());
    let _ = writeln!(json, "  \"compiled_pkts_per_sec\": {:.0},", compiled.pkts_per_sec());
    let _ = writeln!(json, "  \"speedup_compiled_vs_interp\": {speedup:.2},");
    let _ = writeln!(json, "  \"batch_width\": {BATCH_WIDTH},");
    let _ = writeln!(json, "  \"batched_pkts_per_sec\": {:.0},", batched.pkts_per_sec());
    let _ = writeln!(json, "  \"speedup_batched_vs_compiled\": {batched_speedup:.2},");
    match &native_batched {
        Some((nb, nb_speedup)) => {
            let _ =
                writeln!(json, "  \"native_batched_pkts_per_sec\": {:.0},", nb.pkts_per_sec());
            let _ = writeln!(json, "  \"speedup_native_batched_vs_native\": {nb_speedup:.2},");
        }
        None => {
            let _ = writeln!(json, "  \"native_batched_pkts_per_sec\": null,");
            let _ = writeln!(json, "  \"speedup_native_batched_vs_native\": null,");
        }
    }
    match &native {
        Some((nat, nat_speedup)) => {
            let _ = writeln!(json, "  \"native_pkts_per_sec\": {:.0},", nat.pkts_per_sec());
            let _ = writeln!(json, "  \"speedup_native_vs_compiled\": {nat_speedup:.2},");
        }
        None => {
            let _ = writeln!(json, "  \"native_pkts_per_sec\": null,");
            let _ = writeln!(json, "  \"speedup_native_vs_compiled\": null,");
        }
    }
    let _ = writeln!(json, "  \"stage_cost\": {:?},", compiled.stage_cost);
    json.push_str("  \"threads\": [\n");
    for (i, (t, pps, scaling, bpps, bscaling)) in thread_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"threads\": {t}, \"pkts_per_sec\": {pps:.0}, \"scaling_vs_1thread\": {scaling:.2}, \"batched_pkts_per_sec\": {bpps:.0}, \"batched_scaling_vs_1thread\": {bscaling:.2}}}"
        );
        json.push_str(if i + 1 < thread_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("\nwrote BENCH_sim.json");

    // CI floors: the native engine must not be slower than bytecode, and
    // an 8-thread request must not fall below sequential — on a host with
    // the 8 cores to run it; a smaller one has no scaling to claim.
    if smoke {
        if let Some((_, nat_speedup)) = native {
            if nat_speedup < 1.0 {
                eprintln!(
                    "simbench: FAIL — native engine is slower than bytecode \
                     ({nat_speedup:.2}x, floor 1.0x)"
                );
                std::process::exit(1);
            }
            println!("smoke gate: native {nat_speedup:.2}x compiled (floor 1.0x) — ok");
        }
        // 5% measurement-noise band.
        if let Some((_, _, scaling, ..)) = thread_rows.iter().find(|r| r.0 == 8) {
            if cores < 8 {
                println!("smoke gate: 8-thread request skipped: {cores} cores");
            } else if *scaling < 0.95 {
                eprintln!(
                    "simbench: FAIL — 8-thread request degrades below sequential \
                     ({scaling:.2}x, floor 1.0x)"
                );
                std::process::exit(1);
            } else {
                println!("smoke gate: 8-thread request {scaling:.2}x sequential (floor 1.0x) — ok");
            }
        }
    }
}
