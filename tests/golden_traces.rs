//! Golden-trace snapshots: canned traces replayed through the flagship
//! applications, with the full per-stage register state compared against
//! committed dumps in `tests/golden/`.
//!
//! Where the differential suite (`backend_equivalence.rs`) pins the two
//! backends to *each other*, these snapshots pin the pipeline to *its own
//! history*: any change to hashing, table dispatch, promotion logic, or
//! merge semantics shows up as a register diff here, even if it is
//! self-consistent across backends.
//!
//! Which stage a register lands in is *not* in the dumps: the solver may
//! pick any co-optimal placement, and a tie-break is not semantics. The
//! placement is checked instead ([`check_placement`]): `verify_layout`
//! clean, every dependency-graph precedence strictly ordered, no excluded
//! pair sharing a stage, every register where the layout allocated it.
//!
//! Regenerate after an intentional semantic change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff of `tests/golden/` like any other code change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use p4all_core::depgraph::build_full;
use p4all_core::elaborate::elaborate;
use p4all_core::ir::instantiate;
use p4all_core::{verify_layout, Compilation, Compiler};
use p4all_elastic::apps::netcache::{self, NetCacheOptions};
use p4all_elastic::apps::precision::{self, PrecisionOptions};
use p4all_pisa::presets;
use p4all_sim::{rustc_available, Backend, NetCacheConfig, NetCacheRuntime, Switch};
use p4all_workloads::zipf_trace;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn update_mode() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// Render every register instance as one line:
/// `name[instance]: c0 c1 c2 ...`
fn dump_registers(sw: &Switch) -> String {
    let mut out = String::new();
    for (name, instance, _stage, cells) in sw.registers_snapshot() {
        write!(out, "{name}[{instance}]:").unwrap();
        for c in cells {
            write!(out, " {c}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// The placement half of what the dumps used to pin by stage label: the
/// layout verifies, respects the dependency graph rebuilt from the source
/// at the compile's unroll bounds, and the switch holds every register in
/// the stage the layout gave it.
fn check_placement(src: &str, c: &Compilation, compiler: &Compiler, sw: &Switch) {
    let program = Arc::new(p4all_lang::parse(src).expect("parses"));
    verify_layout(&program, &c.layout, &compiler.target).expect("layout verifies");

    let info = elaborate(&program).expect("elaborates");
    let unrolled = instantiate(&info, &c.upper_bounds).expect("unrolls");
    let graph = build_full(&unrolled);
    let mut stage_of: BTreeMap<usize, usize> = BTreeMap::new();
    for p in &c.layout.placements {
        assert_eq!(graph.nodes[p.group].label, p.label, "placement groups are graph nodes");
        stage_of.insert(p.group, p.stage);
    }
    let placed = |a: usize, b: usize| Some((*stage_of.get(&a)?, *stage_of.get(&b)?));
    let mut ordered = 0;
    for &(a, b) in &graph.precedence {
        if let Some((sa, sb)) = placed(a, b) {
            let (la, lb) = (&graph.nodes[a].label, &graph.nodes[b].label);
            assert!(sa < sb, "`{la}` (stage {sa}) must precede `{lb}` (stage {sb})");
            ordered += 1;
        }
    }
    assert!(ordered > 0, "both golden programs have dependent actions to order");
    for &(a, b) in &graph.exclusion {
        if let Some((sa, sb)) = placed(a, b) {
            let (la, lb) = (&graph.nodes[a].label, &graph.nodes[b].label);
            assert_ne!(sa, sb, "`{la}` and `{lb}` exclude each other but share a stage");
        }
    }

    let allocated: BTreeMap<(&str, usize), usize> =
        c.layout.registers.iter().map(|r| ((r.reg.as_str(), r.instance), r.stage)).collect();
    for (name, instance, stage, _) in sw.registers_snapshot() {
        assert_eq!(
            allocated.get(&(name.as_str(), instance)),
            Some(&stage),
            "`{name}[{instance}]` sits in stage {stage}, not where the layout allocated it"
        );
    }
}

/// Compare (or, with `UPDATE_GOLDEN=1`, rewrite) one named snapshot.
fn check_golden(name: &str, header: &str, dump: &str) {
    let path = golden_dir().join(format!("{name}.regs"));
    let full = format!("{header}{dump}");
    if update_mode() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &full).unwrap();
        eprintln!("golden: wrote {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test golden_traces`",
            path.display()
        )
    });
    assert_eq!(
        expected, full,
        "register dump for `{name}` diverged from tests/golden/{name}.regs — \
         if the semantic change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_traces` and review the diff"
    );
}

/// Read a canned `key value` trace; with `UPDATE_GOLDEN=1` (re)generate it
/// first so trace and dump always move together.
fn canned_trace(name: &str, generate: impl Fn() -> Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let path = golden_dir().join(format!("{name}.trace"));
    if update_mode() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        let trace = generate();
        let mut text = String::new();
        for &(k, v) in &trace {
            writeln!(text, "{k} {v}").unwrap();
        }
        std::fs::write(&path, text).unwrap();
        return trace;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing canned trace {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test golden_traces`",
            path.display()
        )
    });
    text.lines()
        .map(|l| {
            let mut it = l.split_whitespace();
            let k = it.next().unwrap().parse().unwrap();
            let v = it.next().unwrap().parse().unwrap();
            (k, v)
        })
        .collect()
}

/// Native-variant guard: the generated-Rust engine is checked against the
/// SAME committed goldens as the default backend — it never re-blesses
/// them. Returns true when the variant should bail out: in update mode
/// (the default-backend test owns regeneration, avoiding write races) or
/// when the in-container `rustc` is unavailable.
fn skip_native_variant(test: &str) -> bool {
    if update_mode() {
        eprintln!("{test}: skipping under UPDATE_GOLDEN — default-backend test regenerates");
        return true;
    }
    if !rustc_available() {
        eprintln!("{test}: skipping — rustc not available on PATH");
        return true;
    }
    false
}

fn netcache_golden(backend: Backend) {
    let mut opts = NetCacheOptions::paper_default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    let src = netcache::source(&opts);
    let compiler = Compiler::new(presets::paper_eval(1 << 15));
    let c = compiler.compile(&src).expect("compiles");
    let program = p4all_lang::parse(&src).expect("parses");
    let names = netcache::runtime_config(&opts);
    let mut switch = Switch::build(&c.concrete, &program).expect("sim builds");
    check_placement(&src, &c, &compiler, &switch);
    switch.set_backend(backend);
    let cfg = NetCacheConfig {
        cache_table: names.cache_table,
        hit_action: names.hit_action,
        hit_flag_meta: names.hit_flag_meta,
        min_meta: names.min_meta,
        slice_meta: names.slice_meta,
        idx_meta: names.idx_meta,
        value_meta: names.value_meta,
        kv_register: names.kv_register,
        cms_register: names.cms_register,
        key_header: names.key_header,
        promote_threshold: 4,
        epoch_packets: 50_000,
    };
    let mut rt = NetCacheRuntime::new(switch, cfg).expect("runtime init");

    let trace = canned_trace("netcache", || {
        zipf_trace(500, 1.1, 4_000, 11).packets.iter().map(|p| (p.key, p.value)).collect()
    });
    for &(k, v) in &trace {
        rt.process(k, v).expect("simulation");
    }

    let s = rt.stats();
    let header = format!(
        "# NetCache golden: {} packets, {} hits, {} promotions, {} cached keys\n",
        s.packets,
        s.hits,
        s.promotions,
        rt.cached_keys()
    );
    check_golden("netcache", &header, &dump_registers(rt.switch()));
}

/// NetCache end to end: CMS popularity tracking, control-plane promotion
/// into the cache table, value serving from the key-value register — the
/// register dump captures sketch counters *and* the promoted hot set.
#[test]
fn netcache_register_state_matches_golden() {
    netcache_golden(Backend::default());
}

/// The generated-Rust engine replays the same canned trace and must land
/// on byte-identical register state vs the committed golden.
#[test]
fn netcache_native_matches_same_golden() {
    if skip_native_variant("netcache_native_matches_same_golden") {
        return;
    }
    netcache_golden(Backend::Native);
}

fn heavy_hitter_golden(backend: Backend) {
    let opts = PrecisionOptions { max_stages: 3, min_slots: 64 };
    let src = precision::source(&opts);
    let compiler = Compiler::new(presets::paper_eval(1 << 15));
    let c = compiler.compile(&src).expect("compiles");
    let program = p4all_lang::parse(&src).expect("parses");
    let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
    check_placement(&src, &c, &compiler, &sw);
    sw.set_backend(backend);

    let trace = canned_trace("heavy_hitter", || {
        // Keys offset by 1 because 0 marks an empty tracker slot.
        zipf_trace(300, 1.1, 5_000, 21).packets.iter().map(|p| (p.key + 1, 0)).collect()
    });
    let packets: Vec<_> =
        trace.iter().map(|&(k, _)| sw.make_packet(&[("key", k)]).unwrap()).collect();
    let stats = sw.run_trace(&packets, 1);
    assert_eq!(stats.dropped, 0, "tracker trace must not fault");

    let header = format!("# heavy-hitter golden: {} packets, 0 dropped\n", stats.packets);
    check_golden("heavy_hitter", &header, &dump_registers(&sw));
}

/// PRECISION-style heavy-hitter tracker replayed through `run_trace`:
/// the dump pins the key/count register contents of every tracker stage
/// (which flows were admitted into which instance) — the part of the
/// pipeline most sensitive to hash drift.
#[test]
fn heavy_hitter_register_state_matches_golden() {
    heavy_hitter_golden(Backend::default());
}

/// Same trace, same golden, native engine — `run_trace` at 1 thread takes
/// the generated-code path.
#[test]
fn heavy_hitter_native_matches_same_golden() {
    if skip_native_variant("heavy_hitter_native_matches_same_golden") {
        return;
    }
    heavy_hitter_golden(Backend::Native);
}
