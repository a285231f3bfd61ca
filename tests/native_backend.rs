//! Codegen-specific tests for the native backend (`Backend::Native`):
//! deterministic lowering, warning-free generated source, exact
//! agreement with the reference interpreter on PHV/register/fault
//! behavior, and control-plane changes to the host-owned tables reaching
//! a live engine.
//!
//! Tests that need the in-container `rustc` skip with a logged reason
//! when it is unavailable; lowering-only tests always run.

use std::process::Command;

use p4all_core::Compiler;
use p4all_pisa::presets;
use p4all_sim::{rustc_available, Backend, Switch};

/// The backend-equivalence template family pinned to one member: CMS
/// hash+RMW updates, a mergeable accumulator, arithmetic/compare/branch
/// chains, an exact-match table with action data, and a
/// header-controlled division that can fault.
const SRC: &str = r#"
    symbolic int rows;
    symbolic int cols;
    assume rows >= 3 && rows <= 3;
    assume cols >= 32 && cols <= 32;
    optimize rows * cols;
    header pkt { bit<32> key; bit<32> val; bit<32> d; }
    struct metadata {
        bit<32>[rows] index;
        bit<32>[rows] count;
        bit<32> min;
        bit<32> t0; bit<32> t1; bit<32> t2;
        bit<32> q;
        bit<8> flag;
        bit<32> boost;
        bit<32> slot;
    }
    register<bit<32>>[cols][rows] cms;
    register<bit<64>>[8] acc;

    action mark() { meta.flag = 1; meta.t0 = meta.t0 + meta.boost; }
    action unmark() { meta.flag = 0; }
    table watch {
        key = { hdr.key; }
        actions = { mark; unmark; }
        size = 64;
        default_action = unmark;
    }

    action incr()[int i] {
        meta.index[i] = hash(hdr.key, cols);
        cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
        meta.count[i] = cms[i][meta.index[i]];
    }
    action set_min()[int i] { meta.min = meta.count[i]; }
    action mix0() { meta.t0 = hdr.key + 7; }
    action mix1() { meta.t1 = meta.t0 * hdr.val; }
    action mix2() {
        if (meta.t1 < 500) { meta.t2 = meta.t1 + meta.t0; }
        else { meta.t2 = hdr.key - 500; }
    }
    action divq() { meta.q = hdr.val / hdr.d; }
    action accrue() {
        meta.slot = hash(hdr.key, 8);
        acc[meta.slot] = acc[meta.slot] + hdr.val;
    }

    control lookup() { apply { watch.apply(); } }
    control sketch() { apply { for (i < rows) { incr()[i]; } } }
    control minimum() {
        apply {
            for (i < rows) {
                if (meta.count[i] < meta.min || meta.min == 0) { set_min()[i]; }
            }
        }
    }
    control arith() { apply { mix0(); mix1(); mix2(); divq(); accrue(); } }
    control Main() {
        apply { lookup.apply(); sketch.apply(); minimum.apply(); arith.apply(); }
    }
"#;

fn build(backend: Backend) -> Switch {
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(SRC).expect("compiles");
    let program = p4all_lang::parse(SRC).expect("parses");
    let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
    sw.set_backend(backend);
    for (i, k) in [3u64, 5, 9].into_iter().enumerate() {
        sw.install_entry("watch", vec![k], "mark", &[("boost", 10 + i as u64)]).unwrap();
    }
    sw
}

/// A deterministic mixed trace: cache-hot keys, assorted values, and a
/// few `d = 0` packets that must fault (DivByZero) and roll back.
fn trace() -> Vec<(u64, u64, u64)> {
    let mut pkts = Vec::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..400u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 24;
        let val = (x >> 8) % 1000;
        let d = if i % 17 == 0 { 0 } else { (x >> 16) % 5 + 1 };
        pkts.push((key, val, d));
    }
    pkts
}

fn step(sw: &mut Switch, (key, val, d): (u64, u64, u64)) -> Result<(), p4all_sim::SimError> {
    sw.begin_packet();
    sw.set_header("key", key).unwrap();
    sw.set_header("val", val).unwrap();
    sw.set_header("d", d).unwrap();
    sw.run_packet()
}

fn skip_no_rustc(test: &str) -> bool {
    if rustc_available() {
        return false;
    }
    eprintln!("{test}: skipping — rustc not available on PATH");
    true
}

// ------------------------------------------------------------ lowering

#[test]
fn lowering_is_deterministic_across_independent_builds() {
    let a = build(Backend::Native).native_source();
    let b = build(Backend::Native).native_source();
    assert_eq!(a, b, "two lowerings of the same program must be byte-identical");
    // And stable across repeated calls on one switch.
    let sw = build(Backend::Native);
    assert_eq!(sw.native_source(), sw.native_source());
}

#[test]
fn generated_source_compiles_warning_free() {
    if skip_no_rustc("generated_source_compiles_warning_free") {
        return;
    }
    let source = build(Backend::Native).native_source();
    let dir = std::env::temp_dir().join(format!("p4all-dwarn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("p4n_check.rs");
    let lib = dir.join("libp4n_check.so");
    std::fs::write(&src, &source).unwrap();
    // The engine's own build, with warnings denied.
    let out = Command::new("rustc")
        .args(p4all_sim::native::RUSTC_ARGS.split_whitespace())
        .args(["-D", "warnings", "-o"])
        .arg(&lib)
        .arg(&src)
        .output()
        .expect("rustc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "generated source must compile under -D warnings:\n{stderr}");
}

// ------------------------------------------------------- equivalence

#[test]
fn native_matches_interp_packet_by_packet() {
    if skip_no_rustc("native_matches_interp_packet_by_packet") {
        return;
    }
    let mut interp = build(Backend::Interp);
    let mut native = build(Backend::Native);
    native.prepare_native().expect("native engine prepares");

    for (i, pkt) in trace().into_iter().enumerate() {
        let ri = step(&mut interp, pkt);
        let rn = step(&mut native, pkt);
        assert_eq!(ri, rn, "packet {i}: status/fault must agree exactly");
        if ri.is_ok() {
            assert_eq!(
                interp.phv_snapshot(),
                native.phv_snapshot(),
                "packet {i}: PHV must be byte-identical"
            );
        }
    }
    assert_eq!(
        interp.registers_snapshot(),
        native.registers_snapshot(),
        "final register state must be byte-identical (faults rolled back)"
    );
}

#[test]
fn native_faults_carry_exact_errors_and_roll_back() {
    if skip_no_rustc("native_faults_carry_exact_errors_and_roll_back") {
        return;
    }
    let mut interp = build(Backend::Interp);
    let mut native = build(Backend::Native);

    // Warm both with one clean packet so registers are non-trivial.
    step(&mut interp, (3, 10, 2)).unwrap();
    step(&mut native, (3, 10, 2)).unwrap();
    let before = native.registers_snapshot();

    // d = 0 divides by zero after the CMS increments ran: the error must
    // match the interpreter's and the increments must be rolled back.
    let ei = step(&mut interp, (5, 100, 0)).unwrap_err();
    let en = step(&mut native, (5, 100, 0)).unwrap_err();
    assert_eq!(ei, en, "fault values must be identical across backends");
    assert_eq!(
        native.registers_snapshot(),
        before,
        "a faulting packet must leave no trace in native register state"
    );
    assert_eq!(interp.registers_snapshot(), native.registers_snapshot());
}

#[test]
fn native_sees_mid_run_installs_and_removals() {
    if skip_no_rustc("native_sees_mid_run_installs_and_removals") {
        return;
    }
    let mut interp = build(Backend::Interp);
    let mut native = build(Backend::Native);
    native.prepare_native().expect("prepares");

    // New entry installed after the engine is live (the NetCache runtime
    // promotes mid-trace exactly like this).
    for sw in [&mut interp, &mut native] {
        sw.install_entry("watch", vec![7], "mark", &[("boost", 99)]).unwrap();
    }
    step(&mut interp, (7, 1, 1)).unwrap();
    step(&mut native, (7, 1, 1)).unwrap();
    assert_eq!(interp.meta("flag").unwrap(), 1);
    assert_eq!(native.meta("flag").unwrap(), 1);
    assert_eq!(native.meta("boost").unwrap(), 99);
    assert_eq!(interp.phv_snapshot(), native.phv_snapshot());

    for sw in [&mut interp, &mut native] {
        assert!(sw.remove_entry("watch", &[7]).unwrap());
    }
    step(&mut interp, (7, 1, 1)).unwrap();
    step(&mut native, (7, 1, 1)).unwrap();
    assert_eq!(native.meta("flag").unwrap(), 0, "removed entry must miss");
    assert_eq!(interp.phv_snapshot(), native.phv_snapshot());
}

#[test]
fn native_run_trace_matches_compiled_and_shards_fall_back() {
    if skip_no_rustc("native_run_trace_matches_compiled_and_shards_fall_back") {
        return;
    }
    let mut compiled = build(Backend::Compiled);
    let mut native = build(Backend::Native);
    let pkts: Vec<_> = trace()
        .into_iter()
        .map(|(k, v, d)| {
            compiled.make_packet(&[("key", k), ("val", v), ("d", d)]).unwrap()
        })
        .collect();

    let sc = compiled.run_trace(&pkts, 1);
    let sn = native.run_trace(&pkts, 1);
    assert_eq!(sc.packets, sn.packets);
    assert_eq!(sc.dropped, sn.dropped, "identical drop counts at 1 thread");
    assert_eq!(compiled.registers_snapshot(), native.registers_snapshot());

    // threads > 1 documented behavior: the sharded path always runs the
    // bytecode engine; results still match the sequential native run.
    let mut native4 = build(Backend::Native);
    let s4 = native4.run_trace(&pkts, 4);
    assert_eq!(s4.dropped, sn.dropped);
    assert_eq!(native4.registers_snapshot(), native.registers_snapshot());
}

#[test]
fn native_reset_replays_identically() {
    if skip_no_rustc("native_reset_replays_identically") {
        return;
    }
    let mut native = build(Backend::Native);
    let pkts = trace();
    for pkt in &pkts[..100] {
        let _ = step(&mut native, *pkt);
    }
    let first = native.registers_snapshot();
    native.reset();
    for pkt in &pkts[..100] {
        let _ = step(&mut native, *pkt);
    }
    assert_eq!(first, native.registers_snapshot(), "reset + replay must reproduce state");
}

/// Two tables of different key widths, each with action data: the table
/// views the native engine reads at every call, on a merged-style program.
const TWO_TABLES: &str = r#"
    header pkt { bit<32> a; bit<32> b; }
    struct metadata { bit<8> hit1; bit<8> hit2; bit<32> x; bit<32> y; bit<32> z; }
    action one() { meta.hit1 = 1; meta.z = meta.x + 1; }
    action miss1() { meta.hit1 = 0; }
    table t1 {
        key = { hdr.a; }
        actions = { one; miss1; }
        size = 512;
        default_action = miss1;
    }
    action two() { meta.hit2 = 1; }
    table t2 {
        key = { hdr.a; hdr.b; }
        actions = { two; }
        size = 512;
    }
    control Main() { apply { t1.apply(); t2.apply(); } }
"#;

/// The native engine reads the bytecode engine's own tables through views
/// built at every call: entries installed (and removed again) before it
/// was prepared, installs that rehash and grow a table, removals that
/// leave tombstones, and a cleared table are all seen at once. After each
/// step the three engines agree packet by packet.
#[test]
fn native_reads_host_tables_through_rehash_remove_and_clear() {
    if skip_no_rustc("native_reads_host_tables_through_rehash_remove_and_clear") {
        return;
    }
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(TWO_TABLES).expect("compiles");
    let program = p4all_lang::parse(TWO_TABLES).expect("parses");
    let mut sws: Vec<Switch> = [Backend::Interp, Backend::Compiled, Backend::Native]
        .into_iter()
        .map(|backend| {
            let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
            sw.set_backend(backend);
            sw
        })
        .collect();
    for sw in sws.iter_mut() {
        sw.install_entry("t1", vec![47], "one", &[("x", 3)]).unwrap();
        sw.install_entry("t1", vec![46], "one", &[]).unwrap();
        assert!(sw.remove_entry("t1", &[46]).unwrap());
    }
    sws[2].prepare_native().expect("native engine prepares");

    let agree = |sws: &mut [Switch], step: &str| {
        for a in 0..48u64 {
            let b = a % 3;
            let mut seen = Vec::new();
            for sw in sws.iter_mut() {
                sw.begin_packet();
                sw.set_header("a", a).unwrap();
                sw.set_header("b", b).unwrap();
                sw.run_packet().unwrap();
                seen.push(sw.phv_snapshot());
            }
            assert_eq!(seen[0], seen[1], "{step}: bytecode differs on ({a}, {b})");
            assert_eq!(seen[0], seen[2], "{step}: native differs on ({a}, {b})");
        }
    };
    agree(&mut sws, "installed before prepare");
    // 40 entries take `t1` from no slots through four rehashes to 64.
    for k in 0..40u64 {
        for sw in sws.iter_mut() {
            let data: &[(&str, u64)] = if k % 2 == 0 { &[("x", k)] } else { &[("x", k), ("y", 7)] };
            sw.install_entry("t1", vec![k], "one", data).unwrap();
            sw.install_entry("t2", vec![k, k % 3], "two", &[("y", k + 100)]).unwrap();
        }
        if k % 9 == 0 {
            agree(&mut sws, &format!("after install {k}"));
        }
    }
    agree(&mut sws, "grown");
    for k in (0..40u64).step_by(3) {
        for sw in sws.iter_mut() {
            assert!(sw.remove_entry("t1", &[k]).unwrap());
        }
    }
    agree(&mut sws, "removed");
    for sw in sws.iter_mut() {
        sw.clear_table("t2").unwrap();
    }
    agree(&mut sws, "t2 cleared");
    for sw in sws.iter_mut() {
        sw.install_entry("t2", vec![5, 2], "two", &[("z", 9)]).unwrap();
    }
    agree(&mut sws, "t2 refilled");
}

/// Two register writes, then a division that reads what they wrote: the
/// fault can follow both writes, so the program logs them.
const LOGGED: &str = r#"
    header pkt { bit<32> key; bit<32> d; }
    struct metadata { bit<32> i; bit<32> v; bit<32> w; bit<32> q; }
    register<bit<32>>[16] a;
    register<bit<32>>[16] b;
    action index() { meta.i = hash(hdr.key, 16); }
    action bump_a() { a[meta.i] = a[meta.i] + 1; meta.v = a[meta.i]; }
    action bump_b() { b[meta.i] = b[meta.i] + 2; meta.w = b[meta.i]; }
    action divq() { meta.q = (meta.v + meta.w) / hdr.d; }
    control Main() { apply { index(); bump_a(); bump_b(); divq(); } }
"#;

/// A program that is not undo-free gets a host undo buffer exactly as long
/// as the most register writes on one packet path. A packet that makes
/// all of them and then faults fills it and leaves no trace.
#[test]
fn a_faulting_packet_fills_the_undo_buffer_and_rolls_back() {
    if skip_no_rustc("a_faulting_packet_fills_the_undo_buffer_and_rolls_back") {
        return;
    }
    let c = Compiler::new(presets::paper_eval(1 << 14)).compile(LOGGED).expect("compiles");
    let program = p4all_lang::parse(LOGGED).expect("parses");
    let build = |backend| {
        let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
        sw.set_backend(backend);
        sw
    };
    let (mut interp, mut native) = (build(Backend::Interp), build(Backend::Native));
    let listing = native.dump_bytecode();
    assert!(listing.starts_with("undo log: kept"), "{listing}");
    assert!(native.native_source().contains("const UNDO_CAP: usize = 2;"));
    native.prepare_native().expect("native engine prepares");
    for (key, d) in [(3, 1), (3, 0), (5, 2), (5, 0), (3, 0)] {
        let step = |sw: &mut Switch| {
            sw.begin_packet();
            sw.set_header("key", key).unwrap();
            sw.set_header("d", d).unwrap();
            sw.run_packet()
        };
        let before = native.registers_snapshot();
        let (want, got) = (step(&mut interp), step(&mut native));
        assert_eq!(want, got, "packet ({key}, {d})");
        assert_eq!(want.is_err(), d == 0);
        let after = native.registers_snapshot();
        assert_eq!(after == before, d == 0, "only the clean packets write");
        assert_eq!(interp.registers_snapshot(), after);
    }
}
