//! Differential tests: the bytecode backend against the tree-walking
//! reference interpreter.
//!
//! Programs are generated from a randomized template family that covers
//! every executable construct the concrete IR has — count-min-style
//! hash+RMW register updates, a second mergeable accumulator register,
//! random arithmetic/comparison/logical operator chains, `if`/`else`,
//! an exact-match table with installed entries and action data, and a
//! header-controlled division that can fault mid-trace. Random traces
//! then drive both backends and the results must agree exactly:
//!
//! - single-threaded: byte-identical PHVs after *every* packet and
//!   byte-identical final register state;
//! - faulting traces: identical drop counts and identical (rolled-back)
//!   register state;
//! - sharded replay (`threads ∈ {2,4,8}`): identical *merged* register
//!   state — the delta-sum merge of count-min/accumulator counters must
//!   reproduce the sequential result exactly.

use proptest::prelude::*;

use p4all_core::Compiler;
use p4all_pisa::presets;
use p4all_sim::{Backend, Phv, Switch};

/// One randomized program: pinned CMS shape, three operator choices,
/// two constants, and a set of keys pre-installed in the watch table.
#[derive(Debug, Clone)]
struct Spec {
    rows: u64,
    cols: u64,
    op1: &'static str,
    op2: &'static str,
    cmp: &'static str,
    k1: u64,
    k2: u64,
    table_keys: Vec<u64>,
}

fn source(s: &Spec) -> String {
    format!(
        r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= {rows} && rows <= {rows};
        assume cols >= {cols} && cols <= {cols};
        optimize rows * cols;
        header pkt {{ bit<32> key; bit<32> val; bit<32> d; }}
        struct metadata {{
            bit<32>[rows] index;
            bit<32>[rows] count;
            bit<32> min;
            bit<32> t0; bit<32> t1; bit<32> t2;
            bit<32> q;
            bit<8> flag;
            bit<32> boost;
            bit<32> slot;
        }}
        register<bit<32>>[cols][rows] cms;
        register<bit<64>>[8] acc;

        action mark() {{ meta.flag = 1; meta.t0 = meta.t0 + meta.boost; }}
        action unmark() {{ meta.flag = 0; }}
        table watch {{
            key = {{ hdr.key; }}
            actions = {{ mark; unmark; }}
            size = 64;
            default_action = unmark;
        }}

        action incr()[int i] {{
            meta.index[i] = hash(hdr.key, cols);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
            meta.count[i] = cms[i][meta.index[i]];
        }}
        action set_min()[int i] {{ meta.min = meta.count[i]; }}
        action mix0() {{ meta.t0 = hdr.key {op1} {k1}; }}
        action mix1() {{ meta.t1 = meta.t0 {op2} hdr.val; }}
        action mix2() {{
            if (meta.t1 {cmp} {k2}) {{ meta.t2 = meta.t1 + meta.t0; }}
            else {{ meta.t2 = hdr.key - {k2}; }}
        }}
        action divq() {{ meta.q = hdr.val / hdr.d; }}
        action accrue() {{
            meta.slot = hash(hdr.key, 8);
            acc[meta.slot] = acc[meta.slot] + hdr.val;
        }}

        control lookup() {{ apply {{ watch.apply(); }} }}
        control sketch() {{ apply {{ for (i < rows) {{ incr()[i]; }} }} }}
        control minimum() {{
            apply {{
                for (i < rows) {{
                    if (meta.count[i] < meta.min || meta.min == 0) {{ set_min()[i]; }}
                }}
            }}
        }}
        control arith() {{ apply {{ mix0(); mix1(); mix2(); divq(); accrue(); }} }}
        control Main() {{
            apply {{ lookup.apply(); sketch.apply(); minimum.apply(); arith.apply(); }}
        }}
    "#,
        rows = s.rows,
        cols = s.cols,
        op1 = s.op1,
        op2 = s.op2,
        cmp = s.cmp,
        k1 = s.k1,
        k2 = s.k2,
    )
}

fn build(s: &Spec, backend: Backend) -> Switch {
    let src = source(s);
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(&src).expect("compiles");
    let program = p4all_lang::parse(&src).expect("parses");
    let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
    sw.set_backend(backend);
    for (i, &k) in s.table_keys.iter().enumerate() {
        sw.install_entry("watch", vec![k], "mark", &[("boost", 10 + i as u64)]).unwrap();
    }
    sw
}

fn arith_op() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("+"), Just("-"), Just("*"), Just("=="), Just("!="), Just("&&"), Just("||")]
}

fn cmp_op() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("<"), Just("<="), Just(">"), Just(">="), Just("=="), Just("!=")]
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        2u64..=3,
        prop_oneof![Just(8u64), Just(16u64), Just(32u64)],
        arith_op(),
        arith_op(),
        cmp_op(),
        0u64..1000,
        0u64..1000,
        proptest::collection::vec(0u64..24, 0..8),
    )
        .prop_map(|(rows, cols, op1, op2, cmp, k1, k2, table_keys)| Spec {
            rows,
            cols,
            op1,
            op2,
            cmp,
            k1,
            k2,
            table_keys,
        })
}

/// `(key, val, d)` triples; `d = 0` makes `divq` fault and the packet drop.
fn trace_strategy(allow_faults: bool) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    let d = if allow_faults { 0u64..4 } else { 1u64..4 };
    proptest::collection::vec((0u64..24, 0u64..1000, d), 1..120)
}

fn packets(sw: &Switch, trace: &[(u64, u64, u64)]) -> Vec<Phv> {
    trace
        .iter()
        .map(|&(k, v, d)| sw.make_packet(&[("key", k), ("val", v), ("d", d)]).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Packet-by-packet lockstep: after every packet the full PHV matches
    /// slot for slot; after the trace the register files are identical.
    #[test]
    fn compiled_matches_interp_packet_by_packet(
        s in spec(),
        trace in trace_strategy(false),
    ) {
        let mut interp = build(&s, Backend::Interp);
        let mut fast = build(&s, Backend::Compiled);
        for (i, &(k, v, d)) in trace.iter().enumerate() {
            for sw in [&mut interp, &mut fast] {
                sw.begin_packet();
                sw.set_header("key", k).unwrap();
                sw.set_header("val", v).unwrap();
                sw.set_header("d", d).unwrap();
                sw.run_packet().unwrap();
            }
            prop_assert_eq!(
                interp.phv_snapshot(),
                fast.phv_snapshot(),
                "PHV diverges at packet {} of {:?}", i, trace
            );
        }
        prop_assert_eq!(interp.registers_snapshot(), fast.registers_snapshot());
    }

    /// Faulting traces: both backends drop the same packets and leave the
    /// same (rolled-back) register state behind.
    #[test]
    fn backends_agree_on_faulting_traces(
        s in spec(),
        trace in trace_strategy(true),
    ) {
        let mut interp = build(&s, Backend::Interp);
        let mut fast = build(&s, Backend::Compiled);
        let ti = packets(&interp, &trace);
        let tf = packets(&fast, &trace);
        let si = interp.run_trace(&ti, 1);
        let sf = fast.run_trace(&tf, 1);
        let expect_drops = trace.iter().filter(|&&(_, _, d)| d == 0).count() as u64;
        prop_assert_eq!(si.dropped, expect_drops);
        prop_assert_eq!(sf.dropped, expect_drops);
        prop_assert_eq!(interp.registers_snapshot(), fast.registers_snapshot());
        // PHV content after a *faulted* packet is unspecified (the packet
        // is dropped; only register rollback is contractual — the bytecode
        // engine runs in place while the interpreter double-buffers), so
        // the working PHV is only comparable when the last packet landed.
        if trace.last().is_some_and(|&(_, _, d)| d != 0) {
            prop_assert_eq!(interp.phv_snapshot(), fast.phv_snapshot());
        }
    }

    /// Sharded replay: the delta-sum merge over 2/4/8 workers reproduces
    /// the sequential register state exactly (counter registers sum;
    /// per-flow state is shard-private by the flow-hash partitioning).
    #[test]
    fn sharded_merge_matches_sequential(
        s in spec(),
        trace in trace_strategy(true),
    ) {
        let mut seq = build(&s, Backend::Interp);
        let ts = packets(&seq, &trace);
        let seq_stats = seq.run_trace(&ts, 1);
        for threads in [2usize, 4, 8] {
            let mut par = build(&s, Backend::Compiled);
            let tp = packets(&par, &trace);
            let stats = par.run_trace(&tp, threads);
            prop_assert_eq!(stats.dropped, seq_stats.dropped);
            prop_assert_eq!(
                seq.registers_snapshot(),
                par.registers_snapshot(),
                "merged registers diverge at {} threads", threads
            );
        }
    }
}

/// The bytecode engine's running-min update is a select-and-store; the
/// tree interpreter branches and stores only when the guard holds. They
/// must agree bit for bit even when the running-min slot arrives holding
/// bits above its width mask — reachable, because `Phv::slots` is `pub`
/// and `run_trace` copies an input PHV in raw.
#[test]
fn min_update_agrees_on_a_slot_holding_bits_above_its_mask() {
    const SRC: &str = r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= 2 && rows <= 2;
        assume cols >= 16 && cols <= 16;
        optimize rows * cols;
        header pkt { bit<32> key; }
        struct metadata { bit<32>[rows] index; bit<32>[rows] count; bit<8> min; }
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
    const ABOVE_MASK: u64 = 0x105;
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(SRC).expect("compiles");
    let program = p4all_lang::parse(SRC).expect("parses");
    // Every cell pre-set to `warm`, so each row counts `warm + 1`: below
    // 0x105 the first row's update is taken, above it neither is.
    for (warm, min_after) in [(0, 1), (1000, ABOVE_MASK)] {
        let mut sides = [Backend::Interp, Backend::Compiled].map(|backend| {
            let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
            sw.set_backend(backend);
            for row in 0..2 {
                for cell in 0..16 {
                    sw.write_register("cms", row, cell, warm).unwrap();
                }
            }
            let mut input = sw.make_packet(&[("key", 3)]).unwrap();
            // `min` is the only 8-bit field of the layout.
            let min_slot = input.masks.iter().position(|&m| m == 0xFF).expect("meta.min");
            assert_eq!(input.masks.iter().filter(|&&m| m == 0xFF).count(), 1);
            input.slots[min_slot] = ABOVE_MASK;
            assert_eq!(sw.run_trace(&[input], 1).dropped, 0);
            sw
        });
        let [interp, fast] = &mut sides;
        assert!(fast.dump_bytecode().contains("MinOrInit"), "the idiom no longer fuses");
        assert_eq!(interp.phv_snapshot(), fast.phv_snapshot(), "warm={warm}");
        assert_eq!(interp.registers_snapshot(), fast.registers_snapshot(), "warm={warm}");
        assert_eq!(fast.meta("min").unwrap(), min_after, "warm={warm}");
    }
}

/// A program whose faults all come before its first register write runs
/// without an undo log on the bytecode and native engines. A faulting
/// packet must still return the interpreter's exact error and leave every
/// register as it found it.
#[test]
fn faults_before_the_first_write_need_no_undo_log() {
    const SRC: &str = r#"
        symbolic int rows;
        assume rows >= 2 && rows <= 2;
        optimize rows;
        header pkt { bit<32> key; bit<32> val; bit<32> d; }
        struct metadata {
            bit<32>[4] arr; bit<32> q; bit<32> r;
            bit<32>[rows] index; bit<32>[rows] count; bit<32> min;
        }
        register<bit<32>>[32][rows] cms;
        action divq() { meta.q = hdr.val / hdr.d; }
        action pick() { meta.r = meta.arr[hdr.key] + meta.q; }
        action incr()[int i] {
            meta.index[i] = hash(meta.r, 32);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
            meta.count[i] = cms[i][meta.index[i]];
        }
        action set_min()[int i] { meta.min = meta.count[i]; }
        control Main() {
            apply {
                divq();
                pick();
                for (i < rows) { incr()[i]; }
                for (i < rows) {
                    if (meta.count[i] < meta.min || meta.min == 0) { set_min()[i]; }
                }
            }
        }
    "#;
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(SRC).expect("compiles");
    let program = p4all_lang::parse(SRC).expect("parses");
    let build = |backend: Backend| {
        let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
        sw.set_backend(backend);
        sw
    };
    let mut interp = build(Backend::Interp);
    assert!(interp.dump_bytecode().starts_with("undo log: elided\n"), "{}", interp.dump_bytecode());
    let mut engines = vec![build(Backend::Compiled)];
    if p4all_sim::rustc_available() {
        engines.push(build(Backend::Native));
    } else {
        eprintln!("faults_before_the_first_write_need_no_undo_log: rustc not on PATH, native skipped");
    }
    let step = |sw: &mut Switch, (key, val, d): (u64, u64, u64)| {
        sw.begin_packet();
        sw.set_header("key", key).unwrap();
        sw.set_header("val", val).unwrap();
        sw.set_header("d", d).unwrap();
        sw.run_packet()
    };
    let (mut faults, mut x) = (0, 0x9e37_79b9_7f4a_7c15u64);
    for i in 0..300u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // One packet in seven divides by zero, one in five indexes `arr`
        // out of bounds; the rest bump the sketch.
        let key = if i % 5 == 0 { 4 + x % 8 } else { x % 4 };
        let d = if i % 7 == 3 { 0 } else { 1 + x % 3 };
        let pkt = (key, x >> 40, d);
        let before = interp.registers_snapshot();
        let want = step(&mut interp, pkt);
        for sw in &mut engines {
            assert_eq!(step(sw, pkt), want, "packet {i} {pkt:?} on {:?}", sw.backend());
            if want.is_ok() {
                assert_eq!(sw.phv_snapshot(), interp.phv_snapshot(), "packet {i} on {:?}", sw.backend());
            }
            assert_eq!(sw.registers_snapshot(), interp.registers_snapshot(), "packet {i}");
        }
        if want.is_err() {
            faults += 1;
            assert_eq!(interp.registers_snapshot(), before, "packet {i} {want:?} wrote a register");
        }
    }
    // 60 out-of-bounds indices and 43 zero divisors, 9 packets with both.
    assert_eq!(faults, 94);
}

/// One guarded action per condition, each raising its own flag, over a
/// grid of boundary values for `hdr.a` and `hdr.b`: the bytecode engine
/// must leave the interpreter's PHV after every packet. `shape` is a test
/// the bytecode listing must print, so the case exercises the form it
/// names.
fn guards_agree(conds: &[&str], shape: &str) {
    let mut src = String::from("header pkt { bit<32> a; bit<32> b; }\nstruct metadata {");
    for i in 0..conds.len() {
        src += &format!(" bit<8> f{i};");
    }
    src += " }\n";
    for i in 0..conds.len() {
        src += &format!("action raise{i}() {{ meta.f{i} = 1; }}\n");
    }
    src += "control Main() { apply {";
    for (i, cond) in conds.iter().enumerate() {
        src += &format!(" if ({cond}) {{ raise{i}(); }}");
    }
    src += " } }\n";
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(&src).expect("compiles");
    let program = p4all_lang::parse(&src).expect("parses");
    let [mut interp, mut fast] = [Backend::Interp, Backend::Compiled].map(|backend| {
        let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
        sw.set_backend(backend);
        sw
    });
    let listing = fast.dump_bytecode();
    assert!(listing.contains(shape), "no `{shape}` in\n{listing}");
    let values = [0, 1, 2, 5, 6, 7, 0xFFFF_FFFE, 0xFFFF_FFFF];
    let mut raised = vec![0; conds.len()];
    for a in values {
        for b in values {
            for sw in [&mut interp, &mut fast] {
                sw.begin_packet();
                sw.set_header("a", a).unwrap();
                sw.set_header("b", b).unwrap();
                sw.run_packet().unwrap();
            }
            assert_eq!(interp.phv_snapshot(), fast.phv_snapshot(), "a={a} b={b}");
            for (i, n) in raised.iter_mut().enumerate() {
                *n += fast.meta(&format!("f{i}")).unwrap();
            }
        }
    }
    let packets = (values.len() * values.len()) as u64;
    assert!(raised.iter().all(|&n| 0 < n && n < packets), "a guard never switched: {raised:?}");
}

/// Guards over computed values keep the generic comparison: temp against
/// slot, immediate and temp, fused `&&`/`||` of two such, and the `JT` a
/// negation lowers to.
#[test]
fn guards_comparing_a_temp_agree_with_the_interpreter() {
    guards_agree(
        &[
            "hdr.a + 1 > hdr.b",
            "hdr.a - hdr.b != 0",
            "hdr.a * 2 == hdr.b + 2",
            "hdr.a < hdr.b + 1 && hdr.b - hdr.a <= 5",
            "hdr.a + hdr.b == 7 || hdr.a - 1 >= hdr.b",
            "!(hdr.a + 1 <= hdr.b)",
        ],
        "test: T(0) > S(1)",
    );
}

/// Two slots compared with each other keep the generic comparison too,
/// alone and fused with a slot–immediate test on either side.
#[test]
fn guards_comparing_two_slots_agree_with_the_interpreter() {
    guards_agree(
        &[
            "hdr.a < hdr.b",
            "hdr.a <= hdr.b",
            "hdr.a > hdr.b",
            "hdr.a >= hdr.b",
            "hdr.a == hdr.b",
            "hdr.a != hdr.b",
            "hdr.a < hdr.b || hdr.a == hdr.b",
            "hdr.a != hdr.b && 5 < hdr.a",
            "!(hdr.a >= hdr.b)",
        ],
        "test: S(0) < S(1)",
    );
}

/// NetCache reads `kvs[j][meta.kv_idx]`, and only installs set `kv_idx`,
/// so the build holds every install to `kv_idx < cells` and proves the
/// read in bounds. An install at `cells` must be refused with the same
/// typed error on every engine — for a new key and for one already
/// installed — and leave the table, the registers and every later packet
/// as they were. So must a key with a word too many or too few for the
/// table's one key field, which no engine could ever match.
#[test]
fn an_out_of_range_install_is_refused_alike_by_every_engine() {
    use p4all_elastic::apps::netcache;
    use p4all_sim::SimError;
    let mut opts = netcache::NetCacheOptions::default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    let src = netcache::source(&opts);
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(&src).expect("compiles");
    let program = p4all_lang::parse(&src).expect("parses");
    let mut backends = vec![Backend::Interp, Backend::Compiled];
    if p4all_sim::rustc_available() {
        backends.push(Backend::Native);
    } else {
        eprintln!("an_out_of_range_install_is_refused_alike_by_every_engine: native skipped");
    }
    let cells = 256;
    let refused =
        SimError::DataOutOfRange { field: "meta.kv_idx".into(), value: cells, limit: cells };
    let mut engines: Vec<Switch> = backends
        .into_iter()
        .map(|backend| {
            let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
            assert_eq!(sw.register_cells("kvs", 0).unwrap() as u64, cells);
            assert_eq!(sw.install_contracts().collect::<Vec<_>>(), [("kv_idx", cells)]);
            sw.set_backend(backend);
            if backend == Backend::Native {
                sw.prepare_native().expect("native builds");
            }
            for key in 0..8u64 {
                let (slice, idx) = (key % 4, cells - 1 - key);
                sw.write_register("kvs", slice as usize, idx as usize, 1000 + key).unwrap();
                let data = [("kv_slice", slice), ("kv_idx", idx)];
                sw.install_entry("kv_cache", vec![key], "kv_hit_act", &data).unwrap();
            }
            let before = (sw.table_len("kv_cache").unwrap(), sw.registers_snapshot());
            for key in [3, 99] {
                let data = [("kv_slice", 0), ("kv_idx", cells)];
                let got = sw.install_entry("kv_cache", vec![key], "kv_hit_act", &data);
                assert_eq!(got, Err(refused.clone()), "key {key} on {backend:?}");
            }
            for key in [vec![], vec![3, 3]] {
                let got = key.len();
                let data = [("kv_slice", 0), ("kv_idx", 0)];
                let arity = SimError::KeyArity { table: "kv_cache".into(), expected: 1, got };
                let refused = sw.install_entry("kv_cache", key, "kv_hit_act", &data);
                assert_eq!(refused, Err(arity), "a {got}-word key on {backend:?}");
            }
            assert_eq!((sw.table_len("kv_cache").unwrap(), sw.registers_snapshot()), before);
            sw
        })
        .collect();
    for key in 0..16u64 {
        let mut seen = Vec::new();
        for sw in &mut engines {
            sw.begin_packet();
            sw.set_header("key", key).unwrap();
            sw.run_packet().unwrap_or_else(|e| panic!("key {key} on {:?}: {e}", sw.backend()));
            seen.push((sw.phv_snapshot(), sw.registers_snapshot()));
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "key {key}: engines disagree");
        let served = engines[0].meta("kv_val").unwrap();
        let stored = if key < 8 { 1000 + key } else { 0 };
        assert_eq!(served, stored, "key {key}: the kept entry serves");
    }
}
