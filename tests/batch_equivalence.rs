//! # Batched replay differential suite
//!
//! SoA batch execution ([`Switch::set_batch_width`]) must be **bit-identical**
//! to scalar per-packet replay: same register files, same final PHV, same
//! drop count, same per-stage costs. This suite enforces that over random
//! programs and traces (proptest) for batch widths 1, 7, and 64 — widths
//! chosen so trace lengths are rarely divisible by them, exercising the
//! ragged final batch — and over faulting traces, where a faulting lane must
//! roll back its own writes and leave the rest of its batch untouched.
//!
//! Programs reuse the randomized template family of `backend_equivalence.rs`
//! (CMS + mergeable accumulator + match-action table + a header-controlled
//! division fault), in which each register is touched from one statement. A
//! second, pinned family ([`READBACK`]) covers what that one cannot: a
//! register written in one control and read back in a later one, so every
//! packet observes the packets before it.

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

fn build(s: &Spec) -> Switch {
    let src = source(s);
    let c = Compiler::new(presets::paper_eval(1 << 15)).compile(&src).expect("compiles");
    let program = p4all_lang::parse(&src).expect("parses");
    let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");
    sw.set_backend(Backend::Compiled);
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
/// Lengths land anywhere in `1..150`, so most traces are not divisible by
/// the batch widths under test (1, 7, 64) and the ragged tail batch runs.
fn trace_strategy(allow_faults: bool) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    let d = if allow_faults { 0u64..4 } else { 1u64..4 };
    proptest::collection::vec((0u64..24, 0u64..1000, d), 1..150)
}

fn packets(sw: &Switch, trace: &[(u64, u64, u64)]) -> Vec<Phv> {
    trace
        .iter()
        .map(|&(k, v, d)| sw.make_packet(&[("key", k), ("val", v), ("d", d)]).unwrap())
        .collect()
}

const WIDTHS: [usize; 3] = [1, 7, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clean traces: every batch width reproduces the scalar run exactly —
    /// registers, final PHV, drop count, and per-stage costs.
    #[test]
    fn batched_replay_is_bit_identical_to_scalar(
        s in spec(),
        trace in trace_strategy(false),
    ) {
        let mut scalar = build(&s);
        let ts = packets(&scalar, &trace);
        let s_stats = scalar.run_trace(&ts, 1);
        prop_assert_eq!(s_stats.batch_width, 0);
        for width in WIDTHS {
            let mut batched = build(&s);
            batched.set_batch_width(width);
            let tb = packets(&batched, &trace);
            let b_stats = batched.run_trace(&tb, 1);
            // Width 1 is below the SoA threshold and runs the scalar path.
            let want_width = if width >= 2 { width } else { 0 };
            prop_assert_eq!(b_stats.batch_width, want_width, "width {}", width);
            prop_assert_eq!(b_stats.dropped, s_stats.dropped, "width {}", width);
            prop_assert_eq!(
                b_stats.stage_cost.clone(), s_stats.stage_cost.clone(),
                "stage cost diverges at width {}", width
            );
            prop_assert_eq!(
                batched.registers_snapshot(),
                scalar.registers_snapshot(),
                "registers diverge at width {} on {:?}", width, trace
            );
            prop_assert_eq!(
                batched.phv_snapshot(),
                scalar.phv_snapshot(),
                "final PHV diverges at width {} on {:?}", width, trace
            );
        }
    }

    /// Faulting traces: a faulting lane is dropped and rolled back like a
    /// scalar packet, so drops, rollbacks, and register state all match the
    /// per-packet run bit for bit.
    #[test]
    fn batched_replay_agrees_on_faulting_traces(
        s in spec(),
        trace in trace_strategy(true),
    ) {
        let mut scalar = build(&s);
        let ts = packets(&scalar, &trace);
        let s_stats = scalar.run_trace(&ts, 1);
        let expect_drops = trace.iter().filter(|&&(_, _, d)| d == 0).count() as u64;
        prop_assert_eq!(s_stats.dropped, expect_drops);
        for width in WIDTHS {
            let mut batched = build(&s);
            batched.set_batch_width(width);
            let tb = packets(&batched, &trace);
            let b_stats = batched.run_trace(&tb, 1);
            prop_assert_eq!(b_stats.dropped, expect_drops, "width {}", width);
            prop_assert_eq!(
                b_stats.stage_cost.clone(), s_stats.stage_cost.clone(),
                "stage cost diverges at width {}", width
            );
            prop_assert_eq!(
                batched.registers_snapshot(),
                scalar.registers_snapshot(),
                "registers diverge at width {} on {:?}", width, trace
            );
            // The working PHV after a dropped packet is unspecified; only
            // compare it when the last packet completed.
            if trace.last().is_some_and(|&(_, _, d)| d != 0) {
                prop_assert_eq!(
                    batched.phv_snapshot(),
                    scalar.phv_snapshot(),
                    "final PHV diverges at width {} on {:?}", width, trace
                );
            }
        }
    }

    /// Batched + sharded: batch width composes with multi-threaded replay;
    /// the merged register state still matches the sequential scalar run.
    #[test]
    fn batched_sharded_replay_matches_scalar(
        s in spec(),
        trace in trace_strategy(true),
    ) {
        let mut scalar = build(&s);
        let ts = packets(&scalar, &trace);
        let s_stats = scalar.run_trace(&ts, 1);
        for width in [7usize, 64] {
            let mut batched = build(&s);
            batched.set_batch_width(width);
            let tb = packets(&batched, &trace);
            let b_stats = batched.run_trace(&tb, 4);
            prop_assert_eq!(b_stats.dropped, s_stats.dropped, "width {}", width);
            prop_assert_eq!(
                batched.registers_snapshot(),
                scalar.registers_snapshot(),
                "registers diverge at width {} x 4 threads on {:?}", width, trace
            );
        }
    }
}

/// Deterministic pin: the exact widths from the acceptance criteria against
/// trace lengths chosen to never divide evenly (ragged final batch) plus
/// the exact-multiple and single-packet edges.
#[test]
fn pinned_ragged_lengths_match_scalar() {
    let s = Spec {
        rows: 3,
        cols: 16,
        op1: "+",
        op2: "*",
        cmp: "<",
        k1: 17,
        k2: 400,
        table_keys: vec![1, 5, 9],
    };
    for len in [1usize, 6, 13, 63, 64, 65, 130] {
        let trace: Vec<(u64, u64, u64)> =
            (0..len as u64).map(|i| (i % 24, i * 7 + 3, 1 + i % 3)).collect();
        let mut scalar = build(&s);
        let ts = packets(&scalar, &trace);
        let s_stats = scalar.run_trace(&ts, 1);
        for width in WIDTHS {
            let mut batched = build(&s);
            batched.set_batch_width(width);
            let tb = packets(&batched, &trace);
            let b_stats = batched.run_trace(&tb, 1);
            assert_eq!(b_stats.dropped, s_stats.dropped, "len {len} width {width}");
            assert_eq!(b_stats.stage_cost, s_stats.stage_cost, "len {len} width {width}");
            assert_eq!(
                batched.registers_snapshot(),
                scalar.registers_snapshot(),
                "len {len} width {width}"
            );
            assert_eq!(batched.phv_snapshot(), scalar.phv_snapshot(), "len {len} width {width}");
        }
    }
}

/// `seen[0]` counts packets in `tally` and is read back into `meta.order` by
/// `recall`, a later control: packet `k` must see exactly the `k` earlier
/// surviving increments, so any reordering of packets across the write and
/// the read-back shows up in `last` (a register) and in the final PHV.
/// `hdr.d == 0` faults between the two, after `seen` was bumped.
const READBACK: &str = r#"
    header pkt { bit<32> key; bit<32> d; }
    struct metadata { bit<32> q; bit<32> order; }
    register<bit<32>>[1] seen;
    register<bit<32>>[32] last;
    action tally() { seen[0] = seen[0] + 1; }
    action divide() { meta.q = hdr.key / hdr.d; }
    action recall() { meta.order = seen[0]; }
    action stamp() { last[hdr.key] = meta.order; }
    control count() { apply { tally(); } }
    control check() { apply { divide(); } }
    control readback() { apply { recall(); stamp(); } }
    control Main() { apply { count.apply(); check.apply(); readback.apply(); } }
"#;

/// The read-back family with a faulting packet mid-batch, at widths
/// {2, 7, 64}: single-threaded replay equals scalar in registers, drops,
/// stage costs and final PHV. Sharded replay reorders packets across
/// workers, so there the order-dependent `last` is out of contract and
/// `seen`, drops and stage costs must still match.
#[test]
fn readback_across_controls_with_mid_batch_fault_matches_scalar() {
    let switch = || {
        let c = Compiler::new(presets::paper_eval(1 << 15)).compile(READBACK).expect("compiles");
        let program = p4all_lang::parse(READBACK).expect("parses");
        Switch::build(&c.concrete, &program).expect("sim builds")
    };
    // Packets 3 and 40 fault: lane 3 of the first batch at widths 7 and
    // 64, lane 1 of the second batch at width 2.
    let packets = |sw: &Switch| -> Vec<Phv> {
        (0..70u64)
            .map(|i| {
                let d = if i == 3 || i == 40 { 0 } else { 1 + i % 3 };
                sw.make_packet(&[("key", i % 32), ("d", d)]).unwrap()
            })
            .collect()
    };
    let mut scalar = switch();
    let s_stats = scalar.run_trace(&packets(&scalar), 1);
    assert_eq!(s_stats.dropped, 2);
    assert_eq!(scalar.read_register("seen", 0, 0).unwrap(), 68);
    for width in [2usize, 7, 64] {
        let mut batched = switch();
        batched.set_batch_width(width);
        let b_stats = batched.run_trace(&packets(&batched), 1);
        assert_eq!(b_stats.batch_width, width);
        assert_eq!(b_stats.dropped, s_stats.dropped, "width {width}");
        assert_eq!(b_stats.stage_cost, s_stats.stage_cost, "width {width}");
        assert_eq!(batched.registers_snapshot(), scalar.registers_snapshot(), "width {width}");
        assert_eq!(batched.phv_snapshot(), scalar.phv_snapshot(), "width {width}");

        let mut sharded = switch();
        sharded.set_batch_width(width);
        let p_stats = sharded.run_trace(&packets(&sharded), 4);
        assert_eq!(p_stats.dropped, s_stats.dropped, "width {width} sharded");
        assert_eq!(p_stats.stage_cost, s_stats.stage_cost, "width {width} sharded");
        assert_eq!(sharded.read_register("seen", 0, 0).unwrap(), 68, "width {width} sharded");
    }
}
