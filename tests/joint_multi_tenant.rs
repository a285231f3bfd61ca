//! The ISSUE acceptance path end to end: three tenants — NetCache plus
//! the VLAN-filter and LPM-routing scenario apps — jointly compiled into
//! ONE pipeline, the layout verified against every tenant's assumes, and
//! the merged switch replayed identically on all three simulator
//! backends (interp, bytecode, native codegen) and under sharded replay.
//!
//! Bounds match `examples/p4all/` (the CI smoke job inputs): small
//! elastic upper bounds and a 64 Kb/stage eval target keep the joint ILP
//! solve well under a second.

use p4all_core::{verify_joint, CompileCtx, CompileOptions, JointCompilation, TenantProgram};
use p4all_elastic::apps::{lpm, netcache, vlan};
use p4all_lang::Tenant;
use p4all_pisa::presets;
use p4all_sim::{Backend, Switch};

fn tenants() -> Vec<TenantProgram> {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 2;
    nc.kvs.max_slices = Some(3);
    let vlan_opts = vlan::VlanOptions { max_cells: Some(4096), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(4096), ..Default::default() };
    vec![
        TenantProgram::new(Tenant::new("cache", 2.0).unwrap(), netcache::source(&nc)),
        TenantProgram::new(Tenant::new("filter", 1.0).unwrap(), vlan::source(&vlan_opts)),
        TenantProgram::new(Tenant::new("routes", 1.0).unwrap(), lpm::source(&lpm_opts)),
    ]
}

fn compile() -> JointCompilation {
    let mut ctx = CompileCtx::new(CompileOptions::default());
    ctx.compile_joint(&tenants(), &presets::paper_eval(1 << 16))
        .expect("three tenants fit the 64 Kb/stage eval target")
}

#[test]
fn three_tenants_share_one_pipeline_and_verify() {
    let jc = compile();
    let target = presets::paper_eval(1 << 16);

    // One layout, verified against the merged program AND each tenant's
    // own assumes independently.
    verify_joint(&jc.joint, &jc.compilation.layout, &target)
        .expect("joint layout must satisfy every tenant's contract");

    // Per-tenant reports in merge (descending-weight) order, each with a
    // live structure and local symbol names.
    assert_eq!(jc.tenants.len(), 3);
    assert_eq!(jc.tenants[0].name, "cache");
    for t in &jc.tenants {
        let u = t.utility.unwrap_or_else(|| panic!("tenant `{}` utility evaluates", t.name));
        assert!(u > 0.0, "tenant `{}` got zero utility", t.name);
        assert!(
            t.symbol_values.keys().all(|k| !k.contains("::")),
            "tenant `{}` report must use local names: {:?}",
            t.name,
            t.symbol_values
        );
    }

    // The weighted split re-sums to the single joint ILP objective.
    let obj = jc.compilation.layout.objective;
    assert!(
        (jc.weighted_utility() - obj).abs() <= 1e-6 * obj.abs().max(1.0),
        "weighted utility {} vs objective {obj}",
        jc.weighted_utility()
    );

    // The merged layout keeps per-tenant register namespaces.
    for reg in ["cache::cms", "filter::vlan_ctr", "routes::lpm"] {
        assert!(
            jc.compilation.layout.symbol_values.keys().any(|k| k.starts_with("cache::"))
                && jc.joint.merged.register(reg).is_some(),
            "merged program must keep register `{reg}`"
        );
    }
}

#[test]
fn joint_switch_replays_identically_on_all_backends() {
    let jc = compile();
    let program = p4all_lang::parse(&jc.joint.src).expect("merged source parses");

    // Every header field of every tenant, in declaration order; values
    // are a deterministic mix masked to the field width.
    let fields: Vec<(String, u32)> = program
        .headers
        .iter()
        .flat_map(|h| h.fields.iter().cloned())
        .collect();
    assert!(fields.iter().all(|(n, _)| n.contains("::")), "header fields are namespaced");
    let value = |pkt: usize, field: usize, bits: u32| -> u64 {
        let raw = (pkt as u64).wrapping_mul(0x9e37_79b9).wrapping_add(field as u64 * 97 + 13);
        raw & ((1u64 << bits.min(48)) - 1)
    };

    let build = |backend: Backend| -> Switch {
        let mut sw = Switch::build(&jc.compilation.concrete, &program)
            .expect("merged program builds one switch");
        sw.set_backend(backend);
        sw
    };
    let mut interp = build(Backend::Interp);
    let mut fast = build(Backend::Compiled);
    let mut native = if p4all_sim::rustc_available() {
        let mut sw = build(Backend::Native);
        sw.prepare_native().expect("native codegen compiles the merged program");
        Some(sw)
    } else {
        None
    };

    const PACKETS: usize = 64;
    let step = |sw: &mut Switch, pkt: usize| {
        sw.begin_packet();
        for (i, (name, bits)) in fields.iter().enumerate() {
            sw.set_header(name, value(pkt, i, *bits)).expect("namespaced field exists");
        }
        sw.run_packet().expect("no faults in these tenants");
    };
    for pkt in 0..PACKETS {
        step(&mut interp, pkt);
        step(&mut fast, pkt);
        assert_eq!(
            interp.phv_snapshot(),
            fast.phv_snapshot(),
            "interp vs bytecode PHV at packet {pkt}"
        );
        if let Some(nat) = native.as_mut() {
            step(nat, pkt);
            assert_eq!(
                interp.phv_snapshot(),
                nat.phv_snapshot(),
                "interp vs native PHV at packet {pkt}"
            );
        }
    }
    let baseline = interp.registers_snapshot();
    assert_eq!(baseline, fast.registers_snapshot(), "interp vs bytecode registers");
    if let Some(nat) = &native {
        assert_eq!(baseline, nat.registers_snapshot(), "interp vs native registers");
    }

    // Whole-trace replay — 1 shard (interp), 4 shards (bytecode with the
    // delta-sum merge), 1 shard (native) — reproduces the lockstep state.
    let mut replays: Vec<(&str, &mut Switch, usize)> =
        vec![("interp x1", &mut interp, 1), ("bytecode x4", &mut fast, 4)];
    if let Some(nat) = native.as_mut() {
        replays.push(("native x1", nat, 1));
    }
    for (label, sw, shards) in replays {
        let pkts: Vec<_> = (0..PACKETS)
            .map(|pkt| {
                let assigns: Vec<(&str, u64)> = fields
                    .iter()
                    .enumerate()
                    .map(|(i, (name, bits))| (name.as_str(), value(pkt, i, *bits)))
                    .collect();
                sw.make_packet(&assigns).expect("packet builds")
            })
            .collect();
        sw.reset();
        let stats = sw.run_trace(&pkts, shards);
        assert_eq!(stats.dropped, 0, "{label}: no packet faults expected");
        assert_eq!(
            sw.registers_snapshot(),
            baseline,
            "{label}: replay registers diverge from lockstep"
        );
    }
}
