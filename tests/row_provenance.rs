//! Every encoded row, pinned: name, comparison, right-hand side, terms and
//! full provenance, for the evaluation's programs:
//!
//! - the four apps on `paper_eval(1<<16)`;
//! - NetCache at the eight Figure 12 points (`paper_eval(2^13..2^20)`);
//! - joint-3tenant (NetCache + VLAN + LPM) on `paper_eval(1<<16)`.
//!
//! Each row renders to one line (coefficients and right-hand sides as
//! their bit patterns, so "equal" means bit for bit). The golden,
//! `tests/golden/row_provenance.digest`, holds one line per program: its
//! name, a 64-bit digest of all its rows and a 32-bit digest of each row.
//! A mismatch names the program and prints the first row whose digest
//! moved. Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test row_provenance
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use p4all_core::bounds::{all_upper_bounds, DEFAULT_MAX_UNROLL};
use p4all_core::depgraph::build_full;
use p4all_core::elaborate::elaborate;
use p4all_core::ilpgen::{encode, Encoding};
use p4all_core::ir::instantiate;
use p4all_core::{merge_tenants, TenantProgram};
use p4all_elastic::apps::{conquest, lpm, netcache, precision, sketchlearn, vlan};
use p4all_lang::Tenant;
use p4all_pisa::{presets, TargetSpec};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/row_provenance.digest")
}

/// The front half and the encoder, as `CompileCtx::compile` runs them.
fn encoding(src: &str, target: &TargetSpec) -> Encoding {
    let program = Arc::new(p4all_lang::parse(src).expect("parses"));
    let info = elaborate(&program).expect("elaborates");
    let bounds = all_upper_bounds(&info, target, DEFAULT_MAX_UNROLL).expect("bounds");
    let unrolled = instantiate(&info, &bounds).expect("unrolls");
    let graph = build_full(&unrolled);
    encode(&info, &unrolled, &graph, target).expect("encodes")
}

/// One line per row.
fn render(enc: &Encoding) -> Vec<String> {
    let model = &enc.model;
    let mut lines = Vec::with_capacity(model.num_constraints());
    for (i, c) in model.constraints().iter().enumerate() {
        let mut line = format!("{i} {} {} {:016x} [", c.name, c.cmp, c.rhs.to_bits());
        for &(v, k) in &c.terms {
            write!(line, " {}:{:016x}", v.index(), k.to_bits()).unwrap();
        }
        let p = enc.provenance_of(i).expect("every generated row has provenance");
        write!(
            line,
            " ] {:?} | {} | {:?} | {:?} | {:?}",
            p.resource, p.detail, p.symbolics, p.span, p.tenant
        )
        .unwrap();
        lines.push(line);
    }
    lines
}

/// FNV-1a, 64 bits.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn netcache_src() -> String {
    let mut opts = netcache::NetCacheOptions::default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    netcache::source(&opts)
}

fn joint_3tenant_src() -> String {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 2;
    nc.kvs.max_slices = Some(3);
    let vlan_opts = vlan::VlanOptions { max_cells: Some(4096), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(4096), ..Default::default() };
    let tenants = [
        TenantProgram::new(Tenant::new("cache", 2.0).unwrap(), netcache::source(&nc)),
        TenantProgram::new(Tenant::new("filter", 1.0).unwrap(), vlan::source(&vlan_opts)),
        TenantProgram::new(Tenant::new("routes", 1.0).unwrap(), lpm::source(&lpm_opts)),
    ];
    merge_tenants(&tenants).expect("tenants merge").src
}

/// `(program, rendered rows)` for every pinned encoding.
fn programs() -> Vec<(String, Vec<String>)> {
    let eval = presets::paper_eval(1 << 16);
    let mut out = Vec::new();
    let apps = [
        ("NetCache", netcache_src()),
        ("SketchLearn", sketchlearn::source(&Default::default())),
        ("Precision", precision::source(&Default::default())),
        ("ConQuest", conquest::source(&Default::default())),
    ];
    for (name, src) in &apps {
        out.push((name.to_string(), render(&encoding(src, &eval))));
    }
    let src = netcache_src();
    for shift in 13..=20 {
        let target = presets::paper_eval(1 << shift);
        out.push((format!("fig12@2^{shift}"), render(&encoding(&src, &target))));
    }
    out.push(("joint-3tenant".to_string(), render(&encoding(&joint_3tenant_src(), &eval))));
    out
}

/// `program digest row-digests…`, the program's line of the golden.
fn golden_line(name: &str, rows: &[String]) -> String {
    let mut line = format!("{name} {:016x}", digest(rows.join("\n").as_bytes()));
    for row in rows {
        write!(line, " {:08x}", digest(row.as_bytes()) as u32).unwrap();
    }
    line
}

#[test]
fn every_row_and_its_provenance_are_as_recorded() {
    let programs = programs();
    let got: Vec<String> = programs.iter().map(|(name, rows)| golden_line(name, rows)).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), got.join("\n") + "\n").expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden present");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(want.len(), got.len(), "the golden pins another number of programs");
    for ((name, rows), (got, want)) in programs.iter().zip(got.iter().zip(want)) {
        if *got == want {
            continue;
        }
        let (got, want): (Vec<&str>, Vec<&str>) =
            (got.split(' ').collect(), want.split(' ').collect());
        assert_eq!(want[0], name, "the golden pins its programs in another order");
        // Fields 2.. are the row digests; the first that differs names the row.
        let first = (2..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i));
        panic!(
            "{name}: the encoding moved ({} rows, {} recorded); first differing row:\n{}",
            rows.len(),
            want.len() - 2,
            first.and_then(|i| rows.get(i - 2)).map_or("(none shown)", String::as_str)
        );
    }
}
