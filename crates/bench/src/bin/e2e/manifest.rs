//! The three workloads' inputs, frozen under the benchmark's own path: the
//! option lines each program is rendered from, the target it compiles
//! for, the objective its layout must reach, and the trace it replays.
//! Nothing here comes from `crates/bench/src/lib.rs`; a change to that
//! file cannot move the benchmark's inputs.

use p4all_core::TenantProgram;
use p4all_elastic::apps::{conquest, lpm, netcache, precision, sketchlearn, vlan};
use p4all_lang::Tenant;
use p4all_pisa::{presets, TargetSpec};

/// One single-program compile and the objective pinned for it.
pub struct App {
    /// Names the `core.compile.<name>_s` row.
    pub name: &'static str,
    pub src: String,
    pub target: TargetSpec,
    pub objective: f64,
}

/// One joint compile and the objective pinned for it.
pub struct Joint {
    pub tenants: Vec<TenantProgram>,
    pub target: TargetSpec,
    pub objective: f64,
}

/// What one compile operation of a workload consists of.
pub enum Unit {
    /// Each app on a fresh context, round-robin; `replay` indexes the app
    /// whose program the rest of the path runs.
    Apps { apps: Vec<App>, replay: usize },
    /// One `compile_joint`; the merged program is replayed.
    Joint(Joint),
    /// One source at several memory sizes through one shared context;
    /// `replay` indexes the point whose program the rest of the path runs.
    Sweep { points: Vec<App>, replay: usize },
}

/// Names the NetCache program gives its cache table, registers and fields
/// (`tenant::`-prefixed inside a joint program).
pub struct KvNames {
    pub table: String,
    pub hit_action: String,
    pub hit_meta: String,
    pub min_meta: String,
    pub slice_meta: String,
    pub idx_meta: String,
    pub kv_register: String,
    pub cms_register: String,
    pub key_field: String,
}

pub struct VlanNames {
    pub table: String,
    pub permit_action: String,
    pub key_field: String,
}

/// The FIFO cache controller of `sweep_churn`. It serves its own key
/// stream, not the replayed trace: keys are eight bytes each, so a stream
/// long and wide enough to keep the cache churning still fits L2.
pub struct Controller {
    /// Packets the controller handles per round.
    pub chunk: usize,
    /// A miss qualifies for promotion once the sketch estimate is here.
    pub threshold: u64,
    /// The sketch is cleared every this many packets.
    pub clear_every: usize,
    /// The key stream: `draws` seeded Zipf(`alpha`) draws over `keys` keys.
    pub keys: u64,
    pub alpha: f64,
    pub draws: usize,
}

pub struct Workload {
    pub unit: Unit,
    pub kv: Option<KvNames>,
    pub vlan: Option<VlanNames>,
    /// Share of the cache capacity (and of the VLAN keys) installed.
    pub fill: f64,
    pub packets: usize,
    pub keys: u64,
    pub alpha: f64,
    /// Replay passes of each engine per round.
    pub passes: usize,
    /// Set-ups per run, each a sample of `setup_s`.
    pub setups: usize,
    pub controller: Option<Controller>,
    /// Other joints the traced run compiles, each a row of its own: the
    /// row's name, the joint, how often.
    pub extra_joints: Vec<(&'static str, Joint, usize)>,
    /// Solve the unit's model once more with two solver threads.
    pub threads2: bool,
}

fn netcache_opts(max_rows: u64, max_slices: u64) -> netcache::NetCacheOptions {
    let mut opts = netcache::NetCacheOptions::default();
    opts.cms.max_rows = max_rows;
    opts.kvs.max_slices = Some(max_slices);
    opts
}

fn kv_names(opts: &netcache::NetCacheOptions, prefix: &str) -> KvNames {
    let n = netcache::runtime_config(opts);
    let p = |s: String| format!("{prefix}{s}");
    KvNames {
        table: p(n.cache_table),
        hit_action: p(n.hit_action),
        hit_meta: p(n.hit_flag_meta),
        min_meta: p(n.min_meta),
        slice_meta: p(n.slice_meta),
        idx_meta: p(n.idx_meta),
        kv_register: p(n.kv_register),
        cms_register: p(n.cms_register),
        key_field: p(n.key_header),
    }
}

/// NetCache, a VLAN filter and LPM routing sharing one pipeline.
fn joint_tenants(max_rows: u64, max_slices: u64, max_cells: u64) -> Vec<TenantProgram> {
    let vlan_opts = vlan::VlanOptions { max_cells: Some(max_cells), ..Default::default() };
    let lpm_opts = lpm::LpmOptions { max_cells: Some(max_cells), ..Default::default() };
    let tenant = |name: &str, weight: f64, src: String| {
        TenantProgram::new(Tenant::new(name, weight).expect("plain tenant name"), src)
    };
    vec![
        tenant("cache", 2.0, netcache::source(&netcache_opts(max_rows, max_slices))),
        tenant("filter", 1.0, vlan::source(&vlan_opts)),
        tenant("routes", 1.0, lpm::source(&lpm_opts)),
    ]
}

/// `joint-3tenant`: the plain three-tenant joint, solved at the root.
fn joint3() -> Joint {
    Joint {
        tenants: joint_tenants(2, 3, 4096),
        target: presets::paper_eval(1 << 16),
        objective: 15360.0,
    }
}

/// `joint-3tenant-mid`, the unit of `joint_tree`: 77 nodes, 15 cuts, 16
/// strong-branching LPs, the tree 97 % of a 0.9 s solve. The smallest
/// search found between the root-solved plain joint and `-xl`; the
/// neighbouring sizes close at the root or need thousands of nodes.
fn joint_mid() -> Joint {
    Joint {
        tenants: joint_tenants(4, 2, 8192),
        target: presets::paper_eval(1 << 17),
        objective: 34816.0,
    }
}

/// `joint-3tenant-xl`: 352 nodes, 18 cuts, 3.4-4 s and 160 MB a compile.
/// Too few fit a run for a steady `compile_s` (see the README), so it is
/// a row of the traced run.
fn joint_xl() -> Joint {
    Joint {
        tenants: joint_tenants(4, 4, 8192),
        target: presets::paper_eval(1 << 17),
        objective: 34816.0,
    }
}

fn joint_kv() -> Option<KvNames> {
    Some(kv_names(&netcache_opts(2, 3), "cache::"))
}

fn joint_vlan() -> Option<VlanNames> {
    Some(VlanNames {
        table: "filter::vlan_acl".into(),
        permit_action: "filter::vlan_permit".into(),
        key_field: "filter::vlan".into(),
    })
}

/// NetCache with at most 3 sketch rows and 4 value slices on
/// `paper_eval(memory_bits)`; the objective is linear in the memory.
fn netcache_app(memory_bits: u64) -> App {
    App {
        name: "netcache",
        src: netcache::source(&netcache_opts(3, 4)),
        target: presets::paper_eval(memory_bits),
        objective: 3686.4 * memory_bits as f64 / 65536.0,
    }
}

impl Workload {
    /// Build the named workload, rendering every source text. `smoke`
    /// keeps programs and checks and shrinks the trace; it also leaves out
    /// the 352-node joint, which alone would outlast the whole smoke run.
    pub fn build(name: &str, smoke: bool) -> Option<Workload> {
        let scale = |n: usize| if smoke { n / 50 } else { n };
        let t16 = presets::paper_eval(1 << 16);
        let base = Workload {
            unit: Unit::Sweep { points: Vec::new(), replay: 0 },
            kv: None,
            vlan: None,
            fill: 1.0,
            // A trace is kept inside L2 (270-440 bytes of PHV a packet, 2 MiB
            // a core): a replay that streams its PHVs from the shared L3
            // follows the neighbours' memory traffic, not the engine. With
            // 100 k packets the native engine read 28 % apart between two
            // quarters of an hour on one host; compiles, whose working set
            // is small, stayed within 3 %.
            packets: scale(4096),
            keys: 10_000,
            alpha: 0.99,
            // A pass of each engine takes a millisecond or less.
            passes: 8,
            setups: if smoke { 1 } else { 5 },
            controller: None,
            extra_joints: Vec::new(),
            threads2: false,
        };
        let w = match name {
            "apps_cold" => Workload {
                unit: Unit::Apps {
                    apps: vec![
                        netcache_app(1 << 16),
                        App {
                            name: "sketchlearn",
                            src: sketchlearn::source(&Default::default()),
                            target: t16.clone(),
                            objective: 16384.0,
                        },
                        App {
                            name: "precision",
                            src: precision::source(&Default::default()),
                            target: t16.clone(),
                            objective: 6144.0,
                        },
                        App {
                            name: "conquest",
                            src: conquest::source(&Default::default()),
                            target: t16,
                            objective: 8192.0,
                        },
                    ],
                    // SketchLearn: the one engine measurement on a pure
                    // sketch program, and the slowest of the four to compile.
                    replay: 1,
                },
                ..base
            },
            "joint_tree" => Workload {
                unit: Unit::Joint(joint_mid()),
                kv: joint_kv(),
                vlan: joint_vlan(),
                fill: 0.5,
                // A round takes a second, so a run has only forty.
                passes: 16,
                // A set-up holds a compile of more than a second.
                setups: if smoke { 1 } else { 3 },
                extra_joints: vec![
                    ("core.compile.joint3_s", joint3(), 5),
                    ("core.compile.joint_xl_s", joint_xl(), usize::from(!smoke)),
                ],
                threads2: true,
                ..base
            },
            "sweep_churn" => Workload {
                unit: Unit::Sweep {
                    points: (13..=20).map(|shift| netcache_app(1 << shift)).collect(),
                    // 2^15 bits a stage: a 1024-key store, registers that
                    // stay in cache, and a cache the controller can fill.
                    replay: 2,
                },
                kv: Some(kv_names(&netcache_opts(3, 4), "")),
                controller: Some(Controller {
                    chunk: scale(100_000),
                    threshold: 2,
                    clear_every: scale(100_000),
                    keys: 100_000,
                    alpha: 0.9,
                    draws: scale(100_000),
                }),
                ..base
            },
            _ => return None,
        };
        Some(w)
    }
}
