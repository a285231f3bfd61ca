//! End-to-end tests of the `p4allc` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p4allc"))
}

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/p4all").join(name)
}

#[test]
fn compiles_cms_example() {
    let out = bin()
        .arg(example("cms.p4all"))
        .args(["--target", "paper-example", "--emit", "layout"])
        .output()
        .expect("p4allc runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("symbolic assignment"), "{stdout}");
    assert!(stdout.contains("rows ="), "{stdout}");
}

#[test]
fn dive_outcome_is_printed_by_stats_timings_and_json() {
    let out = bin()
        .arg(example("cms.p4all"))
        .args(["--target", "paper-example"])
        .args(["--emit", "stats", "--timings", "--json-diagnostics"])
        .output()
        .expect("p4allc runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Once under --timings, once inside the solve summary of --emit stats.
    assert_eq!(stdout.matches("root dive: warm ").count(), 2, "{stdout}");
    assert!(stdout.contains("\"dive\":{\"warm\":{\"end\":\""), "{stdout}");
    // The warm pass gives up short of the root bound (106.67), which no
    // integral point attains, so the face dive runs and comes back empty.
    let face = ", face dive found no point on the root face (";
    assert_eq!(stdout.matches(face).count(), 2, "{stdout}");
    assert!(stdout.contains(",\"face\":{\"end\":\"empty\",\"lps\":"), "{stdout}");
}

/// The solver has one search: `--threads` is no flag at all, and the solve
/// summary has no thread to name.
#[test]
fn threads_flag_is_rejected_and_the_summary_names_no_thread() {
    let cms = |extra: &[&str]| {
        bin()
            .arg(example("cms.p4all"))
            .args(["--target", "paper-example", "--emit", "stats"])
            .args(extra)
            .output()
            .expect("p4allc runs")
    };
    let out = cms(&["--threads", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--threads`"), "{stderr}");
    assert!(!stderr.contains("[--threads"), "usage still lists the flag: {stderr}");

    let out = cms(&[]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in ["  LP work: ", "  cuts: ", "  root dive: ", "  incumbents ("] {
        assert!(stdout.contains(line), "no `{line}` line in:\n{stdout}");
    }
    assert!(!stdout.contains("thread"), "{stdout}");
}

#[test]
fn emits_p4_to_file() {
    let dir = std::env::temp_dir().join("p4allc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("cms.p4");
    let out = bin()
        .arg(example("cms.p4all"))
        .args(["--target", "small", "--out"])
        .arg(&out_file)
        .output()
        .expect("p4allc runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let p4 = std::fs::read_to_string(&out_file).unwrap();
    assert!(p4.contains("@stage("));
    assert!(p4.contains("register<bit<32>>"));
}

#[test]
fn greedy_mode_prints_layout() {
    let out = bin()
        .arg(example("bloom_firewall.p4all"))
        .args(["--target", "small", "--greedy"])
        .output()
        .expect("p4allc runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("pipeline layout"));
}

#[test]
fn missing_file_exits_2() {
    let out = bin().arg("no_such_file.p4all").output().expect("p4allc runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_flag_exits_1() {
    let out = bin().arg("--frobnicate").output().expect("p4allc runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn parse_error_is_rendered_with_caret() {
    let dir = std::env::temp_dir().join("p4allc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.p4all");
    std::fs::write(&bad, "symbolic int rows;\nassume rows >= oops;\n").unwrap();
    let out = bin().arg(&bad).output().expect("p4allc runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("^"), "no caret in: {err}");
}

#[test]
fn sim_flag_reports_replay_stats_on_both_backends() {
    for backend in ["compiled", "interp"] {
        let out = bin()
            .arg(example("cms.p4all"))
            .args(["--target", "paper-example", "--emit", "layout", "--sim", "2000"])
            .args(["--sim-backend", backend])
            .output()
            .expect("p4allc runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("replay: 2000 packets"), "{stdout}");
        assert!(stdout.contains("pkts/sec"), "{stdout}");
        assert!(stdout.contains("stage cost:"), "{stdout}");
    }
}

#[test]
fn sim_threads_shards_the_replay() {
    let out = bin()
        .arg(example("cms.p4all"))
        .args(["--target", "paper-example", "--emit", "layout"])
        .args(["--sim", "2000", "--sim-threads", "4"])
        .output()
        .expect("p4allc runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The shard count is capped at the machine's parallelism, so the
    // reported count is min(4, cores).
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let want = format!("{} thread(s)", 4.min(cores));
    assert!(stdout.contains(&want), "expected `{want}` in: {stdout}");
}

#[test]
fn sim_batch_reports_batched_replay() {
    let out = bin()
        .arg(example("cms.p4all"))
        .args(["--target", "paper-example", "--emit", "layout"])
        .args(["--sim", "2000", "--sim-batch", "32", "--json-diagnostics"])
        .output()
        .expect("p4allc runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The requested width runs (the human line and the JSON replay
    // object both expose it).
    assert!(stdout.contains("batch width 32"), "{stdout}");
    assert!(stdout.contains("\"batch_width\":32"), "{stdout}");
    assert!(stdout.contains("\"overlap_occupancy\":"), "{stdout}");
}

#[test]
fn bad_sim_backend_exits_1() {
    let out = bin()
        .arg(example("cms.p4all"))
        .args(["--sim", "10", "--sim-backend", "jit"])
        .output()
        .expect("p4allc runs");
    assert_eq!(out.status.code(), Some(1));
}
