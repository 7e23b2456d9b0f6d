//! Integration tests for the `qdi-fi` binary: exit codes, JSON output,
//! option validation. Mirrors the conventions of the `qdi-lint` CLI
//! tests.

use std::path::PathBuf;
use std::process::{Command, Output};

fn example(name: &str) -> String {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "examples",
        "netlists",
        name,
    ]
    .iter()
    .collect();
    path.to_string_lossy().into_owned()
}

fn qdi_fi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qdi-fi"))
        .args(args)
        .env("NO_COLOR", "1")
        .output()
        .expect("binary runs")
}

#[test]
fn clean_campaign_exits_zero_with_summary() {
    let out = qdi_fi(&[&example("xor_cell.qdi")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fault campaign on"), "{stderr}");
    assert!(stderr.contains("detection:"), "{stderr}");
}

#[test]
fn json_mode_streams_parseable_records() {
    let out = qdi_fi(&["--json", "--times", "300,600", &example("xor_cell.qdi")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "no records on stdout");
    for line in &lines {
        let record: serde_json::Value = serde_json::from_str(line).expect("JSON record");
        assert!(record.get("outcome").is_some(), "{line}");
        assert!(record.get("at_ps").is_some(), "{line}");
    }
}

#[test]
fn sampled_campaign_respects_the_budget() {
    let out = qdi_fi(&[
        "--json",
        "--sample",
        "5",
        "--times",
        "500",
        "--models",
        "seu,stuck0",
        &example("aes_slice_xor.qdi"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 5);
}

#[test]
fn unknown_model_is_a_usage_error() {
    let out = qdi_fi(&["--models", "meltdown", &example("xor_cell.qdi")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("meltdown"), "{stderr}");
}

#[test]
fn token_count_over_the_bound_exits_two() {
    // Derived injection times run the golden stimulus first; explicit
    // ones go straight to the campaign. Both must refuse the count.
    let file = example("xor_cell.qdi");
    let tokens = (qdi_fi::MAX_TOKENS + 1).to_string();
    for times in [&[][..], &["--times", "10,20"][..]] {
        let mut args = vec!["--tokens", tokens.as_str()];
        args.extend_from_slice(times);
        args.push(&file);
        let out = qdi_fi(&args);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("exceeds the bound of 1024"), "{stderr}");
    }
}

#[test]
fn missing_file_and_missing_operands_exit_two() {
    let out = qdi_fi(&["/nonexistent/netlist.qdi"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = qdi_fi(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn fail_on_class_flips_the_exit_code() {
    // Deadlocks are expected from stuck-at faults; --fail-on deadlock
    // must turn the otherwise-clean campaign into exit 1.
    let out = qdi_fi(&[
        "--models",
        "stuck0",
        "--times",
        "0",
        "--fail-on",
        "deadlock",
        &example("xor_cell.qdi"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // The same campaign with --fail-on none always exits 0.
    let out = qdi_fi(&[
        "--models",
        "stuck0",
        "--times",
        "0",
        "--fail-on",
        "none",
        &example("xor_cell.qdi"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
