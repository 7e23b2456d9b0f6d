//! End-to-end acceptance tests for the `qdi-lint` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

use qdi_netlist::{cells, io, Netlist, NetlistBuilder};

/// A balanced dual-rail XOR cell netlist.
fn xor_cell() -> Netlist {
    let mut b = NetlistBuilder::new("xor");
    let a = b.input_channel("a", 2);
    let bb = b.input_channel("b", 2);
    let ack = b.input_net("ack");
    let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
    b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
    let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
    b.finish().expect("valid")
}

/// Writes `netlist` to a scratch file and returns its path.
fn write_netlist(netlist: &Netlist, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qdi-lint-test-{}-{tag}.qdi", std::process::id()));
    std::fs::write(&path, io::to_text(netlist)).expect("scratch file writable");
    path
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qdi-lint"))
        .args(args)
        .env_remove("QDI_LOG")
        .output()
        .expect("qdi-lint runs")
}

#[test]
fn balanced_xor_exits_zero_with_no_output() {
    let path = write_netlist(&xor_cell(), "balanced");
    let out = run_lint(&[path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{out:?}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn doubled_rail_cap_exits_one_and_names_the_channel() {
    let mut netlist = xor_cell();
    let rail = netlist.find_net("a.r1").expect("rail exists");
    netlist.set_routing_cap(rail, 16.0); // 8 -> 16 fF: dA = 1.0, deny
    let path = write_netlist(&netlist, "skewed");
    let out = run_lint(&["--no-color", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[QDI0009]"), "{stderr}");
    assert!(stderr.contains("channel `a`"), "{stderr}");
    assert!(stderr.contains("1 error"), "{stderr}");
}

#[test]
fn json_mode_streams_findings_on_stdout() {
    let mut netlist = xor_cell();
    let rail = netlist.find_net("a.r1").expect("rail exists");
    netlist.set_routing_cap(rail, 16.0);
    let path = write_netlist(&netlist, "json");
    let out = run_lint(&["--json", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(lines[0].starts_with('{') && lines[0].contains("QDI") || lines[0].contains("code"));
}

#[test]
fn allow_flag_downgrades_the_exit_code() {
    let mut netlist = xor_cell();
    let rail = netlist.find_net("a.r1").expect("rail exists");
    netlist.set_routing_cap(rail, 16.0);
    let path = write_netlist(&netlist, "allowed");
    let out = run_lint(&["--allow", "QDI0009", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn deny_warnings_escalates_warn_findings() {
    let mut netlist = xor_cell();
    let rail = netlist.find_net("a.r1").expect("rail exists");
    netlist.set_routing_cap(rail, 13.0); // dA = 0.625: warn only
    let path = write_netlist(&netlist, "escalated");
    let warn_only = run_lint(&[path.to_str().expect("utf8 path")]);
    let escalated = run_lint(&["--deny", "warnings", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert!(warn_only.status.success(), "{warn_only:?}");
    assert_eq!(escalated.status.code(), Some(1), "{escalated:?}");
}

#[test]
fn jsonl_sink_captures_machine_readable_findings() {
    let mut netlist = xor_cell();
    let rail = netlist.find_net("a.r1").expect("rail exists");
    netlist.set_routing_cap(rail, 16.0);
    let path = write_netlist(&netlist, "sinked");
    let sink = std::env::temp_dir().join(format!("qdi-lint-test-{}.jsonl", std::process::id()));
    let out = run_lint(&[
        "--jsonl",
        sink.to_str().expect("utf8 path"),
        path.to_str().expect("utf8 path"),
    ]);
    let captured = std::fs::read_to_string(&sink).expect("sink file written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sink);
    assert_eq!(out.status.code(), Some(1));
    assert!(captured.contains("QDI0009"), "{captured}");
    assert!(captured.contains("qdi_lint"), "{captured}");
}

#[test]
fn unreadable_input_is_a_usage_error() {
    let out = run_lint(&["/nonexistent/definitely-missing.qdi"]);
    assert_eq!(out.status.code(), Some(2));
    let no_args = run_lint(&[]);
    assert_eq!(no_args.status.code(), Some(2));
    // Hostile netlists are parse errors naming their line, not panics
    // (exit 101) in the loader: a non-finite capacitance, and a second
    // header that would restart the builder under net ids already used.
    let text = io::to_text(&xor_cell());
    let header = text
        .lines()
        .find(|l| l.starts_with("netlist "))
        .expect("header");
    for (tag, hostile) in [
        ("nan", text.replacen("cap=8", "cap=NaN", 1)),
        ("two_headers", format!("{text}{header}\n")),
    ] {
        let path =
            std::env::temp_dir().join(format!("qdi-lint-test-{}-{tag}.qdi", std::process::id()));
        std::fs::write(&path, hostile).expect("scratch file writable");
        let out = run_lint(&["--no-color", path.to_str().expect("utf8 path")]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.status.code(), Some(2), "{tag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("parse error at line"), "{tag}: {stderr}");
    }
}

#[test]
fn explain_prints_extended_help_without_input_files() {
    let out = run_lint(&["--explain", "QDI0202"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("QDI0202"), "{stdout}");
    assert!(stdout.contains("logic-activity-imbalance"), "{stdout}");
    // The extended paragraph, not just the one-line summary.
    assert!(stdout.lines().count() > 3, "{stdout}");
}

#[test]
fn explain_unknown_code_is_a_usage_error() {
    let unregistered = run_lint(&["--explain", "QDI0999"]);
    assert_eq!(unregistered.status.code(), Some(2), "{unregistered:?}");
    let garbage = run_lint(&["--explain", "banana"]);
    assert_eq!(garbage.status.code(), Some(2), "{garbage:?}");
}

#[test]
fn github_format_annotates_on_stdout() {
    let mut netlist = xor_cell();
    let rail = netlist.find_net("a.r1").expect("rail exists");
    netlist.set_routing_cap(rail, 16.0);
    let path = write_netlist(&netlist, "github");
    let out = run_lint(&["--format", "github", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("::error title=QDI0009::"), "{stdout}");
}

#[test]
fn unknown_format_is_a_usage_error() {
    let path = write_netlist(&xor_cell(), "badformat");
    let out = run_lint(&["--format", "yaml", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unbalanced_cell_is_refuted_with_a_witness() {
    let mut b = NetlistBuilder::new("skewed_xor");
    let a = b.input_channel("a", 2);
    let bb = b.input_channel("b", 2);
    let ack = b.input_net("ack");
    let cell = cells::dual_rail_xor_unbalanced(&mut b, "x", &a, &bb, ack);
    b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
    let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
    let netlist = b.finish().expect("valid");
    let path = write_netlist(&netlist, "refuted");
    let out = run_lint(&["--json", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // JSON-Lines carries numeric codes; the refutation must include a
    // concrete (non-null) witness input pair.
    assert!(stdout.contains("\"code\":201"), "{stdout}");
    assert!(stdout.contains("\"witness\":{"), "{stdout}");
}

#[test]
fn tiny_sym_budget_downgrades_proof_to_warning() {
    let path = write_netlist(&xor_cell(), "budget");
    // Budget 1 cannot prove anything: the symbolic pass reports
    // warn-level "unproven" findings instead of a clean bill.
    let out = run_lint(&[
        "--no-color",
        "--sym-budget",
        "1",
        path.to_str().expect("utf8 path"),
    ]);
    let denied = run_lint(&[
        "--deny",
        "warnings",
        "--sym-budget",
        "1",
        path.to_str().expect("utf8 path"),
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[QDI0201]"), "{stderr}");
    assert!(stderr.contains("budget"), "{stderr}");
    assert_eq!(denied.status.code(), Some(1), "{denied:?}");
}
