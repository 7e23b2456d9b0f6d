//! End-to-end acceptance tests for the `qdi-trace` binary: exit codes of
//! the read-only commands, and the in-place `convert`/`merge` refusal.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use qdi_exec::store::{StoreOptions, StoreWriter, HEADER_LEN};

/// A scratch path unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qdi-trace-test-{}-{tag}.qtrs", std::process::id()))
}

/// Writes a store of `records` 80-sample records and returns its path.
fn write_store(tag: &str, records: usize) -> PathBuf {
    let path = scratch(tag);
    let mut writer = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
    for r in 0..records {
        let samples: Vec<f64> = (0..80).map(|i| ((r * 80 + i) as f64).sin()).collect();
        writer
            .append_samples(&[r as u8, (r >> 8) as u8], &samples)
            .expect("append");
    }
    writer.finish().expect("finish");
    path
}

fn run_trace(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qdi-trace"))
        .args(args)
        .env_remove("QDI_LOG")
        .output()
        .expect("qdi-trace runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn convert_onto_its_input_is_refused_and_leaves_the_store_intact() {
    let big = write_store("convert-in-place", 200);
    let before = std::fs::read(&big).expect("read");
    let out = run_trace(&["convert".as_ref(), "--f32".as_ref(), &big, &big]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr(&out).contains("same file"), "{}", stderr(&out));
    assert_eq!(std::fs::read(&big).expect("read"), before);

    #[cfg(unix)]
    {
        // Through a symlink the paths differ but the file is the same.
        let link = scratch("convert-in-place-link");
        let _ = std::fs::remove_file(&link);
        std::os::unix::fs::symlink(&big, &link).expect("symlink");
        let out = run_trace(&["convert".as_ref(), &big, &link]);
        let _ = std::fs::remove_file(&link);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert_eq!(std::fs::read(&big).expect("read"), before);
    }
    let _ = std::fs::remove_file(&big);
}

#[test]
fn merge_onto_one_of_its_inputs_is_refused_and_leaves_both_intact() {
    let a = write_store("merge-a", 5);
    let b = write_store("merge-b", 7);
    let (a_before, b_before) = (std::fs::read(&a).expect("a"), std::fs::read(&b).expect("b"));
    let out = run_trace(&["merge".as_ref(), &b, &b, &a]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr(&out).contains("same file"), "{}", stderr(&out));
    assert_eq!(std::fs::read(&a).expect("a"), a_before);
    assert_eq!(std::fs::read(&b).expect("b"), b_before);

    // A fresh output is still merged.
    let merged = scratch("merge-out");
    let out = run_trace(&["merge".as_ref(), &merged, &b, &a]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let info = qdi_exec::store::info(&merged).expect("merged store is valid");
    assert_eq!(info.records, 12);
    for path in [&a, &b, &merged] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn read_only_commands_exit_by_the_state_of_the_store() {
    let clean = write_store("exit-clean", 3);
    let torn = write_store("exit-torn", 3);
    let len = std::fs::metadata(&torn).expect("stat").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&torn)
        .expect("open rw")
        .set_len(len - 5)
        .expect("tear the last record");
    let junk = scratch("exit-junk");
    std::fs::write(&junk, [0u8; HEADER_LEN as usize + 16]).expect("write junk");

    for command in ["info", "fsck", "head"] {
        for (path, code) in [(&clean, 0), (&torn, 1), (&junk, 2)] {
            let out = run_trace(&[command.as_ref(), path]);
            assert_eq!(
                out.status.code(),
                Some(code),
                "{command} {}: {out:?}",
                path.display()
            );
        }
    }
    for path in [&clean, &torn, &junk] {
        let _ = std::fs::remove_file(path);
    }
}
