//! Seeded corruption fuzz of the netlist text format `qdi-lint` reads:
//! storage corruptions (truncate / bit flip / drop), hostile numeric
//! attributes and repeated lines applied to the checked-in example
//! netlists. Every mutant must load and lint, or fail with a classified
//! `ParseNetlistError` — never panic — and the binary must exit 0, 1 or 2.

use std::path::{Path, PathBuf};
use std::process::Command;

use qdi_exec::chaos::Corruption;
use qdi_exec::job_rng;
use qdi_lint::{LintConfig, Registry};
use qdi_netlist::io::from_text;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0x5EED_0D1F;
const CASES: u64 = 300;
/// Every this many cases also runs the `qdi-lint` binary on the mutant.
const CLI_EVERY: u64 = 20;
const EXAMPLES: [&str; 3] = ["xor_cell.qdi", "xor_unbalanced.qdi", "aes_slice_xor.qdi"];
const HOSTILE: [&str; 8] = ["NaN", "-inf", "inf", "-5", "1e999", "", "1e308", "0"];

fn example(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/netlists")
        .join(name);
    std::fs::read_to_string(&path).expect("example netlist is readable")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qdi_lint_fuzz_{}_{name}", std::process::id()))
}

/// One seeded mutant of `golden`.
fn mutate(rng: &mut ChaCha8Rng, golden: &str) -> Vec<u8> {
    let mut bytes = golden.as_bytes().to_vec();
    let lines: Vec<&str> = golden.lines().collect();
    match rng.gen_range(0..3) {
        0 => Corruption::sample(rng, bytes.len() as u64).apply(&mut bytes),
        1 => {
            // A numeric attribute set to a hostile value.
            let values: Vec<usize> = golden
                .match_indices('=')
                .map(|(i, _)| i + 1)
                .filter(|&i| bytes[i].is_ascii_digit())
                .collect();
            let at = values[rng.gen_range(0..values.len())];
            let end = (at..bytes.len())
                .find(|&i| bytes[i].is_ascii_whitespace())
                .unwrap_or(bytes.len());
            let value = HOSTILE[rng.gen_range(0..HOSTILE.len())];
            bytes.splice(at..end, value.bytes());
        }
        _ => {
            // A line repeated elsewhere: duplicate names, a second header.
            let line = lines[rng.gen_range(0..lines.len())];
            let at = rng.gen_range(0..lines.len());
            let mut mutated = lines.clone();
            mutated.insert(at, line);
            bytes = mutated.join("\n").into_bytes();
        }
    }
    bytes
}

fn lint_exit(path: &Path) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_qdi-lint"))
        .arg(path)
        .env_remove("QDI_LOG")
        .output()
        .expect("qdi-lint runs");
    out.status.code().expect("exit code")
}

#[test]
fn corrupted_netlists_load_or_classify() {
    let goldens: Vec<String> = EXAMPLES.iter().map(|name| example(name)).collect();
    let victim = tmp("mutant.qdi");
    let registry = Registry::full();
    let config = LintConfig::default();
    let mut rng = job_rng(SEED, 0);
    let (mut loaded, mut rejected) = (0, 0);
    for case in 0..CASES {
        let golden = &goldens[case as usize % goldens.len()];
        let bytes = mutate(&mut rng, golden);
        // Ok (then every lint pass runs) or a classified error; a panic
        // fails the test.
        match from_text(&String::from_utf8_lossy(&bytes)) {
            Ok(netlist) => {
                loaded += 1;
                let _ = registry.run(&netlist, &config);
            }
            Err(err) => {
                rejected += 1;
                assert!(!err.message.is_empty(), "case {case}: empty message");
            }
        }
        if case % CLI_EVERY == 0 {
            std::fs::write(&victim, &bytes).expect("write mutant");
            let status = lint_exit(&victim);
            assert!(
                [0, 1, 2].contains(&status),
                "case {case}: qdi-lint exited {status}"
            );
        }
    }
    std::fs::remove_file(&victim).ok();
    assert!(
        loaded > 0 && rejected > 0,
        "{loaded} loaded, {rejected} rejected"
    );
}
