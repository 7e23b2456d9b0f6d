//! Crash-chaos harness for the execution layer.
//!
//! Three escalating levels of violence against the on-disk state:
//!
//! 1. a **SIGKILL** test that spawns a real writer subprocess, kills it
//!    with signal 9 at seeded points mid-campaign, then fscks, resumes,
//!    and proves the finished store is bit-identical to one written
//!    without the crash;
//! 2. a **torn-tail** sweep that truncates a finished store at every
//!    class of intra-record offset and proves fsck + resume always
//!    recover to bit-identical bytes;
//! 3. a **corruption fuzz** that runs seeded [`Corruption`]s against
//!    every on-disk reader (`.qtrs` store, durable-trailer files):
//!    classified errors or the original payload, never a panic, never
//!    silently wrong data.
//!
//! Plus the supervisor's contract as a proptest: at 1, 2 and 8 workers
//! every job runs once, failing jobs are quarantined exactly and every
//! other output equals the clean run.

use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;
use qdi_analog::Trace;
use qdi_exec::chaos::Corruption;
use qdi_exec::store::{self, StoreError, StoreOptions, StoreReader, StoreWriter};
use qdi_exec::{job_rng, run_supervised, ExecConfig};
use rand::Rng;

const SEED: u64 = 0xC4A0_5EED;
const RECORDS: usize = 24;
const TRACE_LEN: usize = 64;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qdi_chaos_{tag}_{}.qtrs", std::process::id()))
}

/// The campaign's deterministic acquisition: record `i` depends only on
/// `(seed, i)`, so any prefix + resumed completion must reproduce the
/// uninterrupted file byte for byte.
fn record(seed: u64, i: usize) -> (Vec<u8>, Trace) {
    let mut rng = job_rng(seed, i as u64);
    let input: Vec<u8> = (0..16).map(|_| rng.gen_range(0u32..256) as u8).collect();
    let mut trace = Trace::zeros(0, 10, TRACE_LEN);
    for s in trace.samples_mut() {
        *s = (rng.gen_range(0i64..2_000_001) - 1_000_000) as f64 * 1e-6;
    }
    (input, trace)
}

/// Writes the full campaign in-process — the golden, crash-free run.
fn write_all(path: &PathBuf, seed: u64, records: usize) {
    let mut w = StoreWriter::create(path, 0, 10, StoreOptions::new()).expect("create");
    for i in 0..records {
        let (input, trace) = record(seed, i);
        w.append(&input, &trace).expect("append");
    }
    w.finish().expect("finish");
}

/// Subprocess half of the SIGKILL test. Ignored under a normal test run;
/// the parent re-invokes this binary with `--ignored --exact` and the
/// environment below, then murders it mid-write.
#[test]
#[ignore = "subprocess writer for sigkill_mid_campaign_resumes_bit_identically"]
fn chaos_child_writer() {
    let Some(path) = std::env::var_os("QDI_CHAOS_STORE") else {
        return; // invoked by hand without the env contract: no-op
    };
    let seed: u64 = std::env::var("QDI_CHAOS_SEED")
        .expect("QDI_CHAOS_SEED")
        .parse()
        .expect("seed parses");
    let records: usize = std::env::var("QDI_CHAOS_RECORDS")
        .expect("QDI_CHAOS_RECORDS")
        .parse()
        .expect("count parses");
    let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
    for i in 0..records {
        let (input, trace) = record(seed, i);
        w.append(&input, &trace).expect("append");
        w.flush().expect("flush");
        // Tell the parent this record is durable so it can aim the kill.
        println!("rec {i}");
        std::io::stdout().flush().expect("stdout");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    w.finish().expect("finish");
    println!("done");
}

/// Tentpole acceptance: kill -9 a campaign subprocess at seeded points,
/// fsck the survivor, resume from the intact prefix, and require the
/// finished store to be bit-identical to the uninterrupted run.
#[test]
fn sigkill_mid_campaign_resumes_bit_identically() {
    let golden_path = tmp("golden");
    write_all(&golden_path, SEED, RECORDS);
    let golden = std::fs::read(&golden_path).expect("golden bytes");
    std::fs::remove_file(&golden_path).ok();

    for kill_after in [0usize, 3, 11] {
        let path = tmp(&format!("sigkill_{kill_after}"));
        std::fs::remove_file(&path).ok();
        let mut child = Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "chaos_child_writer", "--ignored", "--nocapture"])
            .env("QDI_CHAOS_STORE", &path)
            .env("QDI_CHAOS_SEED", SEED.to_string())
            .env("QDI_CHAOS_RECORDS", RECORDS.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn child writer");
        let marker = format!("rec {kill_after}");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        for line in stdout.lines() {
            let line = line.unwrap_or_default();
            if line == marker || line == "done" {
                break;
            }
        }
        child.kill().ok(); // SIGKILL: no destructors, no flush, no mercy
        child.wait().expect("reap child");

        let report = store::fsck(&path).expect("header survived");
        assert!(
            report.records > kill_after,
            "child had flushed record {kill_after} before dying, fsck saw {}",
            report.records
        );
        let mut w = StoreWriter::resume(&path, report.valid_bytes).expect("resume");
        for i in w.records()..RECORDS {
            let (input, trace) = record(SEED, i);
            w.append(&input, &trace).expect("append");
        }
        w.finish().expect("finish");
        let resumed = std::fs::read(&path).expect("resumed bytes");
        assert_eq!(resumed, golden, "kill after record {kill_after}");
        std::fs::remove_file(&path).ok();
    }
}

/// A SIGKILL usually lands on a record boundary (each append is
/// flushed); a torn page write does not. Sweep cuts through every
/// region of the final record — length field, input, samples, CRC —
/// and require fsck to count only the intact prefix and resume to
/// rebuild bit-identical bytes.
#[test]
fn torn_tail_at_any_offset_resumes_bit_identically() {
    let golden_path = tmp("torn_golden");
    write_all(&golden_path, SEED, 8);
    let golden = std::fs::read(&golden_path).expect("golden bytes");
    std::fs::remove_file(&golden_path).ok();

    // Boundary of the last record = file minus its serialized size.
    let mut probe = tmp("torn_probe");
    write_all(&probe, SEED, 7);
    let boundary = std::fs::metadata(&probe).expect("probe").len();
    std::fs::remove_file(&probe).ok();
    probe = tmp("torn");

    let mut rng = job_rng(SEED ^ 0x70_11, 0);
    let mut cuts: Vec<u64> = (0..16)
        .map(|_| rng.gen_range(boundary..golden.len() as u64))
        .collect();
    cuts.push(boundary + 1); // mid length-field
    cuts.push(golden.len() as u64 - 1); // one byte shy of complete
    for cut in cuts {
        let mut bytes = golden.clone();
        bytes.truncate(cut as usize);
        std::fs::write(&probe, &bytes).expect("write torn store");

        let report = store::fsck(&probe).expect("header intact");
        assert_eq!(report.records, 7, "cut at {cut}");
        assert_eq!(report.valid_bytes, boundary, "cut at {cut}");
        assert_eq!(report.torn_tail_bytes, cut - boundary, "cut at {cut}");
        assert!(matches!(
            report.tail_error,
            Some(StoreError::Truncated { .. })
        ));

        let mut w = StoreWriter::resume(&probe, report.valid_bytes).expect("resume");
        assert_eq!(w.records(), 7);
        let (input, trace) = record(SEED, 7);
        w.append(&input, &trace).expect("append");
        w.finish().expect("finish");
        assert_eq!(
            std::fs::read(&probe).expect("resumed"),
            golden,
            "cut at {cut}"
        );
    }
    std::fs::remove_file(&probe).ok();
}

/// Seeded corruption fuzz of the `.qtrs` reader: whatever a lying disk
/// serves, fsck and the record loop must classify — never panic, never
/// return more records than were written.
#[test]
fn corruption_fuzz_store_reader_classifies_never_panics() {
    let path = tmp("fuzz_src");
    write_all(&path, SEED, 8);
    let golden = std::fs::read(&path).expect("bytes");
    std::fs::remove_file(&path).ok();
    let victim = tmp("fuzz");

    let mut rng = job_rng(SEED ^ 0xFA57, 0);
    for case in 0..100 {
        let mut bytes = golden.clone();
        Corruption::sample(&mut rng, bytes.len() as u64).apply(&mut bytes);
        std::fs::write(&victim, &bytes).expect("write corrupted store");

        // An Err from fsck is a classified header failure — fine.
        if let Ok(report) = store::fsck(&victim) {
            assert!(report.records <= 8, "case {case}");
        }
        if let Ok(mut reader) = StoreReader::open(&victim) {
            let mut seen = 0usize;
            loop {
                match reader.next_record() {
                    Ok(Some(_)) => seen += 1,
                    Ok(None) => break,
                    Err(_) => break, // classified — the contract
                }
            }
            assert!(seen <= 8, "case {case}");
        }
    }
    std::fs::remove_file(&victim).ok();
}

/// Same fuzz against the durable-trailer format: a corrupted checkpoint
/// either fails recovery with a classified error or yields the original
/// payload (e.g. an untouched backup) — never different bytes.
#[test]
fn corruption_fuzz_durable_recover_never_lies() {
    use qdi_obs::durable;
    let payload = b"{\"completed\": 17, \"offset\": 4242}\n".to_vec();
    let victim =
        std::env::temp_dir().join(format!("qdi_chaos_durable_{}.json", std::process::id()));
    let backup = victim.with_extension("json.bak");

    let mut rng = job_rng(SEED ^ 0x000D_0012, 0);
    for case in 0..100 {
        std::fs::remove_file(&victim).ok();
        std::fs::remove_file(&backup).ok();
        durable::save(&victim, &payload, durable::Durability::Checkpoint).expect("save");
        let mut bytes = std::fs::read(&victim).expect("durable bytes");
        Corruption::sample(&mut rng, bytes.len() as u64).apply(&mut bytes);
        std::fs::write(&victim, &bytes).expect("write corrupted");

        match durable::recover(&victim) {
            Ok(recovered) => {
                assert_eq!(recovered.payload, payload, "case {case}: wrong payload")
            }
            Err(durable::DurableError::Io { .. }) => panic!("case {case}: not an IO failure"),
            Err(_) => {} // Torn / Corrupt / Version / Unrecoverable: classified
        }
    }
    std::fs::remove_file(&victim).ok();
    std::fs::remove_file(&backup).ok();
}

/// Deterministic digest of a job's full RNG stream: any divergence in
/// which stream a job drew from would change it.
fn job_digest(root: u64, index: usize) -> u64 {
    let mut rng = job_rng(root, index as u64);
    let mut acc = 0u64;
    for _ in 0..32 {
        acc = acc
            .rotate_left(7)
            .wrapping_add(rng.gen_range(0u64..u64::MAX));
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The supervisor's contract: every job is invoked exactly once, the
    /// mask-chosen failing jobs (panics and errors) are quarantined
    /// exactly, and every other output equals the clean run — at 1, 2
    /// and 8 workers.
    #[test]
    fn failing_jobs_are_quarantined_after_one_attempt_at_any_worker_count(
        root in any::<u64>(),
        fail_mask in any::<u16>(),
        jobs in 1usize..12,
    ) {
        let fails = |i: usize| (fail_mask >> (i % 16)) & 1 == 1;
        let quarantined: Vec<usize> = (0..jobs).filter(|&i| fails(i)).collect();
        let expected: Vec<Option<u64>> = (0..jobs)
            .map(|i| (!fails(i)).then(|| job_digest(root, i)))
            .collect();
        for workers in [1usize, 2, 8] {
            let calls: Vec<AtomicU32> = (0..jobs).map(|_| AtomicU32::new(0)).collect();
            let run = run_supervised(&ExecConfig { workers }, jobs, |i| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                match (fails(i), i % 3) {
                    (true, 0) => panic!("planned panic at {i}"),
                    (true, _) => Err(format!("planned fault at {i}")),
                    (false, _) => Ok(job_digest(root, i)),
                }
            });
            let calls: Vec<u32> = calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            prop_assert_eq!(calls, vec![1; jobs], "workers={}", workers);
            prop_assert_eq!(run.quarantine.indices(), quarantined.clone(), "workers={}", workers);
            prop_assert_eq!(&run.values, &expected, "workers={}", workers);
        }
    }
}
