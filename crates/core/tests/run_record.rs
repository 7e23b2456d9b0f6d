//! The secure flow's run record: every completed step appends one
//! `Metrics` record, and the profile rebuilt from it attributes the
//! flow. Its own test binary, because the run record is process-global
//! and a concurrent flow would add records of its own; the tests here
//! take one gate.

use std::sync::{Mutex, PoisonError};

use qdi_core::{run_slice_flow, run_static_flow, FlowConfig};
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_dpa::selection::AesXorSelect;
use qdi_obs::metrics::MetricsSnapshot;
use qdi_obs::prof::ProfReport;
use qdi_obs::Record;
use qdi_pnr::{PnrConfig, Strategy};

static RUN_RECORD: Mutex<()> = Mutex::new(());

/// Runs `body` with a fresh run record installed and returns what it
/// returned and the records it wrote.
fn recorded<T>(name: &str, body: impl FnOnce() -> T) -> (T, Vec<Record>) {
    let _gate = RUN_RECORD.lock().unwrap_or_else(PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!("qdi_core_{name}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    qdi_obs::span::set_file(&path);
    let out = body();
    qdi_obs::flush();
    qdi_obs::span::close_file();
    let read = qdi_obs::span::read_records(&path).expect("run record reads");
    let _ = std::fs::remove_file(&path);
    (out, read.records)
}

#[test]
fn every_step_writes_a_metrics_record() {
    let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let mut cfg = FlowConfig::new(Strategy::Flat, 0);
    cfg.pnr = PnrConfig::fast();
    let (report, records) = recorded("metrics", || {
        run_static_flow(&mut slice.netlist, &cfg).expect("passes lint")
    });

    let snapshots: Vec<&MetricsSnapshot> = records
        .iter()
        .filter_map(|r| match r {
            Record::Metrics { snapshot, .. } => Some(snapshot),
            _ => None,
        })
        .collect();
    let completed = report.steps.iter().filter(|s| s.is_completed()).count();
    assert!(completed > 0);
    assert_eq!(
        snapshots.len(),
        completed,
        "one Metrics record per completed step"
    );
    assert!(
        snapshots
            .iter()
            .any(|s| s.get("pnr.moves_attempted").is_some()),
        "annealing counters must reach the run record"
    );
}

#[test]
fn installed_profile_attributes_the_flow() {
    let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let sel = AesXorSelect { byte: 0, bit: 0 };
    let mut cfg = FlowConfig::new(Strategy::Flat, 0x42);
    cfg.pnr = PnrConfig::fast();
    cfg.campaign.traces = 24;
    cfg.workers = 2;
    let ((), records) = recorded("profile", || {
        qdi_obs::prof::install();
        run_slice_flow(&mut slice, &sel, &cfg).expect("flow completes");
        qdi_obs::prof::uninstall();
    });
    let profile = ProfReport::from_records(&records);
    let top = profile.regions.top_by_self(10);
    assert!(
        top.iter().any(|r| r.name == "pnr.place_route"),
        "place-and-route region must be attributed: {top:?}"
    );
    assert!(
        top.iter().any(|r| r.path.contains("dpa.acquire")),
        "campaign acquisition must be attributed: {top:?}"
    );
    let jobs: u64 = profile.pool_runs.iter().map(|r| r.jobs).sum();
    assert!(jobs >= 24, "one pool job per trace, got {jobs}");
}
