//! The secure flow's run record: every completed step appends one
//! `Metrics` record. Its own test binary, because the run record is
//! process-global and a concurrent flow would add records of its own.

use qdi_core::{run_static_flow, FlowConfig};
use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi_obs::metrics::MetricsSnapshot;
use qdi_obs::Record;
use qdi_pnr::{PnrConfig, Strategy};

#[test]
fn every_step_writes_a_metrics_record() {
    let path =
        std::env::temp_dir().join(format!("qdi_core_run_record_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
    let mut cfg = FlowConfig::new(Strategy::Flat, 0);
    cfg.pnr = PnrConfig::fast();
    qdi_obs::span::set_file(&path);
    let report = run_static_flow(&mut slice.netlist, &cfg).expect("passes lint");
    qdi_obs::span::close_file();
    let read = qdi_obs::span::read_records(&path).expect("run record reads");
    let _ = std::fs::remove_file(&path);

    let snapshots: Vec<&MetricsSnapshot> = read
        .records
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
