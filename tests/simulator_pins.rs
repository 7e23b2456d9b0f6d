//! Pins the simulator's exact output on the XOR+S-box slice.
//!
//! The run is `qdi-perf`'s first `fi_sbox` unit: two tokens per input
//! channel, stimulus seed `derive_seed(0, 0)`. The golden run's
//! transition log and end time are hashed, and so is every injected
//! run of each fault model at each default injection time on a fixed
//! handful of gates (or its `SimError` variant and time when it fails),
//! together with its `classify` outcome. Any change to event order,
//! inertial cancellation, fault application or protocol checking moves
//! one of these constants.

use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::exec::derive_seed;
use qdi::fi::{
    classify, default_injection_times, output_values, parse_models, CampaignConfig, Stimulus,
};
use qdi::netlist::GateId;
use qdi::sim::{Fault, FaultPlan, FaultSite, SimError, TestbenchRun, Transition};

/// FNV-1a over the `(time_ps, net, rising)` triples of a log, then the
/// run's end time.
fn log_hash(log: &[Transition], end_time_ps: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in log {
        eat(&t.time_ps.to_le_bytes());
        eat(&(t.net.index() as u32).to_le_bytes());
        eat(&[u8::from(t.rising)]);
    }
    eat(&end_time_ps.to_le_bytes());
    h
}

fn describe(result: &Result<TestbenchRun, SimError>) -> String {
    match result {
        Ok(run) => format!("log {:016x}", log_hash(&run.transitions, run.end_time_ps)),
        Err(SimError::Deadlock { time_ps, .. }) => format!("Deadlock@{time_ps}"),
        Err(SimError::Livelock { time_ps, .. }) => format!("Livelock@{time_ps}"),
        Err(SimError::EventLimit { time_ps, .. }) => format!("EventLimit@{time_ps}"),
        Err(SimError::SimTimeout { time_ps, .. }) => format!("SimTimeout@{time_ps}"),
        Err(other) => format!("{other:?}"),
    }
}

/// The first and last gates of the slice, plus three S-box gates whose
/// faults between them land in every class the slice produces: masked,
/// deadlock, protocol and silent.
const GATES: [u32; 5] = [0, 365, 946, 991, 1096];

const GOLDEN_EDGES: usize = 480;
const GOLDEN_END_PS: u64 = 6407;
const GOLDEN_LOG: u64 = 0xa606_f668_8c97_5a2d;
const INJECTION_TIMES_PS: [u64; 3] = [1601, 3203, 4805];

/// One line per injected run: model, gate index, injection-time index,
/// the run's log hash (or failure), and its outcome class.
const PINS: &[&str] = &[
    "seu g0 t0: log e0ee407b58dbb94c masked",
    "seu g0 t1: log 4a5e0d6c7ee578ec masked",
    "seu g0 t2: log aa284b7a3070029d masked",
    "seu g365 t0: Deadlock@3382 deadlock",
    "seu g365 t1: log 1a33bf3cb2edaa81 masked",
    "seu g365 t2: log 616af7a4b6bd0fca protocol",
    "seu g946 t0: log 258fad91ca83392a masked",
    "seu g946 t1: log 3b6a29c4d1c3be84 masked",
    "seu g946 t2: log 0e31dd1e9113e652 masked",
    "seu g991 t0: Deadlock@3237 deadlock",
    "seu g991 t1: log 22506aa6765181de protocol",
    "seu g991 t2: log 7bd86e534f2dc961 protocol",
    "seu g1096 t0: log 1b1b53cd96f5f09e masked",
    "seu g1096 t1: log a54893fbf4dd53ee masked",
    "seu g1096 t2: log 4ed55f4b7db92082 masked",
    "stuck0 g0 t0: Deadlock@4257 deadlock",
    "stuck0 g0 t1: log a606f6688c975a2d masked",
    "stuck0 g0 t2: log a606f6688c975a2d masked",
    "stuck0 g365 t0: log a606f6688c975a2d masked",
    "stuck0 g365 t1: log a606f6688c975a2d masked",
    "stuck0 g365 t2: log a606f6688c975a2d masked",
    "stuck0 g946 t0: log e4ead7259cb0f474 masked",
    "stuck0 g946 t1: log a606f6688c975a2d masked",
    "stuck0 g946 t2: log a606f6688c975a2d masked",
    "stuck0 g991 t0: Deadlock@4774 deadlock",
    "stuck0 g991 t1: Deadlock@4774 deadlock",
    "stuck0 g991 t2: log 949dd1e91497d57f protocol",
    "stuck0 g1096 t0: Deadlock@3248 deadlock",
    "stuck0 g1096 t1: Deadlock@3437 deadlock",
    "stuck0 g1096 t2: log f05ba41f2173fa7d masked",
    "stuck1 g0 t0: Deadlock@2522 deadlock",
    "stuck1 g0 t1: Deadlock@5640 deadlock",
    "stuck1 g0 t2: Deadlock@6600 deadlock",
    "stuck1 g365 t0: Deadlock@3121 deadlock",
    "stuck1 g365 t1: Deadlock@4198 deadlock",
    "stuck1 g365 t2: Deadlock@6141 deadlock",
    "stuck1 g946 t0: Deadlock@3237 deadlock",
    "stuck1 g946 t1: Deadlock@6311 deadlock",
    "stuck1 g946 t2: log b6fee6f2c2e9dd62 protocol",
    "stuck1 g991 t0: Deadlock@3237 deadlock",
    "stuck1 g991 t1: Deadlock@6207 deadlock",
    "stuck1 g991 t2: Deadlock@6177 deadlock",
    "stuck1 g1096 t0: Deadlock@1785 deadlock",
    "stuck1 g1096 t1: Deadlock@4850 deadlock",
    "stuck1 g1096 t2: Deadlock@4989 deadlock",
    "delay g0 t0: log ad16cbc6ce632faa masked",
    "delay g0 t1: log a606f6688c975a2d masked",
    "delay g0 t2: log a606f6688c975a2d masked",
    "delay g365 t0: log a606f6688c975a2d masked",
    "delay g365 t1: log a606f6688c975a2d masked",
    "delay g365 t2: log a606f6688c975a2d masked",
    "delay g946 t0: log 0d29bbfb6fdb6078 masked",
    "delay g946 t1: log a606f6688c975a2d masked",
    "delay g946 t2: log a606f6688c975a2d masked",
    "delay g991 t0: log 21584af25a079fc3 masked",
    "delay g991 t1: log 21584af25a079fc3 masked",
    "delay g991 t2: log 6c9926bf4338df80 masked",
    "delay g1096 t0: log 436ac69d4154cf7f masked",
    "delay g1096 t1: log 8de5265f4af9c055 masked",
    "delay g1096 t2: log 35dfcaa1e4673bdc masked",
    "glitch g0 t0: log a606f6688c975a2d masked",
    "glitch g0 t1: Deadlock@7225 deadlock",
    "glitch g0 t2: log aa284b7a3070029d masked",
    "glitch g365 t0: Deadlock@3382 deadlock",
    "glitch g365 t1: log e94f63278555ea45 masked",
    "glitch g365 t2: log b43569311998c132 protocol",
    "glitch g946 t0: log a606f6688c975a2d masked",
    "glitch g946 t1: log 9e020eeb16d71bbc silent",
    "glitch g946 t2: log 4fda8a321f16b280 protocol",
    "glitch g991 t0: Deadlock@3237 deadlock",
    "glitch g991 t1: log efc341ade7b4856e protocol",
    "glitch g991 t2: log a606f6688c975a2d masked",
    "glitch g1096 t0: log 472e43436b33688f masked",
    "glitch g1096 t1: log a54893fbf4dd53ee masked",
    "glitch g1096 t2: log 1ada8e43783159c4 masked",
];

#[test]
fn sbox_slice_golden_and_fault_runs_are_pinned() {
    let slice = aes_first_round_slice("perf", SliceStage::XorSbox).expect("slice builds");
    let netlist = &slice.netlist;
    let cfg = CampaignConfig {
        tokens: 2,
        seed: derive_seed(0, 0),
        ..CampaignConfig::new()
    };
    let stim = Stimulus::random(netlist, cfg.tokens, cfg.seed).expect("stimulus");
    let golden_run = stim.run(netlist, &cfg.testbench, None).expect("golden run");
    let golden = output_values(&golden_run);
    let times = default_injection_times(netlist, &cfg).expect("injection times");

    let mut lines = Vec::new();
    for model in parse_models("seu,stuck0,stuck1,delay,glitch").expect("models") {
        for g in GATES {
            for (ti, &at_ps) in times.iter().enumerate() {
                let fault = Fault::new(FaultSite::Gate(GateId::from_raw(g)), model, at_ps);
                let result = stim.run(netlist, &cfg.testbench, Some(&FaultPlan::single(fault)));
                let outcome = classify(netlist, &golden, &result);
                lines.push(format!(
                    "{} g{g} t{ti}: {} {outcome}",
                    model.mnemonic(),
                    describe(&result)
                ));
            }
        }
    }

    let actual_golden = (
        golden_run.transitions.len(),
        golden_run.end_time_ps,
        log_hash(&golden_run.transitions, golden_run.end_time_ps),
    );
    let mismatched: Vec<String> = lines
        .iter()
        .zip(PINS.iter().copied().chain(std::iter::repeat("")))
        .filter(|&(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        actual_golden == (GOLDEN_EDGES, GOLDEN_END_PS, GOLDEN_LOG)
            && times == INJECTION_TIMES_PS
            && mismatched.is_empty()
            && lines.len() == PINS.len(),
        "simulator output moved\n\
         golden: {} edges, end {} ps, log {:016x}; times {times:?}\n\
         {} of {} runs differ:\n{}\n\
         full table:\n{}",
        actual_golden.0,
        actual_golden.1,
        actual_golden.2,
        mismatched.len(),
        lines.len(),
        mismatched.join("\n"),
        lines
            .iter()
            .map(|l| format!("    \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}
