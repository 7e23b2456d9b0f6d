//! Metric names and units, summary statistics, the result digest, and
//! what a workload run hands back to `main`.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off. `BENCHMARK.json` lists
/// the same names, units and bounds; a test keeps the two in step.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, measured in the `--trace 1` run. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.tb_setup_us", "us"),
    ("sim.run_us", "us"),
    ("sim.transitions_per_s", "1/s"),
    ("sim.fault_run_us", "us"),
    ("analog.synth_us", "us"),
    ("analog.synth_samples_per_s", "1/s"),
    ("analog.noise_us", "us"),
    ("analog.noise_samples_per_s", "1/s"),
    ("exec.pool_overhead_us", "us"),
    ("exec.pool_busy_frac", "frac"),
    ("exec.qtrs_encode_mb_per_s", "MB/s"),
    ("exec.qtrs_decode_mb_per_s", "MB/s"),
    ("dpa.bias_traces_per_s", "1/s"),
    ("dpa.stimulus_repeat_frac", "frac"),
    ("dpa.chunk_ms", "ms"),
    ("dpa.checkpoint_save_ms", "ms"),
    ("dpa.store_bias_ms", "ms"),
    ("fi.classify_us", "us"),
    ("fi.outcome.masked", "count"),
    ("fi.outcome.deadlock", "count"),
    ("fi.outcome.livelock", "count"),
    ("fi.outcome.protocol", "count"),
    ("fi.outcome.silent", "count"),
    ("fi.outcome.aborted", "count"),
    ("serve.http_rtt_ms", "ms"),
    ("serve.http_rps", "1/s"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.requests_per_job", "count"),
    ("serve.job_p90_ms", "ms"),
    ("trace.accounted_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("loc.analog", "count"),
    ("loc.bench", "count"),
    ("loc.core", "count"),
    ("loc.crypto", "count"),
    ("loc.dpa", "count"),
    ("loc.exec", "count"),
    ("loc.fi", "count"),
    ("loc.lint", "count"),
    ("loc.mon", "count"),
    ("loc.netlist", "count"),
    ("loc.obs", "count"),
    ("loc.pnr", "count"),
    ("loc.serve", "count"),
    ("loc.sim", "count"),
    ("loc.sym", "count"),
];

/// Engine pools run with this many workers on every host, so a number
/// never silently depends on the host's core count.
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (traces, attacks, injections or jobs).
    pub ops: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// FNV-1a-64 of the first unit's results.
    pub digest: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Workload sizes, recorded with the result.
    pub sizes: Vec<(&'static str, u64)>,
    /// Each timed unit's wall time, in ms.
    pub unit_ms: Vec<f64>,
    /// Traced runs: the root span of the traced computation, whose layer
    /// spans must account for its wall time on `workers` threads …
    pub root: Option<u64>,
    pub workers: usize,
    /// … and the time of that computation traced and untraced, in
    /// seconds, for the tracing overhead.
    pub traced_s: f64,
    pub untraced_s: f64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Records a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// Checks `ok`, recording `why()` against `ops` operations when false.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, why());
        }
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in the bit patterns of `values`, so any change in any bit
    /// of any value changes the digest.
    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.u64(v.to_bits());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Runs `unit(i)` for `i = 0, 1, …` until `seconds` have passed, and at
/// least once; each unit returns the work it did. Stops at the first
/// error.
pub fn run_for(
    seconds: f64,
    mut unit: impl FnMut(u64) -> Result<u64, String>,
) -> Result<Units, String> {
    let start = std::time::Instant::now();
    let mut units = Units::default();
    for i in 0.. {
        let t = std::time::Instant::now();
        units.work.push(unit(i)?);
        units.ms.push(t.elapsed().as_secs_f64() * 1e3);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(units)
}

/// The timed units of an untraced run.
#[derive(Debug, Default)]
pub struct Units {
    pub ms: Vec<f64>,
    pub work: Vec<u64>,
}

impl Units {
    /// Sets `throughput_per_s` to the median of the units' work rates and
    /// `unit_p50_ms` to their median time. Medians keep a burst of load
    /// from other processes on the host from moving either number.
    pub fn record(self, out: &mut Outcome) {
        let rates: Vec<f64> = self
            .work
            .iter()
            .zip(&self.ms)
            .map(|(&w, &ms)| w as f64 / (ms / 1e3))
            .collect();
        out.set("throughput_per_s", median(&rates));
        out.set("unit_p50_ms", median(&self.ms));
        out.unit_ms = self.ms;
    }
}

/// Times `SETUP_REPS` set-ups and keeps the last one's result. Returns it
/// with the median set-up time in seconds.
pub fn set_up<T, E>(mut setup: impl FnMut(usize) -> Result<T, E>) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous set-up down before the clock starts: no
        // set-up pays for, or shares the host with, the one before it.
        drop(last.take());
        let t = std::time::Instant::now();
        let value = setup(rep)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let samples = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&samples, 5.0), 15.0);
        assert_eq!(percentile(&samples, 30.0), 20.0);
        assert_eq!(percentile(&samples, 40.0), 20.0);
        assert_eq!(percentile(&samples, 50.0), 35.0);
        assert_eq!(percentile(&samples, 100.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn fnv1a_digest_matches_reference_vectors() {
        let hash = |s: &str| {
            let mut d = Digest::default();
            d.bytes(s.as_bytes());
            d.value()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
        // Every bit of an f64 counts, the sign of zero included.
        let of = |v: f64| {
            let mut d = Digest::default();
            d.f64s(&[v]);
            d.value()
        };
        assert_ne!(of(0.0), of(-0.0));
        assert_eq!(of(1.5), of(1.5));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(serde_json::Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(serde_json::Value::as_str);
                    (
                        field("name").expect("name").to_owned(),
                        field("unit").expect("unit").to_owned(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(serde_json::Value::as_seq)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(serde_json::Value::as_str)
                    .expect("name")
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
