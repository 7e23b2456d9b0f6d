//! Uniformly sampled current traces and their arithmetic.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::pulse::{Pulse, PulseShape};

/// A uniformly sampled waveform: current (fC/ps, i.e. mA-scale arbitrary
/// units) against time in picoseconds.
///
/// Traces support the operations DPA needs: superposing pulses, averaging
/// sets of traces, differencing averages into a bias signal, and peak
/// extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    t0_ps: u64,
    dt_ps: u64,
    samples: Vec<f64>,
}

impl Trace {
    /// Creates an all-zero trace of `len` samples starting at `t0_ps`
    /// with sample period `dt_ps`.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ps` is zero.
    pub fn zeros(t0_ps: u64, dt_ps: u64, len: usize) -> Self {
        assert!(dt_ps > 0, "sample period must be positive");
        Trace {
            t0_ps,
            dt_ps,
            samples: vec![0.0; len],
        }
    }

    /// Start time in ps.
    pub fn t0_ps(&self) -> u64 {
        self.t0_ps
    }

    /// Sample period in ps.
    pub fn dt_ps(&self) -> u64 {
        self.dt_ps
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample values.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable sample values (trace-store decoding, custom synthesis).
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Builds a trace from raw samples on the grid `(t0_ps, dt_ps)`.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ps` is zero.
    pub fn from_samples(t0_ps: u64, dt_ps: u64, samples: Vec<f64>) -> Self {
        assert!(dt_ps > 0, "sample period must be positive");
        Trace {
            t0_ps,
            dt_ps,
            samples,
        }
    }

    /// Time of sample `i` in ps.
    pub fn time_of(&self, i: usize) -> u64 {
        self.t0_ps + self.dt_ps * i as u64
    }

    /// Grows the trace so it covers at least up to `t_ps`.
    pub fn extend_to(&mut self, t_ps: u64) {
        if t_ps <= self.t0_ps {
            return;
        }
        let needed = ((t_ps - self.t0_ps) / self.dt_ps + 1) as usize;
        if needed > self.samples.len() {
            self.samples.resize(needed, 0.0);
        }
    }

    /// Superposes a current pulse onto the trace, extending it as needed.
    pub fn add_pulse(&mut self, pulse: Pulse, shape: PulseShape) {
        let end = pulse.t0_ps + shape.support_ps(pulse.dur_ps);
        self.extend_to(end + self.dt_ps);
        let start_idx = if pulse.t0_ps <= self.t0_ps {
            0
        } else {
            ((pulse.t0_ps - self.t0_ps) / self.dt_ps) as usize
        };
        // Integrate per bin with CDF differences so the pulse charge is
        // conserved exactly regardless of the sampling period. Sample `i`
        // represents the bin [time_of(i), time_of(i+1)).
        let dur = pulse.dur_ps as f64;
        let dt = self.dt_ps as f64;
        let mut prev_cdf = 0.0;
        for i in start_idx..self.samples.len() {
            let bin_end = self.time_of(i) + self.dt_ps;
            if bin_end <= pulse.t0_ps {
                continue;
            }
            let rel_end = (bin_end - pulse.t0_ps) as f64;
            let cdf = shape.cdf(rel_end, dur);
            self.samples[i] += pulse.charge_fc * (cdf - prev_cdf) / dt;
            prev_cdf = cdf;
            if cdf >= 1.0 {
                break;
            }
        }
    }

    /// Adds `other` sample-wise (grids must match; the shorter trace is
    /// treated as zero-padded).
    ///
    /// # Panics
    ///
    /// Panics if `t0` or `dt` differ.
    pub fn add_assign(&mut self, other: &Trace) {
        self.check_grid(other);
        if other.samples.len() > self.samples.len() {
            self.samples.resize(other.samples.len(), 0.0);
        }
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += b;
        }
    }

    /// Adds every trace of `others` in list order: bit-identical to
    /// `for t in others { self.add_assign(t) }`, with eight addends
    /// summed per pass over the samples.
    ///
    /// The sum is zero-padded once, in place, to the longest addend.
    /// Then, per group of eight addends, the samples all eight cover take
    /// their eight adds in list order in one pass, and each sample past
    /// the shortest of them adds, in order, only the addends that reach
    /// it. Addends after the last full group are added one at a time.
    ///
    /// # Panics
    ///
    /// Panics if any grid differs from this trace's (as
    /// [`Trace::add_assign`] does), before anything is added.
    pub fn add_assign_all(&mut self, others: &[&Trace]) {
        for other in others {
            self.check_grid(other);
        }
        let longest = others.iter().map(|t| t.len()).max().unwrap_or(0);
        if longest > self.samples.len() {
            self.samples.resize(longest, 0.0);
        }
        let mut groups = others.chunks_exact(8);
        for group in &mut groups {
            let common = group.iter().map(|t| t.len()).min().unwrap_or(0);
            add_eight(
                &mut self.samples[..common],
                std::array::from_fn(|k| group[k].samples()),
            );
            for other in group {
                for (a, b) in self.samples[common..]
                    .iter_mut()
                    .zip(&other.samples[common..])
                {
                    *a += b;
                }
            }
        }
        for other in groups.remainder() {
            self.add_assign(other);
        }
    }

    /// Subtracts `other` sample-wise (zero-padded like [`Trace::add_assign`]).
    ///
    /// # Panics
    ///
    /// Panics if `t0` or `dt` differ.
    pub fn sub_assign(&mut self, other: &Trace) {
        self.check_grid(other);
        if other.samples.len() > self.samples.len() {
            self.samples.resize(other.samples.len(), 0.0);
        }
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a -= b;
        }
    }

    fn check_grid(&self, other: &Trace) {
        assert_eq!(self.t0_ps, other.t0_ps, "trace origins differ");
        assert_eq!(self.dt_ps, other.dt_ps, "trace sample periods differ");
    }

    /// Scales every sample by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for s in &mut self.samples {
            *s *= factor;
        }
    }

    /// Adds zero-mean Gaussian noise with standard deviation `sigma` —
    /// the paper's dynamic-noise term `Pdn` plus measurement noise.
    pub fn add_gaussian_noise<R: Rng>(&mut self, rng: &mut R, sigma: f64) {
        if sigma <= 0.0 {
            return;
        }
        for s in &mut self.samples {
            // Box–Muller transform; rand's distributions stay out of the
            // dependency set.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            *s += sigma * z;
        }
    }

    /// Averages a set of traces on the same grid (zero-padding to the
    /// longest).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or grids differ.
    pub fn average<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Trace {
        let mut iter = traces.into_iter();
        let first = iter.next().expect("average needs at least one trace");
        let mut acc = first.clone();
        let mut count = 1usize;
        for t in iter {
            acc.add_assign(t);
            count += 1;
        }
        acc.scale(1.0 / count as f64);
        acc
    }

    /// Difference of two traces: the DPA bias `T = A0 − A1` (paper eq. 9).
    ///
    /// # Panics
    ///
    /// Panics if grids differ.
    pub fn difference(a0: &Trace, a1: &Trace) -> Trace {
        let mut d = a0.clone();
        d.sub_assign(a1);
        d
    }

    /// Maximum absolute sample value and its time, or `None` for an empty
    /// trace. This is the "DPA peak" metric.
    pub fn abs_peak(&self) -> Option<(u64, f64)> {
        self.samples
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(i, &v)| (self.time_of(i), v))
    }

    /// Like [`Trace::abs_peak`], restricted to samples whose time lies in
    /// `[t0_ps, t1_ps)` — the "point of interest" windowing attackers use
    /// to focus on the clock-less equivalent of a target instant.
    pub fn abs_peak_in(&self, t0_ps: u64, t1_ps: u64) -> Option<(u64, f64)> {
        self.samples
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let t = self.time_of(*i);
                t >= t0_ps && t < t1_ps
            })
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(i, &v)| (self.time_of(i), v))
    }

    /// Integral of the absolute value over time (fC), a robust energy-like
    /// magnitude of a bias signal.
    pub fn abs_area_fc(&self) -> f64 {
        self.samples.iter().map(|s| s.abs()).sum::<f64>() * self.dt_ps as f64
    }

    /// Total signed charge (fC) carried by the trace.
    pub fn charge_fc(&self) -> f64 {
        self.samples.iter().sum::<f64>() * self.dt_ps as f64
    }

    /// Signed charge (fC) carried in the window `[t0_ps, t1_ps)`. For a
    /// DPA bias trace this realises eq. 12's charge reading: over an
    /// evaluation window it integrates to the capacitance difference
    /// between the two classes' firing gates (times `Vdd`), cancelling
    /// pure time-shift jitter that charge conservation hides.
    pub fn charge_in_fc(&self, t0_ps: u64, t1_ps: u64) -> f64 {
        self.samples
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let t = self.time_of(*i);
                t >= t0_ps && t < t1_ps
            })
            .map(|(_, &v)| v)
            .sum::<f64>()
            * self.dt_ps as f64
    }

    /// Root-mean-square of the samples.
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.samples.iter().map(|s| s * s).sum::<f64>() / self.samples.len() as f64).sqrt()
    }

    /// Renders a compact ASCII plot of the trace (for terminal figures in
    /// examples and benches): `rows` lines of `cols` columns.
    pub fn ascii_plot(&self, cols: usize, rows: usize) -> String {
        if self.samples.is_empty() || cols == 0 || rows == 0 {
            return String::new();
        }
        let max = self
            .samples
            .iter()
            .fold(0.0f64, |m, s| m.max(s.abs()))
            .max(1e-12);
        let bucket = self.samples.len().div_ceil(cols);
        let col_vals: Vec<f64> = self
            .samples
            .chunks(bucket)
            .map(|c| {
                let peak = c
                    .iter()
                    .fold(0.0f64, |m, &s| if s.abs() > m.abs() { s } else { m });
                peak
            })
            .collect();
        let mut grid = vec![vec![' '; col_vals.len()]; rows];
        let mid = (rows - 1) / 2;
        for (c, &v) in col_vals.iter().enumerate() {
            let scaled = (v / max * mid as f64).round() as isize;
            let row = (mid as isize - scaled).clamp(0, rows as isize - 1) as usize;
            grid[row][c] = '*';
            grid[mid][c] = if grid[mid][c] == ' ' {
                '-'
            } else {
                grid[mid][c]
            };
        }
        grid.into_iter()
            .map(|r| r.into_iter().collect::<String>() + "\n")
            .collect()
    }
}

/// `sum[i] += a[0][i]`, then `a[1][i]`, … `a[7][i]`, for every `i` in
/// one pass: each sample's adds stay in list order, and the samples are
/// independent, so the loop vectorizes across them. Every addend must
/// cover `sum`.
fn add_eight(sum: &mut [f64], a: [&[f64]; 8]) {
    let n = sum.len();
    let [a0, a1, a2, a3, a4, a5, a6, a7] = a.map(|x| &x[..n]);
    for (i, s) in sum.iter_mut().enumerate() {
        *s = *s + a0[i] + a1[i] + a2[i] + a3[i] + a4[i] + a5[i] + a6[i] + a7[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pulse_conserves_charge() {
        for shape in [PulseShape::RcExponential, PulseShape::Triangular] {
            let mut t = Trace::zeros(0, 5, 10);
            t.add_pulse(
                Pulse {
                    t0_ps: 100,
                    charge_fc: 12.0,
                    dur_ps: 60,
                },
                shape,
            );
            assert!(
                (t.charge_fc() - 12.0).abs() < 0.5,
                "{shape:?}: got {}",
                t.charge_fc()
            );
        }
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let mut a = Trace::zeros(0, 10, 50);
        a.add_pulse(
            Pulse {
                t0_ps: 50,
                charge_fc: 5.0,
                dur_ps: 40,
            },
            PulseShape::Triangular,
        );
        let b = a.clone();
        a.add_assign(&b);
        a.sub_assign(&b);
        for (x, y) in a.samples().iter().zip(b.samples()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn average_of_identical_traces_is_identity() {
        let mut a = Trace::zeros(0, 10, 20);
        a.add_pulse(
            Pulse {
                t0_ps: 30,
                charge_fc: 3.0,
                dur_ps: 30,
            },
            PulseShape::RcExponential,
        );
        let avg = Trace::average([&a, &a, &a]);
        for (x, y) in avg.samples().iter().zip(a.samples()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn difference_of_equal_traces_is_zero() {
        let mut a = Trace::zeros(0, 10, 20);
        a.add_pulse(
            Pulse {
                t0_ps: 30,
                charge_fc: 3.0,
                dur_ps: 30,
            },
            PulseShape::Triangular,
        );
        let d = Trace::difference(&a, &a);
        assert!(d.abs_peak().expect("nonempty").1.abs() < 1e-12);
        assert!(d.abs_area_fc() < 1e-9);
    }

    #[test]
    fn abs_peak_finds_largest_magnitude() {
        let mut a = Trace::zeros(0, 10, 10);
        a.add_pulse(
            Pulse {
                t0_ps: 20,
                charge_fc: -8.0,
                dur_ps: 20,
            },
            PulseShape::Triangular,
        );
        a.add_pulse(
            Pulse {
                t0_ps: 70,
                charge_fc: 2.0,
                dur_ps: 20,
            },
            PulseShape::Triangular,
        );
        let (_, v) = a.abs_peak().expect("nonempty");
        assert!(v < 0.0, "negative pulse dominates");
    }

    #[test]
    fn different_lengths_zero_pad() {
        let mut a = Trace::zeros(0, 10, 5);
        let mut b = Trace::zeros(0, 10, 15);
        b.add_pulse(
            Pulse {
                t0_ps: 100,
                charge_fc: 4.0,
                dur_ps: 30,
            },
            PulseShape::Triangular,
        );
        a.add_assign(&b);
        assert_eq!(a.len(), b.len());
        assert!((a.charge_fc() - 4.0).abs() < 0.3);
    }

    #[test]
    #[should_panic(expected = "sample periods differ")]
    fn mismatched_grids_panic() {
        let mut a = Trace::zeros(0, 10, 5);
        let b = Trace::zeros(0, 20, 5);
        a.add_assign(&b);
    }

    #[test]
    fn gaussian_noise_has_requested_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut t = Trace::zeros(0, 10, 10_000);
        t.add_gaussian_noise(&mut rng, 0.5);
        let rms = t.rms();
        assert!((rms - 0.5).abs() < 0.05, "rms {rms} should be near 0.5");
    }

    #[test]
    fn zero_sigma_noise_is_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut t = Trace::zeros(0, 10, 100);
        t.add_gaussian_noise(&mut rng, 0.0);
        assert_eq!(t.rms(), 0.0);
    }

    #[test]
    fn ascii_plot_has_requested_rows() {
        let mut t = Trace::zeros(0, 10, 100);
        t.add_pulse(
            Pulse {
                t0_ps: 200,
                charge_fc: 10.0,
                dur_ps: 100,
            },
            PulseShape::Triangular,
        );
        let plot = t.ascii_plot(40, 7);
        assert_eq!(plot.lines().count(), 7);
        assert!(plot.contains('*'));
    }
}
