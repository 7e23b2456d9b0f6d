//! Partitioning, averaging and differencing (eqs. 7–9) as one
//! accumulator, guess scores, and multi-bit combination. Guess ranking
//! itself runs on the one fixed-shard engine in [`crate::parallel`].

use qdi_analog::Trace;
use qdi_exec::ExecConfig;
use serde::{Deserialize, Serialize};

use crate::parallel::parallel_attack_windowed;
use crate::selection::SelectionFunction;
use crate::traceset::TraceSet;

/// Running partition sums for the DPA bias `T = A0 − A1` (eqs. 7–9):
/// traces are split by `D(input, guess)` (eq. 7) and summed per
/// partition, one run of consecutive acquisitions at a time ([`fold`]),
/// then each sum is averaged (eq. 8) and the averages are differenced
/// (eq. 9). The same accumulator serves in-memory sets
/// ([`crate::parallel`]) and `.qtrs` streams ([`crate::store`]) in
/// bounded memory.
///
/// Floating-point summation is not associative, so the *grouping* of
/// accumulations fixes the result bit-pattern. Every bias in the crate
/// folds shards of [`crate::BIAS_SHARD`] traces in index order and
/// merges them in shard order: per sample, each shard's partition sum
/// starts from a copy of its first trace and adds the rest in index
/// order. One summation tree, whatever the worker count, guess block or
/// store chunk size.
///
/// [`fold`]: BiasAccumulator::fold
#[derive(Debug, Clone, Default)]
pub(crate) struct BiasAccumulator {
    /// Running sums of the `D = 0` and `D = 1` partitions.
    sums: [Option<Trace>; 2],
    /// Traces folded into each partition.
    counts: [usize; 2],
}

impl BiasAccumulator {
    /// Folds one run of acquisitions, in index order, into the partition
    /// sums of `guess`. A partition's first trace starts its sum as a
    /// copy; after that its traces wait in a group of eight, which
    /// [`Trace::add_assign_all`] adds in one pass, and a partial group is
    /// added when the run ends — the same sums, bit for bit, as adding
    /// the traces one at a time, with no allocation past the copies.
    ///
    /// # Panics
    ///
    /// Panics if a trace grid differs from traces already folded (as
    /// [`Trace::add_assign`] does).
    pub(crate) fn fold<'a>(
        &mut self,
        run: impl IntoIterator<Item = (&'a [u8], &'a Trace)>,
        sel: &dyn SelectionFunction,
        guess: u16,
    ) {
        let mut run = run.into_iter().peekable();
        let Some(&(_, filler)) = run.peek() else {
            return;
        };
        // `filler` only occupies slots past `pending[d]`, which are never
        // added.
        let mut groups = [[filler; 8]; 2];
        let mut pending = [0usize; 2];
        for (input, trace) in run {
            let d = usize::from(sel.select(input, guess));
            self.counts[d] += 1;
            let Some(sum) = &mut self.sums[d] else {
                self.sums[d] = Some(trace.clone());
                continue;
            };
            groups[d][pending[d]] = trace;
            pending[d] += 1;
            if pending[d] == 8 {
                sum.add_assign_all(&groups[d]);
                pending[d] = 0;
            }
        }
        for ((sum, group), n) in self.sums.iter_mut().zip(&groups).zip(pending) {
            if let Some(sum) = sum {
                sum.add_assign_all(&group[..n]);
            }
        }
    }

    /// Merges another accumulator into this one. Merging shard
    /// accumulators in shard order keeps the summation tree — and thus
    /// the final bias — independent of how shards were scheduled.
    pub(crate) fn merge(&mut self, other: BiasAccumulator) {
        for ((sum, n), (other_sum, other_n)) in self
            .sums
            .iter_mut()
            .zip(&mut self.counts)
            .zip(other.sums.into_iter().zip(other.counts))
        {
            match (sum, other_sum) {
                (Some(sum), Some(other)) => sum.add_assign(&other),
                (slot @ None, other) => *slot = other,
                (Some(_), None) => {}
            }
            *n += other_n;
        }
    }

    /// Finishes the averages and returns `T = A0 − A1`, or `None` when
    /// either partition is empty (the guess cannot be scored).
    pub(crate) fn finish(self) -> Option<Trace> {
        let [Some(mut a0), Some(mut a1)] = self.sums else {
            return None;
        };
        a0.scale(1.0 / self.counts[0] as f64);
        a1.scale(1.0 / self.counts[1] as f64);
        Some(Trace::difference(&a0, &a1))
    }
}

/// Scores one guess from its bias trace.
pub(crate) fn score_bias(
    guess: u16,
    bias: &Trace,
    window: Option<(u64, u64)>,
) -> Option<GuessScore> {
    let (peak_time_ps, peak_signed) = match window {
        Some((t0, t1)) => bias.abs_peak_in(t0, t1)?,
        None => bias.abs_peak()?,
    };
    Some(GuessScore {
        guess,
        peak_abs: peak_signed.abs(),
        peak_signed,
        peak_time_ps,
        area: bias.abs_area_fc(),
    })
}

/// Sorts guess scores best-first: by peak, ties broken by guess value so
/// rankings are total and reproducible.
pub(crate) fn sort_scores(scores: &mut [GuessScore]) {
    scores.sort_by(|a, b| {
        b.peak_abs
            .total_cmp(&a.peak_abs)
            .then(a.guess.cmp(&b.guess))
    });
}

/// Score of one key guess.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuessScore {
    /// The key guess.
    pub guess: u16,
    /// Maximum absolute value of the bias signal.
    pub peak_abs: f64,
    /// Signed value at the peak (the sign disambiguates linear selection
    /// functions such as the paper's AES XOR `D`).
    pub peak_signed: f64,
    /// Time of the peak, ps.
    pub peak_time_ps: u64,
    /// Integral of |T| over time, a robust secondary score.
    pub area: f64,
}

/// Outcome of ranking every guess.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackResult {
    /// Selection function name.
    pub selection: String,
    /// Scores sorted by `peak_abs`, best first.
    pub scores: Vec<GuessScore>,
    /// Number of traces used.
    pub traces: usize,
}

impl AttackResult {
    /// The best-scoring guess.
    ///
    /// # Panics
    ///
    /// Panics if no guess could be scored.
    pub fn best(&self) -> &GuessScore {
        self.scores.first().expect("attack produced no scores")
    }

    /// 0-based rank of `guess`, or `None` if it was not scored.
    pub fn rank_of(&self, guess: u16) -> Option<usize> {
        self.scores.iter().position(|s| s.guess == guess)
    }

    /// Ratio of the best peak to the runner-up peak (> 1 means the best
    /// guess stands out; ≈ 1 means ghost peaks compete).
    pub fn ghost_ratio(&self) -> f64 {
        match self.scores.as_slice() {
            [best, second, ..] if second.peak_abs > 0.0 => best.peak_abs / second.peak_abs,
            _ => f64::INFINITY,
        }
    }
}

/// Multi-bit DPA in the spirit of Bevan–Knudsen: runs one single-bit attack
/// per selection function and sums, per guess, the absolute peak scores.
/// Combining bits sharpens the correct guess against ghost peaks.
pub fn multibit_attack(set: &TraceSet, sels: &[&dyn SelectionFunction]) -> AttackResult {
    multibit_attack_windowed(set, sels, None)
}

/// [`multibit_attack`] with an optional point-of-interest window applied
/// to every single-bit attack (see [`parallel_attack_windowed`]).
pub fn multibit_attack_windowed(
    set: &TraceSet,
    sels: &[&dyn SelectionFunction],
    window: Option<(u64, u64)>,
) -> AttackResult {
    assert!(
        !sels.is_empty(),
        "multibit attack needs at least one selection"
    );
    let guess_count = sels[0].guess_count();
    assert!(
        sels.iter().all(|s| s.guess_count() == guess_count),
        "all selections must share the guess space"
    );
    let mut combined: Vec<GuessScore> = (0..guess_count)
        .map(|guess| GuessScore {
            guess,
            peak_abs: 0.0,
            peak_signed: 0.0,
            peak_time_ps: 0,
            area: 0.0,
        })
        .collect();
    let guesses: Vec<u16> = (0..guess_count).collect();
    for sel in sels {
        let result = parallel_attack_windowed(set, *sel, &guesses, window, ExecConfig::serial());
        for score in result.scores {
            let slot = &mut combined[score.guess as usize];
            slot.peak_abs += score.peak_abs;
            slot.area += score.area;
            if score.peak_abs > slot.peak_signed.abs() {
                slot.peak_signed = score.peak_signed;
                slot.peak_time_ps = score.peak_time_ps;
            }
        }
    }
    sort_scores(&mut combined);
    let names: Vec<String> = sels.iter().map(|s| s.name()).collect();
    AttackResult {
        selection: format!("multibit[{}]", names.join(", ")),
        scores: combined,
        traces: set.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_attack, parallel_bias_signal};
    use crate::selection::ClosureSelect;
    use qdi_analog::{Pulse, PulseShape};

    /// Builds a synthetic set where bit `bit` of `input[0] ^ KEY` adds a
    /// pulse — a perfect leakage model.
    fn leaky_set(key: u8, bit: u8, n: usize) -> TraceSet {
        let mut set = TraceSet::new();
        for i in 0..n {
            // Pseudo-random but deterministic plaintexts.
            let p = (i as u8).wrapping_mul(151).wrapping_add(43);
            let mut t = Trace::zeros(0, 10, 32);
            t.add_pulse(
                Pulse {
                    t0_ps: 40,
                    charge_fc: 10.0,
                    dur_ps: 40,
                },
                PulseShape::Triangular,
            );
            if ((p ^ key) >> bit) & 1 == 1 {
                t.add_pulse(
                    Pulse {
                        t0_ps: 120,
                        charge_fc: 6.0,
                        dur_ps: 40,
                    },
                    PulseShape::Triangular,
                );
            }
            set.push(vec![p], t);
        }
        set
    }

    /// A nonlinear (S-box-like) selection so the full key value resolves.
    fn sbox_like(p: u8, k: u8) -> bool {
        qdi_crypto::aes::first_round_sbox(p, k) & 1 == 1
    }

    #[test]
    fn bias_peaks_for_correct_split() {
        let key = 0xA7;
        let set = leaky_set(key, 0, 64);
        let sel = ClosureSelect::new("xor-bit0", 256, |input: &[u8], guess| {
            ((input[0] ^ guess as u8) & 1) == 1
        });
        let correct = parallel_bias_signal(&set, &sel, key as u16, ExecConfig::serial())
            .expect("both sets populated");
        let (_, peak) = correct.abs_peak().expect("nonempty");
        // D = 1 set carries the extra pulse, so A0 - A1 < 0 at the peak.
        assert!(peak < 0.0);
        assert!(peak.abs() > 0.05);
    }

    #[test]
    fn nonlinear_attack_ranks_correct_key_first() {
        let key = 0x3C;
        let mut set = TraceSet::new();
        for i in 0..160usize {
            let p = (i as u8).wrapping_mul(151).wrapping_add(43);
            let mut t = Trace::zeros(0, 10, 32);
            if sbox_like(p, key) {
                t.add_pulse(
                    Pulse {
                        t0_ps: 100,
                        charge_fc: 5.0,
                        dur_ps: 40,
                    },
                    PulseShape::Triangular,
                );
            }
            set.push(vec![p], t);
        }
        let sel = ClosureSelect::new("sbox-bit0", 256, |input: &[u8], g| {
            sbox_like(input[0], g as u8)
        });
        let result = parallel_attack(&set, &sel, ExecConfig::serial());
        assert_eq!(
            result.best().guess,
            key as u16,
            "correct key must rank first"
        );
        assert!(
            result.ghost_ratio() > 1.2,
            "ghost ratio {}",
            result.ghost_ratio()
        );
    }

    #[test]
    fn balanced_traces_show_no_peak() {
        // All traces identical: every bias is exactly zero.
        let mut set = TraceSet::new();
        for i in 0..32u8 {
            let mut t = Trace::zeros(0, 10, 16);
            t.add_pulse(
                Pulse {
                    t0_ps: 40,
                    charge_fc: 8.0,
                    dur_ps: 40,
                },
                PulseShape::Triangular,
            );
            set.push(vec![i], t);
        }
        let sel = ClosureSelect::new("bit0", 2, |input: &[u8], g| (input[0] ^ g as u8) & 1 == 1);
        let result = parallel_attack(&set, &sel, ExecConfig::serial());
        for s in &result.scores {
            assert!(
                s.peak_abs < 1e-9,
                "guess {} peaked at {}",
                s.guess,
                s.peak_abs
            );
        }
    }

    #[test]
    fn bias_none_when_partition_degenerates() {
        let mut set = TraceSet::new();
        set.push(vec![0], Trace::zeros(0, 10, 8));
        let sel = ClosureSelect::new("always0", 2, |_: &[u8], _| false);
        assert!(parallel_bias_signal(&set, &sel, 0, ExecConfig::serial()).is_none());
    }

    #[test]
    fn attack_with_guess_subset() {
        let key = 0x11;
        let set = leaky_set(key, 0, 64);
        let sel = ClosureSelect::new("xor-bit0", 256, |input: &[u8], g| {
            ((input[0] ^ g as u8) & 1) == 1
        });
        let result =
            parallel_attack_windowed(&set, &sel, &[0x10, 0x11, 0x12], None, ExecConfig::serial());
        assert_eq!(result.scores.len(), 3);
        assert!(result.rank_of(0x11).is_some());
    }

    #[test]
    fn multibit_combines_bits() {
        let key = 0x5E;
        let mut set = TraceSet::new();
        for i in 0..200usize {
            let p = (i as u8).wrapping_mul(151).wrapping_add(43);
            let mut t = Trace::zeros(0, 10, 32);
            let v = qdi_crypto::aes::first_round_sbox(p, key);
            for bit in 0..4u8 {
                if (v >> bit) & 1 == 1 {
                    t.add_pulse(
                        Pulse {
                            t0_ps: 60 + 40 * bit as u64,
                            charge_fc: 3.0,
                            dur_ps: 30,
                        },
                        PulseShape::Triangular,
                    );
                }
            }
            set.push(vec![p], t);
        }
        let sels: Vec<crate::selection::AesSboxSelect> = (0..4)
            .map(|bit| crate::selection::AesSboxSelect { byte: 0, bit })
            .collect();
        let refs: Vec<&dyn SelectionFunction> =
            sels.iter().map(|s| s as &dyn SelectionFunction).collect();
        let result = multibit_attack(&set, &refs);
        assert_eq!(result.best().guess, key as u16);
    }
}
