//! Property-based tests of trace algebra and the electrical model.

use proptest::prelude::*;

use qdi_analog::{power, Pulse, PulseShape, Trace};

fn arb_pulse() -> impl Strategy<Value = Pulse> {
    (0u64..2000, 0.1f64..50.0, 1u64..300).prop_map(|(t0_ps, charge_fc, dur_ps)| Pulse {
        t0_ps,
        charge_fc,
        dur_ps,
    })
}

/// A sample whose bits matter: exact ±0.0, or a magnitude from 1e-3 to
/// 1e3 of either sign, so the order of adds shows in the last bits.
fn arb_sample() -> impl Strategy<Value = f64> {
    (0u8..4, -3.0f64..3.0).prop_map(|(kind, e)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 10f64.powf(e),
        _ => -(10f64.powf(e)),
    })
}

/// A trace on the `(0, 10)` grid of 0–12 samples.
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_sample(), 0..13).prop_map(|s| Trace::from_samples(0, 10, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused sum is a loop of `add_assign`, bit for bit: addends
    /// shorter than, as long as and longer than the sum, ±0.0 samples,
    /// partial groups of eight and tails.
    #[test]
    fn add_assign_all_is_a_loop_of_add_assign(
        sum in arb_trace(),
        addends in prop::collection::vec(arb_trace(), 0..21),
    ) {
        let refs: Vec<&Trace> = addends.iter().collect();
        let mut fused = sum.clone();
        fused.add_assign_all(&refs);
        let mut looped = sum;
        for t in &refs {
            looped.add_assign(t);
        }
        let bits = |t: &Trace| t.samples().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fused), bits(&looped));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Superposition: the charge of a sum of pulses is the sum of their
    /// charges, whatever the overlaps.
    #[test]
    fn superposition_conserves_charge(pulses in prop::collection::vec(arb_pulse(), 1..8),
                                      dt in 1u64..40) {
        let mut trace = Trace::zeros(0, dt, 4);
        let mut expected = 0.0;
        for p in &pulses {
            trace.add_pulse(*p, PulseShape::RcExponential);
            expected += p.charge_fc;
        }
        let got = trace.charge_fc();
        prop_assert!((got - expected).abs() < 0.01 * expected + 1e-9,
                     "{got} vs {expected}");
    }

    /// Averaging then differencing identical sets gives exactly zero.
    #[test]
    fn self_difference_is_zero(pulses in prop::collection::vec(arb_pulse(), 1..6)) {
        let mut t = Trace::zeros(0, 10, 8);
        for p in &pulses {
            t.add_pulse(*p, PulseShape::Triangular);
        }
        let avg = Trace::average([&t, &t, &t]);
        let diff = Trace::difference(&avg, &t);
        prop_assert!(diff.abs_area_fc() < 1e-9);
    }

    /// `abs_peak_in` over the full span equals `abs_peak`.
    #[test]
    fn windowed_peak_degenerates_to_global(p in arb_pulse()) {
        let mut t = Trace::zeros(0, 10, 8);
        t.add_pulse(p, PulseShape::Triangular);
        let global = t.abs_peak().expect("nonempty");
        let windowed = t.abs_peak_in(0, t.time_of(t.len() - 1) + 10).expect("nonempty");
        prop_assert_eq!(global, windowed);
    }

    /// Window charges partition: charge(0, mid) + charge(mid, end) equals
    /// the total charge.
    #[test]
    fn window_charges_partition(p in arb_pulse(), mid_frac in 0.1f64..0.9) {
        let mut t = Trace::zeros(0, 10, 8);
        t.add_pulse(p, PulseShape::RcExponential);
        let end = t.time_of(t.len() - 1) + 10;
        let mid = ((end as f64 * mid_frac) as u64 / 10) * 10; // bin aligned
        let parts = t.charge_in_fc(0, mid) + t.charge_in_fc(mid, end);
        prop_assert!((parts - t.charge_fc()).abs() < 1e-9);
    }

    /// Scaling a trace scales its peak and area linearly.
    #[test]
    fn scaling_is_linear(p in arb_pulse(), k in 0.1f64..10.0) {
        let mut t = Trace::zeros(0, 10, 8);
        t.add_pulse(p, PulseShape::Triangular);
        let area = t.abs_area_fc();
        let peak = t.abs_peak().expect("nonempty").1;
        t.scale(k);
        prop_assert!((t.abs_area_fc() - k * area).abs() < 1e-9 * (1.0 + k * area));
        prop_assert!((t.abs_peak().expect("nonempty").1 - k * peak).abs() < 1e-12 + 1e-9 * k);
    }

    /// The block power equation is additive over gates (eq. 3).
    #[test]
    fn block_power_is_additive(caps in prop::collection::vec(0.1f64..100.0, 1..10)) {
        let total = power::block_power_w(1.0, 1e8, &caps, 1.2);
        let sum: f64 = caps
            .iter()
            .map(|&c| power::block_power_w(1.0, 1e8, &[c], 1.2))
            .sum();
        prop_assert!((total - sum).abs() < 1e-18 + 1e-12 * total);
    }
}

#[test]
#[should_panic(expected = "trace sample periods differ")]
fn add_assign_all_panics_on_a_grid_mismatch() {
    let mut sum = Trace::zeros(0, 10, 4);
    let same = Trace::zeros(0, 10, 4);
    let other = Trace::zeros(0, 20, 4);
    sum.add_assign_all(&[&same; 8]);
    sum.add_assign_all(&[&same, &same, &other]);
}

#[test]
#[should_panic(expected = "trace origins differ")]
fn add_assign_all_panics_on_an_origin_mismatch() {
    let mut sum = Trace::zeros(0, 10, 4);
    sum.add_assign_all(&[&Trace::zeros(5, 10, 4)]);
}
