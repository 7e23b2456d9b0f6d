//! Property and edge-case coverage for `QDI_LOG` filter parsing and the
//! time-series rollups.

use proptest::prelude::*;

use qdi_obs::filter::Filter;
use qdi_obs::timeseries::{percentile, rollup};
use qdi_obs::Level;

/// The level tokens `Level::parse` accepts (plus `off`).
const LEVELS: [(&str, Option<Level>); 6] = [
    ("error", Some(Level::Error)),
    ("warn", Some(Level::Warn)),
    ("info", Some(Level::Info)),
    ("debug", Some(Level::Debug)),
    ("trace", Some(Level::Trace)),
    ("off", None),
];

const TARGETS: [&str; 5] = [
    "qdi_dpa",
    "qdi_dpa::attack",
    "qdi_sim::simulator",
    "qdi_pnr",
    "qdi_exec::pool",
];

fn mix(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

// -- QDI_LOG parsing: unit edge cases ---------------------------------------

#[test]
fn empty_and_whitespace_directives_are_ignored() {
    for spec in ["", ",", ",,,", " , ", "info,", ",info", " info , "] {
        let f = Filter::parse(spec).unwrap_or_else(|e| panic!("`{spec}` rejected: {e}"));
        if spec.contains("info") {
            assert_eq!(f.max_level(), Some(Level::Info), "spec `{spec}`");
        } else {
            assert!(f.directives().is_empty(), "spec `{spec}`");
        }
    }
}

#[test]
fn invalid_levels_error_instead_of_misparsing() {
    // `init_from_env` catches these errors and keeps tracing off, so a
    // bad QDI_LOG can never crash or accidentally enable everything.
    for spec in ["qdi_dpa=loud", "qdi_dpa=", "=debug", "a=b=c"] {
        assert!(Filter::parse(spec).is_err(), "spec `{spec}` should error");
    }
    // A bare unknown token is a *target* (RUST_LOG idiom), not an error.
    let f = Filter::parse("not_a_level").unwrap();
    assert!(f.enabled(Level::Trace, "not_a_level"));
    assert!(!f.enabled(Level::Error, "elsewhere"));
}

#[test]
fn target_level_lists_apply_longest_prefix() {
    let f = Filter::parse("warn,qdi_dpa=debug,qdi_dpa::attack=off").unwrap();
    assert!(f.enabled(Level::Debug, "qdi_dpa::campaign"));
    assert!(!f.enabled(Level::Error, "qdi_dpa::attack"), "off wins");
    assert!(f.enabled(Level::Warn, "qdi_sim"), "global fallback");
    assert!(!f.enabled(Level::Info, "qdi_sim"));
}

// -- QDI_LOG parsing: properties --------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any comma-join of valid `target=level` directives parses, and the
    /// exact-target lookup honours the most specific directive (later
    /// directives win ties), with `max_level` the max over all levels.
    #[test]
    fn valid_directive_lists_parse_consistently(seed in any::<u64>(), count in 0usize..6) {
        let mut state = seed | 1;
        let mut picked: Vec<(usize, usize)> = Vec::new();
        for _ in 0..count {
            let t = (mix(&mut state) as usize) % TARGETS.len();
            let l = (mix(&mut state) as usize) % LEVELS.len();
            picked.push((t, l));
        }
        let spec = picked
            .iter()
            .map(|&(t, l)| format!("{}={}", TARGETS[t], LEVELS[l].0))
            .collect::<Vec<_>>()
            .join(",");
        let f = Filter::parse(&spec).unwrap();
        prop_assert_eq!(f.directives().len(), picked.len());

        let expected_max = picked.iter().filter_map(|&(_, l)| LEVELS[l].1).max();
        prop_assert_eq!(f.max_level(), expected_max);

        // For each mentioned target, the deciding directive is the last
        // one among those with the longest matching prefix.
        for &(t, _) in &picked {
            let target = TARGETS[t];
            let decider = picked
                .iter()
                .filter(|&&(c, _)| {
                    target == TARGETS[c]
                        || target
                            .strip_prefix(TARGETS[c])
                            .is_some_and(|rest| rest.starts_with("::"))
                })
                .max_by_key(|&&(c, _)| TARGETS[c].len())
                .copied();
            if let Some((_, l)) = decider {
                match LEVELS[l].1 {
                    Some(max) => {
                        prop_assert!(f.enabled(max, target), "spec `{}` target `{}`", spec, target);
                        prop_assert_eq!(
                            f.enabled(Level::Trace, target),
                            Level::Trace <= max,
                            "spec `{}` target `{}`", spec, target
                        );
                    }
                    None => prop_assert!(
                        !f.enabled(Level::Error, target),
                        "spec `{}` target `{}` should be off", spec, target
                    ),
                }
            }
        }
    }

    /// Sprinkling empty segments into any valid spec changes nothing.
    #[test]
    fn empty_segments_never_change_meaning(seed in any::<u64>(), count in 0usize..4) {
        let mut state = seed | 1;
        let mut parts: Vec<String> = Vec::new();
        for _ in 0..count {
            let t = (mix(&mut state) as usize) % TARGETS.len();
            let l = (mix(&mut state) as usize) % LEVELS.len();
            parts.push(format!("{}={}", TARGETS[t], LEVELS[l].0));
        }
        let clean = parts.join(",");
        let noisy = format!(",, {} ,", parts.join(" ,, "));
        let f_clean = Filter::parse(&clean).unwrap();
        let f_noisy = Filter::parse(&noisy).unwrap();
        prop_assert_eq!(f_clean, f_noisy);
    }
}

// -- Rollups ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rollups agree with a straightforward recomputation over the window.
    #[test]
    fn rollup_matches_reference(seed in any::<u64>(), n in 1usize..100) {
        let mut state = seed | 1;
        let values: Vec<f64> = (0..n)
            .map(|_| (mix(&mut state) % 10_000) as f64 / 100.0)
            .collect();
        let r = rollup(&values);
        prop_assert_eq!(r.count, n as u64);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(r.min, min);
        prop_assert_eq!(r.max, max);
        prop_assert_eq!(r.last, values[n - 1]);
        let mean = values.iter().sum::<f64>() / n as f64;
        prop_assert!((r.mean - mean).abs() < 1e-9);
        // Percentiles are order statistics from the window itself.
        prop_assert!(values.contains(&r.p50));
        prop_assert!(values.contains(&r.p90));
        prop_assert!(values.contains(&r.p99));
        prop_assert!(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.max);
    }

    /// Nearest-rank percentiles bound correctly on sorted data.
    #[test]
    fn percentile_is_monotonic_in_p(seed in any::<u64>(), n in 1usize..80) {
        let mut state = seed | 1;
        let mut values: Vec<f64> = (0..n).map(|_| (mix(&mut state) % 1000) as f64).collect();
        values.sort_by(f64::total_cmp);
        let mut prev = f64::NEG_INFINITY;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = percentile(&values, p);
            prop_assert!(v >= prev, "percentile must be monotonic in p");
            prev = v;
        }
        prop_assert_eq!(percentile(&values, 100.0), values[n - 1]);
        prop_assert_eq!(percentile(&values, 1.0 / n as f64), values[0]);
    }
}
