//! Serializable per-step telemetry embedded in flow reports.
//!
//! [`Telemetry::step`] wraps one flow step: it opens an info span,
//! times the step on the monotonic clock, and captures the delta of
//! every registered metric across the step, so reports carry both
//! wall-clock structure and headline counters without the caller
//! threading state around.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{MetricSample, MetricsSnapshot};

/// Telemetry for one named flow step.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StepTelemetry {
    /// Step name, e.g. `place_and_route`.
    pub step: String,
    /// Wall time spent in the step, milliseconds.
    pub wall_ms: f64,
    /// Metric deltas across the step (counters as differences, gauges
    /// and high-water marks as absolutes).
    pub counters: Vec<MetricSample>,
}

/// Telemetry for a whole flow run; serialized into flow reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Total wall time across recorded steps, milliseconds.
    pub total_wall_ms: f64,
    /// Per-step records, in execution order.
    pub steps: Vec<StepTelemetry>,
}

impl Telemetry {
    /// An empty telemetry block.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Runs `f` as a named, timed, span-wrapped step and records it.
    pub fn step<T>(&mut self, target: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let before = MetricsSnapshot::capture();
        let mut span = crate::span(target, name);
        let start = Instant::now();
        let out = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        span.set_attr("wall_ms", wall_ms);
        drop(span);
        let counters = MetricsSnapshot::capture().delta_since(&before).samples;
        self.total_wall_ms += wall_ms;
        self.steps.push(StepTelemetry {
            step: name.to_string(),
            wall_ms,
            counters,
        });
        out
    }

    /// The recorded step with the given name, if any.
    #[must_use]
    pub fn step_named(&self, name: &str) -> Option<&StepTelemetry> {
        self.steps.iter().find(|s| s.step == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn step_records_time_and_counter_deltas() {
        let c = metrics::counter("obs.test.telemetry_steps");
        let mut telemetry = Telemetry::new();
        let out = telemetry.step("qdi_obs::tests", "work", || {
            c.add(3);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(telemetry.steps.len(), 1);
        let step = telemetry.step_named("work").expect("step recorded");
        assert!(step.wall_ms >= 0.0);
        let delta = step
            .counters
            .iter()
            .find(|s| s.name == "obs.test.telemetry_steps")
            .expect("counter delta captured");
        assert_eq!(delta.value, 3.0);
        assert!(telemetry.total_wall_ms >= step.wall_ms);
    }
}
