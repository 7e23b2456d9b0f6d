//! Service-level objectives over the campaign server's RED series.
//!
//! An [`SloConfig`] names objectives against the per-route/per-tenant
//! request, error and latency series `qdi-serve` exposes on
//! `/metrics` (see [`ROUTE_REQUESTS`], [`ROUTE_ERRORS`],
//! [`ROUTE_LATENCY_MS`]). [`evaluate`] reads a scraped exposition and
//! produces one [`SloVerdict`] per objective:
//!
//! * **availability** — the target is a minimum success ratio (e.g.
//!   `0.999`). The verdict carries the observed ratio and the **burn
//!   rate**: observed error ratio divided by the error budget
//!   (`1 − target`). Burn rate ≤ 1 means the objective holds; 2 means
//!   the budget is being spent twice as fast as allowed.
//! * **p99 latency** — the target is a millisecond bound checked
//!   against the nearest-rank p99 of the matching latency histograms
//!   (merged across routes/tenants when the objective wildcards them).
//!   Observations past the last finite bucket report `+Inf` and fail
//!   any finite target.
//!
//! Objectives with no matching traffic pass vacuously (a fresh server
//! is not in breach), but the verdict records `requests = 0` so a
//! gate that requires traffic can still tell the difference.

use serde::{Deserialize, Serialize};

use crate::metrics::HistogramSnapshot;
use crate::prometheus;

/// Dotted name of the per-route request counter (labels: `route`,
/// `tenant`).
pub const ROUTE_REQUESTS: &str = "serve.http.route.requests";
/// Dotted name of the per-route error counter (labels: `route`,
/// `tenant`, `class`).
pub const ROUTE_ERRORS: &str = "serve.http.route.errors";
/// Dotted name of the per-route latency histogram in milliseconds
/// (labels: `route`, `tenant`).
pub const ROUTE_LATENCY_MS: &str = "serve.http.route.latency.ms";

/// One objective: which route/tenant slice it covers and the targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Objective name, shown in verdicts (e.g. `jobs-p99`).
    pub name: String,
    /// Route label to match; `None` matches every route.
    #[serde(default)]
    pub route: Option<String>,
    /// Tenant label to match; `None` matches every tenant.
    #[serde(default)]
    pub tenant: Option<String>,
    /// Minimum success ratio in `(0, 1]`, e.g. `0.999`.
    #[serde(default)]
    pub availability: Option<f64>,
    /// Maximum nearest-rank p99 latency in milliseconds.
    #[serde(default)]
    pub p99_ms: Option<f64>,
}

/// A set of objectives, as loaded from an SLO config JSON file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// The objectives to evaluate.
    pub slos: Vec<Slo>,
}

impl SloConfig {
    /// Parses and validates a config from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a description on malformed JSON, an empty objective
    /// list, an objective with no target, or a target out of range.
    pub fn from_json(text: &str) -> Result<SloConfig, String> {
        let cfg: SloConfig = serde_json::from_str(text).map_err(|e| format!("slo config: {e}"))?;
        if cfg.slos.is_empty() {
            return Err("slo config: no objectives".to_string());
        }
        for slo in &cfg.slos {
            if slo.availability.is_none() && slo.p99_ms.is_none() {
                return Err(format!(
                    "slo `{}`: needs `availability` and/or `p99_ms`",
                    slo.name
                ));
            }
            if let Some(a) = slo.availability {
                if !(a > 0.0 && a <= 1.0) {
                    return Err(format!(
                        "slo `{}`: availability {a} not in (0, 1]",
                        slo.name
                    ));
                }
            }
            if let Some(p) = slo.p99_ms {
                if !(p > 0.0 && p.is_finite()) {
                    return Err(format!("slo `{}`: p99_ms {p} must be positive", slo.name));
                }
            }
        }
        Ok(cfg)
    }
}

/// The outcome of one objective against one scrape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloVerdict {
    /// Objective name.
    pub name: String,
    /// Route slice (`*` when wildcarded).
    pub route: String,
    /// Tenant slice (`*` when wildcarded).
    pub tenant: String,
    /// Requests observed in the slice.
    pub requests: u64,
    /// Errors observed in the slice (all classes).
    pub errors: u64,
    /// Observed success ratio, when there was traffic.
    #[serde(default)]
    pub availability: Option<f64>,
    /// The availability target, when the objective set one.
    #[serde(default)]
    pub availability_target: Option<f64>,
    /// Error-budget burn rate (1.0 = spending exactly the budget).
    #[serde(default)]
    pub burn_rate: Option<f64>,
    /// Observed nearest-rank p99 in ms (`None` without traffic;
    /// `+Inf` when p99 fell past the last finite bucket).
    #[serde(default)]
    pub p99_ms: Option<f64>,
    /// The p99 target, when the objective set one.
    #[serde(default)]
    pub p99_target_ms: Option<f64>,
    /// Whether every configured target held.
    pub ok: bool,
}

/// Verdicts for a whole config, in config order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// One verdict per objective.
    pub verdicts: Vec<SloVerdict>,
}

impl SloReport {
    /// Whether any objective is in breach.
    #[must_use]
    pub fn breached(&self) -> bool {
        self.verdicts.iter().any(|v| !v.ok)
    }

    /// A fixed-width text table of the verdicts, one line each plus a
    /// trailing summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            let avail = match (v.availability, v.availability_target) {
                (_, None) => "-".to_string(),
                (None, Some(t)) => format!("-/{t}"),
                (Some(a), Some(t)) => format!("{a:.5}/{t}"),
            };
            let burn = v
                .burn_rate
                .map_or_else(|| "-".to_string(), |b| format!("{b:.2}"));
            let p99 = match (v.p99_ms, v.p99_target_ms) {
                (_, None) => "-".to_string(),
                (None, Some(t)) => format!("-/{t}ms"),
                (Some(p), Some(t)) if p.is_infinite() => format!(">bucket/{t}ms"),
                (Some(p), Some(t)) => format!("{p}/{t}ms"),
            };
            out.push_str(&format!(
                "{} {:24} route={} tenant={} requests={} errors={} availability={} burn={} p99={}\n",
                if v.ok { "OK    " } else { "BREACH" },
                v.name,
                v.route,
                v.tenant,
                v.requests,
                v.errors,
                avail,
                burn,
                p99,
            ));
        }
        let breaches = self.verdicts.iter().filter(|v| !v.ok).count();
        out.push_str(&format!(
            "{} objective(s), {} breached\n",
            self.verdicts.len(),
            breaches
        ));
        out
    }
}

fn matches(want: Option<&str>, got: &str) -> bool {
    match want {
        None => true,
        Some(w) => w == "*" || w == got,
    }
}

fn label<'s>(labels: &'s [(String, String)], key: &str) -> &'s str {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map_or("", |(_, v)| v.as_str())
}

/// Evaluates a config against a scraped Prometheus exposition.
///
/// # Errors
///
/// Returns a description when the exposition does not parse or its
/// histogram series are inconsistent.
pub fn evaluate(cfg: &SloConfig, exposition: &str) -> Result<SloReport, String> {
    let scrape = prometheus::parse(exposition)?;
    // Each series' (family, route, tenant); other labels, such as an
    // error's `class`, are summed over.
    let slice = |name: &str| -> Result<(String, String, String), String> {
        let (base, labels) = prometheus::parse_labels(name)?;
        let route = label(&labels, "route").to_string();
        Ok((base, route, label(&labels, "tenant").to_string()))
    };
    let samples = scrape
        .samples
        .iter()
        .map(|s| Ok((slice(&s.name)?, s.value as u64)))
        .collect::<Result<Vec<_>, String>>()?;
    let histograms = scrape
        .histograms
        .iter()
        .map(|h| Ok((slice(&h.name)?, h)))
        .collect::<Result<Vec<_>, String>>()?;

    let mut verdicts = Vec::with_capacity(cfg.slos.len());
    for slo in &cfg.slos {
        let (route, tenant) = (slo.route.as_deref(), slo.tenant.as_deref());
        let wanted = |(family, r, t): &(String, String, String), name: &str| {
            *family == prometheus::metric_name(name) && matches(route, r) && matches(tenant, t)
        };
        // Scraped counts are untrusted: saturate rather than overflow.
        let count = |name: &str| {
            samples
                .iter()
                .filter(|(series, _)| wanted(series, name))
                .fold(0u64, |sum, (_, v)| sum.saturating_add(*v))
        };
        let (total, failed) = (count(ROUTE_REQUESTS), count(ROUTE_ERRORS));

        let availability = (total > 0).then(|| 1.0 - (failed.min(total) as f64 / total as f64));
        let burn_rate = match (slo.availability, availability) {
            (Some(target), Some(observed)) => {
                let budget = 1.0 - target;
                let spent = 1.0 - observed;
                Some(if budget > 0.0 {
                    spent / budget
                } else if spent > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                })
            }
            _ => None,
        };
        let availability_ok = match (slo.availability, availability) {
            (Some(target), Some(observed)) => observed >= target,
            _ => true, // no target, or no traffic to judge
        };

        let mut merged: Option<HistogramSnapshot> = None;
        if slo.p99_ms.is_some() {
            for (_, h) in histograms
                .iter()
                .filter(|(series, _)| wanted(series, ROUTE_LATENCY_MS))
            {
                match merged.as_mut() {
                    None => merged = Some((*h).clone()),
                    Some(m) => m.merge(h)?,
                }
            }
        }
        let p99 = merged.as_ref().and_then(|m| m.quantile(0.99));
        let p99_ok = match (slo.p99_ms, p99) {
            (Some(target), Some(observed)) => observed <= target,
            _ => true,
        };

        verdicts.push(SloVerdict {
            name: slo.name.clone(),
            route: slo.route.clone().unwrap_or_else(|| "*".to_string()),
            tenant: slo.tenant.clone().unwrap_or_else(|| "*".to_string()),
            requests: total,
            errors: failed,
            availability,
            availability_target: slo.availability,
            burn_rate,
            p99_ms: p99,
            p99_target_ms: slo.p99_ms,
            ok: availability_ok && p99_ok,
        });
    }
    Ok(SloReport { verdicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{series, MetricSample, MetricsSnapshot};

    fn exposition(errors_routes: u64, slow: u64) -> String {
        let mut scrape = MetricsSnapshot::default();
        for (tenant, requests) in [("alice", 60u64), ("bob", 40u64)] {
            let labels = [("route", "/v1/jobs"), ("tenant", tenant)];
            scrape.samples.push(MetricSample {
                name: series(ROUTE_REQUESTS, &labels),
                value: requests as f64,
            });
            scrape.histograms.push(HistogramSnapshot {
                name: series(ROUTE_LATENCY_MS, &labels),
                bounds: vec![10.0, 100.0],
                counts: vec![requests - slow, 0, slow],
                sum: 42.0,
            });
        }
        scrape.samples.push(MetricSample {
            name: series(
                ROUTE_ERRORS,
                &[
                    ("route", "/v1/jobs"),
                    ("tenant", "alice"),
                    ("class", "server"),
                ],
            ),
            value: errors_routes as f64,
        });
        scrape.normalize();
        prometheus::render(&scrape)
    }

    fn config(json: &str) -> SloConfig {
        SloConfig::from_json(json).unwrap()
    }

    #[test]
    fn config_validation_rejects_empty_and_targetless_objectives() {
        assert!(SloConfig::from_json("{\"slos\":[]}").is_err());
        assert!(SloConfig::from_json("{\"slos\":[{\"name\":\"x\"}]}").is_err());
        assert!(
            SloConfig::from_json("{\"slos\":[{\"name\":\"x\",\"availability\":1.5}]}").is_err()
        );
        assert!(SloConfig::from_json("{\"slos\":[{\"name\":\"x\",\"p99_ms\":-1}]}").is_err());
        assert!(SloConfig::from_json("not json").is_err());
        let ok = config("{\"slos\":[{\"name\":\"x\",\"availability\":0.99}]}");
        assert_eq!(ok.slos[0].route, None);
    }

    #[test]
    fn availability_verdicts_carry_burn_rates() {
        // 100 requests, 2 errors => 98% observed. Target 99% => burn 2.
        let cfg = config(
            "{\"slos\":[{\"name\":\"avail\",\"route\":\"/v1/jobs\",\"availability\":0.99}]}",
        );
        let report = evaluate(&cfg, &exposition(2, 0)).unwrap();
        let v = &report.verdicts[0];
        assert_eq!(v.requests, 100);
        assert_eq!(v.errors, 2);
        assert!(!v.ok);
        assert!((v.burn_rate.unwrap() - 2.0).abs() < 1e-9);
        assert!(report.breached());
        assert!(report.render_text().contains("BREACH"));

        // No errors: burn 0, ok.
        let report = evaluate(&cfg, &exposition(0, 0)).unwrap();
        assert!(report.verdicts[0].ok);
        assert_eq!(report.verdicts[0].burn_rate, Some(0.0));
        assert!(!report.breached());
    }

    #[test]
    fn p99_verdicts_merge_wildcarded_tenants() {
        let cfg = config("{\"slos\":[{\"name\":\"lat\",\"p99_ms\":100}]}");
        // No slow requests: p99 lands in the 10ms bucket.
        let report = evaluate(&cfg, &exposition(0, 0)).unwrap();
        assert_eq!(report.verdicts[0].p99_ms, Some(10.0));
        assert!(report.verdicts[0].ok);
        // 2 of 100 overflow the last bucket: p99 is past every bound.
        let report = evaluate(&cfg, &exposition(0, 2)).unwrap();
        assert_eq!(report.verdicts[0].p99_ms, Some(f64::INFINITY));
        assert!(!report.verdicts[0].ok);
        assert!(report.render_text().contains(">bucket"));
    }

    #[test]
    fn tenant_scoped_objectives_see_only_their_slice() {
        let cfg =
            config("{\"slos\":[{\"name\":\"bob\",\"tenant\":\"bob\",\"availability\":0.99}]}");
        // All errors are alice's; bob stays green.
        let report = evaluate(&cfg, &exposition(5, 0)).unwrap();
        let v = &report.verdicts[0];
        assert_eq!(v.requests, 40);
        assert_eq!(v.errors, 0);
        assert!(v.ok);
    }

    #[test]
    fn no_traffic_passes_vacuously_but_is_visible() {
        let cfg = config("{\"slos\":[{\"name\":\"x\",\"availability\":0.99,\"p99_ms\":50}]}");
        let report = evaluate(&cfg, "").unwrap();
        let v = &report.verdicts[0];
        assert!(v.ok);
        assert_eq!(v.requests, 0);
        assert_eq!(v.availability, None);
        assert_eq!(v.p99_ms, None);
    }

    #[test]
    fn verdicts_round_trip_as_json() {
        let cfg = config("{\"slos\":[{\"name\":\"x\",\"availability\":0.999}]}");
        let report = evaluate(&cfg, &exposition(1, 0)).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: SloReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
