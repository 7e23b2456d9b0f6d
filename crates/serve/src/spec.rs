//! Job specifications — the JSON wire format a tenant POSTs to
//! `/v1/jobs`.
//!
//! A spec embeds the same config structs the library APIs take
//! ([`qdi_dpa::CampaignConfig`], [`qdi_fi::campaign::CampaignConfig`],
//! [`qdi_pnr::Strategy`]), so a remote campaign is configured by
//! exactly the knobs a local run would use and the server never
//! re-interprets science parameters. Everything else here is service
//! metadata: tenant, priority class, display name.

use serde::{Deserialize, Serialize};

use qdi_core::FlowConfig;
use qdi_dpa::{CampaignConfig, ResilienceConfig};

/// Scheduling priority *within* one tenant's queue. Fair sharing
/// across tenants always dominates: a tenant cannot jump another
/// tenant's turn by marking everything `High` (see
/// [`crate::scheduler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Scheduled before the tenant's other queued jobs.
    High,
    /// Default.
    Normal,
    /// Scheduled only when the tenant has nothing better queued.
    Low,
}

impl Priority {
    /// Rank for ordering (lower schedules first).
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A DPA trace-acquisition campaign on the gate-level AES byte slice,
/// checkpointed to a per-tenant `.qtrs` store
/// ([`qdi_dpa::StoreCampaignRunner`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpaJobSpec {
    /// Slice stage: `"xor"` (the paper's `D` target) or `"sbox"`.
    pub stage: String,
    /// The campaign proper — identical to a local run's config.
    pub campaign: CampaignConfig,
    /// Checkpoint cadence and retry policy; the default checkpoints
    /// every 64 traces. `checkpoint_every` is also the scheduling
    /// quantum: the server re-evaluates fair share at every chunk.
    pub resilience: Option<ResilienceConfig>,
    /// Worker threads for this job's acquisition pool (default 1).
    /// Part of the checkpoint fingerprint: a resumed job must use the
    /// same value, so it rides in the spec rather than server config.
    pub exec_workers: Option<usize>,
    /// Bias signals `T = A0 − A1` to compute into the final report.
    pub attack: Option<AttackSpec>,
}

/// Which bias signals the completed campaign's report should carry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackSpec {
    /// Selection function: `"xor"` ([`qdi_dpa::selection::AesXorSelect`])
    /// or `"sbox"` ([`qdi_dpa::selection::AesSboxSelect`]).
    pub selection: String,
    /// Targeted bit of the selection function (0 = LSB).
    pub bit: u8,
    /// Key guesses to difference the traces under. Defaults to the
    /// device key from the campaign config (sanity: the right guess
    /// must show the signature peak).
    pub guesses: Option<Vec<u16>>,
}

/// A fault-injection campaign over the byte slice's gates
/// ([`qdi_fi::run_campaign_parallel`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiJobSpec {
    /// Slice stage to build the target netlist for: `"xor"` | `"sbox"`.
    pub stage: String,
    /// Stimulus/seed/testbench configuration.
    pub campaign: qdi_fi::campaign::CampaignConfig,
    /// Fault models as a CSV over `seu,stuck0,stuck1,delay,glitch`
    /// (parsed by [`qdi_fi::parse_models`]).
    pub models: String,
    /// Injection times in ps; derived from a golden run when omitted.
    pub times_ps: Option<Vec<u64>>,
    /// Optional uniform subsample of the fault cross product.
    pub sample: Option<usize>,
}

/// A placement stability study ([`qdi_pnr::stability_study_parallel`])
/// on the AES column datapath.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PnrJobSpec {
    /// Flat (AES_v2) or Hierarchical (AES_v1) flow.
    pub strategy: qdi_pnr::Strategy,
    /// Annealing seeds, one flow run per seed.
    pub seeds: Vec<u64>,
    /// Annealing effort override (default 40).
    pub moves_per_gate: Option<u64>,
}

/// What to run. Externally tagged on the wire:
/// `{"Dpa": {...}}` / `{"Fi": {...}}` / `{"Pnr": {...}}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobKind {
    /// DPA trace campaign.
    Dpa(DpaJobSpec),
    /// Fault-injection campaign.
    Fi(FiJobSpec),
    /// P&R stability study.
    Pnr(PnrJobSpec),
}

impl JobKind {
    /// Short label for listings.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Dpa(_) => "dpa",
            JobKind::Fi(_) => "fi",
            JobKind::Pnr(_) => "pnr",
        }
    }
}

/// A submitted job: tenant + service metadata + the campaign itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Owning tenant; namespaces the artifact directory and the fair
    /// share. `[A-Za-z0-9_-]{1,64}`.
    pub tenant: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Priority within the tenant's own queue (default `Normal`).
    pub priority: Option<Priority>,
    /// The campaign to run.
    pub kind: JobKind,
}

/// Upper bound on `campaign.traces` a single job may request.
pub const MAX_TRACES: usize = 1_000_000;

/// Most injection times a fault-injection job may list. The campaign
/// enumerates gates × models × times faults up front and keeps one golden
/// testbench snapshot per time, so this bounds both.
pub const MAX_INJECTION_TIMES: usize = 256;

/// Latest injection time a fault-injection job may name: 1 s of simulated
/// time, far past the end of any campaign's golden run, and far from the
/// end of the `u64` range the simulator adds fault durations in.
pub const MAX_INJECTION_TIME_PS: u64 = 1_000_000_000_000;

/// Most entries a fault-injection job's `models` list may hold: one per
/// fault model. Like the times, the count multiplies the fault list.
pub const MAX_FAULT_MODELS: usize = 6;

fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn valid_stage(stage: &str) -> bool {
    matches!(stage, "xor" | "sbox")
}

impl JobSpec {
    /// Validates service-level invariants (tenant charset, stage names,
    /// bounded trace/seed counts). Science parameters are left to the
    /// library layer, which reports its own errors.
    ///
    /// # Errors
    ///
    /// A human-readable reason suitable for a 422 response body.
    pub fn validate(&self) -> Result<(), String> {
        if !valid_tenant(&self.tenant) {
            return Err(format!(
                "tenant {:?} must match [A-Za-z0-9_-]{{1,64}}",
                self.tenant
            ));
        }
        if let Some(name) = &self.name {
            if name.len() > 128 {
                return Err("name exceeds 128 bytes".into());
            }
        }
        match &self.kind {
            JobKind::Dpa(dpa) => {
                if !valid_stage(&dpa.stage) {
                    return Err(format!("stage {:?} must be \"xor\" or \"sbox\"", dpa.stage));
                }
                if dpa.campaign.traces == 0 || dpa.campaign.traces > MAX_TRACES {
                    return Err(format!(
                        "campaign.traces must be in 1..={MAX_TRACES}, got {}",
                        dpa.campaign.traces
                    ));
                }
                if dpa.exec_workers == Some(0) {
                    return Err("exec_workers must be at least 1".into());
                }
                if let Some(attack) = &dpa.attack {
                    if !matches!(attack.selection.as_str(), "xor" | "sbox") {
                        return Err(format!(
                            "attack.selection {:?} must be \"xor\" or \"sbox\"",
                            attack.selection
                        ));
                    }
                    if attack.bit > 7 {
                        return Err("attack.bit must be 0..=7".into());
                    }
                    if let Some(guesses) = &attack.guesses {
                        if guesses.is_empty() || guesses.len() > 256 {
                            return Err("attack.guesses must hold 1..=256 entries".into());
                        }
                    }
                }
            }
            JobKind::Fi(fi) => {
                if !valid_stage(&fi.stage) {
                    return Err(format!("stage {:?} must be \"xor\" or \"sbox\"", fi.stage));
                }
                let models = qdi_fi::parse_models(&fi.models)
                    .map_err(|m| format!("unknown fault model {m:?}"))?;
                if models.len() > MAX_FAULT_MODELS {
                    return Err(format!(
                        "models must list at most {MAX_FAULT_MODELS} entries, got {}",
                        models.len()
                    ));
                }
                if let Some(times) = &fi.times_ps {
                    if times.len() > MAX_INJECTION_TIMES {
                        return Err(format!(
                            "times_ps must hold at most {MAX_INJECTION_TIMES} entries, got {}",
                            times.len()
                        ));
                    }
                    if let Some(&late) = times.iter().find(|&&t| t > MAX_INJECTION_TIME_PS) {
                        return Err(format!(
                            "times_ps entries must be at most {MAX_INJECTION_TIME_PS} ps, got {late}"
                        ));
                    }
                }
                if fi.campaign.tokens > qdi_fi::MAX_TOKENS {
                    return Err(format!(
                        "campaign.tokens must be at most {}, got {}",
                        qdi_fi::MAX_TOKENS,
                        fi.campaign.tokens
                    ));
                }
                if fi.sample == Some(0) {
                    return Err("sample must be at least 1".into());
                }
            }
            JobKind::Pnr(pnr) => {
                if pnr.seeds.is_empty() || pnr.seeds.len() > 64 {
                    return Err("seeds must hold 1..=64 entries".into());
                }
                if pnr.moves_per_gate == Some(0) {
                    return Err("moves_per_gate must be at least 1".into());
                }
            }
        }
        Ok(())
    }

    /// The effective priority (default `Normal`).
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority.unwrap_or(Priority::Normal)
    }
}

/// Builds a DPA job spec from a local [`FlowConfig`] — the bridge from
/// "I ran this on my workstation" to "submit the same campaign to the
/// team server": the embedded campaign config and worker count
/// transfer verbatim.
#[must_use]
pub fn dpa_spec_from_flow(tenant: &str, flow: &FlowConfig) -> JobSpec {
    JobSpec {
        tenant: tenant.to_owned(),
        name: Some("flow-campaign".into()),
        priority: None,
        kind: JobKind::Dpa(DpaJobSpec {
            stage: "xor".into(),
            campaign: flow.campaign,
            resilience: None,
            exec_workers: Some(flow.workers.max(1)),
            attack: Some(AttackSpec {
                selection: "xor".into(),
                bit: 0,
                guesses: None,
            }),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dpa_spec() -> JobSpec {
        JobSpec {
            tenant: "alice".into(),
            name: None,
            priority: None,
            kind: JobKind::Dpa(DpaJobSpec {
                stage: "xor".into(),
                campaign: CampaignConfig::new(0x42),
                resilience: None,
                exec_workers: None,
                attack: None,
            }),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let spec = dpa_spec();
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: JobSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.tenant, "alice");
        match back.kind {
            JobKind::Dpa(dpa) => assert_eq!(dpa.campaign, CampaignConfig::new(0x42)),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn optional_fields_may_be_omitted_on_the_wire() {
        let campaign = serde_json::to_string(&CampaignConfig::new(7)).expect("serializes");
        let json = format!(
            "{{\"tenant\":\"bob\",\"kind\":{{\"Dpa\":{{\"stage\":\"xor\",\"campaign\":{campaign}}}}}}}"
        );
        let spec: JobSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(spec.priority(), Priority::Normal);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn rejects_bad_tenant_and_stage() {
        let mut spec = dpa_spec();
        spec.tenant = "../escape".into();
        assert!(spec.validate().is_err());
        let mut spec = dpa_spec();
        if let JobKind::Dpa(dpa) = &mut spec.kind {
            dpa.stage = "des".into();
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    fn bounds_fault_injection_tokens() {
        let fi = |tokens| JobSpec {
            tenant: "carol".into(),
            name: None,
            priority: None,
            kind: JobKind::Fi(FiJobSpec {
                stage: "xor".into(),
                campaign: qdi_fi::campaign::CampaignConfig {
                    tokens,
                    ..qdi_fi::campaign::CampaignConfig::new()
                },
                models: "seu".into(),
                times_ps: None,
                sample: None,
            }),
        };
        assert!(fi(qdi_fi::MAX_TOKENS).validate().is_ok());
        let err = fi(1 << 40).validate().expect_err("over the bound");
        assert!(err.contains("campaign.tokens"), "{err}");
    }

    #[test]
    fn bounds_fault_injection_times_and_models() {
        let fi = |models: &str, times_ps: Vec<u64>| JobSpec {
            tenant: "carol".into(),
            name: None,
            priority: None,
            kind: JobKind::Fi(FiJobSpec {
                stage: "sbox".into(),
                campaign: qdi_fi::campaign::CampaignConfig::new(),
                models: models.into(),
                times_ps: Some(times_ps),
                sample: None,
            }),
        };
        let all = "seu,stuck0,stuck1,delay,glitch,drop";
        let at_bound = vec![MAX_INJECTION_TIME_PS; MAX_INJECTION_TIMES];
        assert!(fi(all, at_bound).validate().is_ok());
        for times in [
            vec![1; MAX_INJECTION_TIMES + 1],
            vec![MAX_INJECTION_TIME_PS + 1],
        ] {
            let err = fi("seu", times).validate().expect_err("over the bound");
            assert!(err.contains("times_ps"), "{err}");
        }
        let err = fi(&format!("{all},seu"), vec![1])
            .validate()
            .expect_err("seven");
        assert!(err.contains("models"), "{err}");
    }

    #[test]
    fn flow_config_maps_to_a_valid_spec() {
        let flow = FlowConfig::new(qdi_pnr::Strategy::Flat, 0);
        let spec = dpa_spec_from_flow("team", &flow);
        assert!(spec.validate().is_ok());
        match spec.kind {
            JobKind::Dpa(dpa) => {
                assert_eq!(dpa.campaign, flow.campaign);
                assert_eq!(dpa.exec_workers, Some(flow.workers.max(1)));
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
}
