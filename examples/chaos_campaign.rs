//! Crash-chaos campaign: prove the bias `T = A0 − A1` survives kill -9.
//!
//! The parent process first runs a store-backed DPA campaign to
//! completion — the golden run. It then re-runs the same campaign in a
//! child process and `kill -9`s it at seeded points mid-campaign
//! (while the child is inside a chunk: store append, checkpoint write,
//! anywhere). Each successor child resumes from the durable checkpoint,
//! truncating whatever torn tail the corpse left. When a child finally
//! finishes, the parent requires:
//!
//! 1. the chaos store to be **byte-identical** to the golden store, and
//! 2. the recomputed bias signal to be **bit-identical**, sample for
//!    sample.
//!
//! Exit code 0 on bit-identity, 1 on divergence (a manifest JSON with
//! the run's forensics is written next to the stores — the artifact CI
//! uploads on failure).
//!
//! Run with: `cargo run --release --example chaos_campaign -- --seed 7`

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use qdi::crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
use qdi::dpa::selection::AesXorSelect;
use qdi::dpa::{
    bias_signal_from_store, CampaignConfig, ResilienceConfig, StoreCampaignRunner, StoreCheckpoint,
};
use qdi::exec::{job_rng, ExecConfig, StoreOptions, SupervisorPolicy};
use rand::Rng;

const KEY: u8 = 0x5a;
const WORKERS: usize = 2;

fn campaign_cfg(seed: u64, traces: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(KEY);
    cfg.traces = traces;
    cfg.seed = seed;
    cfg.synth.noise_sigma = 0.05;
    cfg
}

fn resilience() -> ResilienceConfig {
    ResilienceConfig {
        checkpoint_every: 8,
    }
}

/// Child role: create-or-resume the campaign, report each durable chunk
/// on stdout so the parent can aim its kills, run until done or killed.
fn child(
    store: &Path,
    ckpt: &Path,
    seed: u64,
    traces: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let slice = aes_first_round_slice("s", SliceStage::XorOnly)?;
    let cfg = campaign_cfg(seed, traces);
    let exec = ExecConfig { workers: WORKERS };
    let mut runner = if ckpt.exists() {
        let checkpoint = StoreCheckpoint::load(ckpt)?;
        StoreCampaignRunner::resume(&slice, cfg, resilience(), exec, checkpoint)?
    } else {
        StoreCampaignRunner::new(&slice, cfg, resilience(), exec, store, StoreOptions::new())?
    }
    .with_supervisor(SupervisorPolicy::new());
    loop {
        let more = runner.step_chunk()?;
        runner.checkpoint().save(ckpt)?;
        println!("chunk {}", runner.completed());
        std::io::stdout().flush()?;
        if !more {
            break;
        }
    }
    runner.finish()?;
    println!("done");
    Ok(())
}

/// Spawns one child campaign attempt; returns once the child either
/// reported `done` or was killed at `kill_at` completed traces.
fn run_child_until(
    store: &Path,
    ckpt: &Path,
    seed: u64,
    traces: usize,
    kill_at: Option<usize>,
) -> Result<bool, Box<dyn std::error::Error>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.env("QDI_CHAOS_ROLE", "child")
        .env("QDI_CHAOS_STORE", store)
        .env("QDI_CHAOS_CKPT", ckpt)
        .env("QDI_CHAOS_SEED", seed.to_string())
        .env("QDI_CHAOS_TRACES", traces.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut finished = false;
    for line in stdout.lines() {
        let line = line.unwrap_or_default();
        if line == "done" {
            finished = true;
            break;
        }
        if let (Some(target), Some(done)) = (
            kill_at,
            line.strip_prefix("chunk ")
                .and_then(|n| n.parse::<usize>().ok()),
        ) {
            if done >= target {
                break; // the child is now inside its next chunk: fire
            }
        }
    }
    if !finished {
        child.kill().ok(); // SIGKILL — no flush, no rename completes
    }
    child.wait()?;
    Ok(finished)
}

fn parse_args() -> (u64, usize, usize, PathBuf) {
    let (mut seed, mut traces, mut kills) = (0xD1CEu64, 160usize, 3usize);
    let mut dir = std::env::temp_dir();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{what} wants a number"))
        };
        match arg.as_str() {
            "--seed" => seed = grab("--seed"),
            "--traces" => traces = grab("--traces") as usize,
            "--kills" => kills = grab("--kills") as usize,
            "--dir" => dir = PathBuf::from(args.next().expect("--dir wants a path")),
            other => {
                eprintln!("usage: chaos_campaign [--seed N] [--traces N] [--kills N] [--dir PATH]");
                panic!("unknown argument {other}");
            }
        }
    }
    (seed, traces, kills, dir)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Child re-entry: the same binary, demoted to one campaign attempt.
    if std::env::var("QDI_CHAOS_ROLE").as_deref() == Ok("child") {
        let store = PathBuf::from(std::env::var("QDI_CHAOS_STORE")?);
        let ckpt = PathBuf::from(std::env::var("QDI_CHAOS_CKPT")?);
        let seed: u64 = std::env::var("QDI_CHAOS_SEED")?.parse()?;
        let traces: usize = std::env::var("QDI_CHAOS_TRACES")?.parse()?;
        return child(&store, &ckpt, seed, traces);
    }

    let (seed, traces, kills, dir) = parse_args();
    let tag = std::process::id();
    let golden_store = dir.join(format!("qdi_chaos_golden_{tag}.qtrs"));
    let chaos_store = dir.join(format!("qdi_chaos_{tag}.qtrs"));
    let chaos_ckpt = dir.join(format!("qdi_chaos_{tag}.ckpt.json"));
    let manifest = dir.join(format!("qdi_chaos_{tag}.manifest.json"));
    for p in [&golden_store, &chaos_store, &chaos_ckpt, &manifest] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(chaos_ckpt.with_extension("json.bak")).ok();

    // Golden run: same campaign, no violence.
    let slice = aes_first_round_slice("s", SliceStage::XorOnly)?;
    let mut golden = StoreCampaignRunner::new(
        &slice,
        campaign_cfg(seed, traces),
        resilience(),
        ExecConfig { workers: WORKERS },
        &golden_store,
        StoreOptions::new(),
    )?;
    while golden.step_chunk()? {}
    golden.finish()?;
    println!("golden:  {traces} traces, uninterrupted");

    // Chaos runs: kill -9 at seeded points, resume, repeat.
    let mut rng = job_rng(seed ^ 0xC4A0_5C4A_0500_0000, 0);
    let mut survived = 0usize;
    for attempt in 0..kills {
        let kill_at = rng.gen_range(1..traces.max(2));
        let finished = run_child_until(&chaos_store, &chaos_ckpt, seed, traces, Some(kill_at))?;
        if finished {
            survived += 1; // campaign outran the killer — still counts
            println!("chaos:   attempt {attempt} finished before the kill at {kill_at}");
            break;
        }
        println!("chaos:   attempt {attempt} killed -9 near {kill_at} completed traces");
    }
    if survived == 0 {
        // Let the final child finish what the corpses started.
        let finished = run_child_until(&chaos_store, &chaos_ckpt, seed, traces, None)?;
        assert!(finished, "unkilled child must finish");
        println!("chaos:   resumed and completed after {kills} kills");
    }

    // Verdict: byte-identical store, bit-identical bias.
    let golden_bytes = std::fs::read(&golden_store)?;
    let chaos_bytes = std::fs::read(&chaos_store)?;
    let sel = AesXorSelect { byte: 0, bit: 0 };
    let t_golden = bias_signal_from_store(&golden_store, &sel, KEY as u16, 64)?
        .expect("non-degenerate partition");
    let t_chaos = bias_signal_from_store(&chaos_store, &sel, KEY as u16, 64)?
        .expect("non-degenerate partition");
    let stores_match = golden_bytes == chaos_bytes;
    let bias_match = t_golden.samples() == t_chaos.samples();
    println!(
        "verdict: store {} ({} bytes), bias T = A0 − A1 {} ({} samples)",
        if stores_match {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        chaos_bytes.len(),
        if bias_match {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        t_chaos.len(),
    );

    if !(stores_match && bias_match) {
        // Forensics for the CI artifact: final checkpoint (including its
        // quarantine manifest) plus what diverged.
        let checkpoint = StoreCheckpoint::load(&chaos_ckpt)
            .ok()
            .and_then(|cp| serde_json::to_string(&cp).ok())
            .unwrap_or_else(|| "null".into());
        let report = format!(
            "{{\"seed\": {seed}, \"traces\": {traces}, \"stores_match\": {stores_match}, \
             \"bias_match\": {bias_match}, \"golden_bytes\": {}, \"chaos_bytes\": {}, \
             \"checkpoint\": {checkpoint}}}\n",
            golden_bytes.len(),
            chaos_bytes.len(),
        );
        std::fs::write(&manifest, report)?;
        eprintln!(
            "chaos campaign diverged — manifest at {}",
            manifest.display()
        );
        std::process::exit(1);
    }

    for p in [&golden_store, &chaos_store, &chaos_ckpt, &manifest] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(chaos_ckpt.with_extension("json.bak")).ok();
    Ok(())
}
