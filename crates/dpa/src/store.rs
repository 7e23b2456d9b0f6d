//! `.qtrs`-backed campaigns: streaming trace storage, bounded-memory
//! attacks, and checkpoints that record store offsets instead of raw
//! samples.
//!
//! A 10k-trace campaign held as a [`TraceSet`] costs hundreds of
//! megabytes; the same campaign in a `.qtrs` store streams through an
//! attack one chunk at a time. This module bridges the two worlds:
//!
//! * [`TraceSet::to_store`] / [`TraceSet::from_store`] convert between
//!   the in-memory set and the on-disk store;
//! * [`bias_signals_from_store`] computes `T = A0 − A1` for a list of
//!   guesses in one pass over a store with at most `chunk` traces
//!   resident, bit-identical to
//!   [`crate::parallel::parallel_bias_signal`] over the same traces
//!   ([`bias_signal_from_store`] is its one-guess form);
//! * [`StoreCampaignRunner`] acquires traces on the `qdi-exec` pool and
//!   appends them to a store as chunks complete. Its
//!   [`StoreCheckpoint`] is a few hundred bytes — fingerprint, progress
//!   counter and byte offset — because per-index noise seeding makes
//!   every other bit of campaign state derivable from the config. It is
//!   the crate's resumable campaign: checkpoint/resume and supervised
//!   quarantine live here.

use std::error::Error;
use std::fmt;
use std::path::Path;

use qdi_analog::Trace;
use qdi_crypto::gatelevel::slice::AesByteSlice;
use qdi_exec::store::{StoreOptions, StoreReader, StoreWriter};
use qdi_exec::{run_supervised, ExecConfig, Quarantine, StoreError, SupervisorPolicy};
use qdi_sim::SimError;
use serde::{Deserialize, Serialize};

use crate::attack::BiasAccumulator;
use crate::campaign::{acquire_trace, plaintext_schedule, CampaignConfig, TraceCache};
use crate::parallel::BIAS_SHARD;
use crate::selection::SelectionFunction;
use crate::traceset::{TraceSet, TraceSetError};

/// Chunking of a [`StoreCampaignRunner`]. Simulator budgets are the
/// campaign's own (`CampaignConfig::testbench`): every acquisition runs
/// once, under exactly those limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Traces per [`StoreCampaignRunner::step_chunk`]: the chunk is
    /// acquired on the pool, appended and flushed before the call
    /// returns, so this is also the checkpoint granularity.
    pub checkpoint_every: usize,
}

impl ResilienceConfig {
    /// Defaults: chunks of 64 traces.
    pub fn new() -> Self {
        ResilienceConfig {
            checkpoint_every: 64,
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::new()
    }
}

/// Why a store-backed campaign stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The simulator failed: deadlock, livelock, a bad environment or an
    /// exhausted event/round budget.
    Sim(SimError),
    /// A checkpoint could not be applied (config mismatch, inconsistent
    /// counters) or both of its generations are damaged.
    Checkpoint(String),
    /// A checkpoint or store file could not be read, written or parsed.
    Io(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sim(e) => write!(f, "simulation failed: {e:?}"),
            CampaignError::Checkpoint(reason) => write!(f, "bad checkpoint: {reason}"),
            CampaignError::Io(reason) => write!(f, "checkpoint I/O: {reason}"),
        }
    }
}

impl Error for CampaignError {}

impl From<SimError> for CampaignError {
    fn from(e: SimError) -> Self {
        CampaignError::Sim(e)
    }
}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Io(format!("trace store: {e}"))
    }
}

impl TraceSet {
    /// Writes every acquisition to a fresh `.qtrs` store at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on write failure; an empty set is rejected as
    /// [`StoreError::BadHeader`] because it has no time grid to record.
    pub fn to_store(&self, path: impl AsRef<Path>, opts: StoreOptions) -> Result<(), StoreError> {
        let first = self
            .iter()
            .next()
            .ok_or_else(|| StoreError::BadHeader("cannot store an empty trace set".into()))?
            .1;
        let mut writer = StoreWriter::create(path, first.t0_ps(), first.dt_ps(), opts)?;
        for (input, trace) in self.iter() {
            writer.append(input, trace)?;
        }
        writer.finish()
    }

    /// Loads a full `.qtrs` store into memory. For sets that may exceed
    /// RAM, stream with [`StoreReader::chunks`] or attack directly via
    /// [`bias_signal_from_store`] instead.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on read/validation failure, including traces the
    /// set itself would reject (non-finite samples, mixed grids) mapped
    /// to [`StoreError::NonFinite`] / [`StoreError::GridMismatch`].
    pub fn from_store(path: impl AsRef<Path>) -> Result<TraceSet, StoreError> {
        let mut reader = StoreReader::open(path)?;
        let mut set = TraceSet::new();
        while let Some((input, trace)) = reader.next_record()? {
            let record = set.len();
            set.try_push(input, trace).map_err(|e| match e {
                TraceSetError::NonFiniteSample { sample, .. } => {
                    StoreError::NonFinite { record, sample }
                }
                TraceSetError::GridMismatch { .. } => StoreError::GridMismatch {
                    expected: (reader.t0_ps(), reader.dt_ps()),
                    got: (0, 0),
                },
            })?;
        }
        Ok(set)
    }
}

/// Computes the DPA bias `T = A0 − A1` of every guess in `guesses` in
/// one pass over the store, read in chunks of `chunk` traces — peak
/// resident trace memory is one chunk plus the running sums. Each chunk
/// is cut at [`BIAS_SHARD`] boundaries and each piece folded into every
/// guess's running shard sums: each guess has its own fixed
/// [`BIAS_SHARD`] summation tree, the one the
/// in-memory parallel path uses, so slot `i` is bit-identical to
/// [`crate::parallel::parallel_bias_signal`] for `guesses[i]` over
/// [`TraceSet::from_store`] of the same file, at every worker count.
///
/// Slot `i` is `None` when a partition of `guesses[i]` is empty.
///
/// # Errors
///
/// [`StoreError`] on read or validation failure.
pub fn bias_signals_from_store(
    path: impl AsRef<Path>,
    sel: &dyn SelectionFunction,
    guesses: &[u16],
    chunk: usize,
) -> Result<Vec<Option<Trace>>, StoreError> {
    let reader = StoreReader::open(path)?;
    let mut totals = vec![BiasAccumulator::default(); guesses.len()];
    let mut shards = totals.clone();
    let mut in_shard = 0usize;
    for batch in reader.chunks(chunk.max(1)) {
        let batch = batch?;
        let mut rest = batch.as_slice();
        while !rest.is_empty() {
            // Fold up to the next shard boundary, then merge the shard.
            let (run, tail) = rest.split_at(rest.len().min(BIAS_SHARD - in_shard));
            let _span = qdi_obs::span::hot("dpa.bias.shard");
            for (shard, &guess) in shards.iter_mut().zip(guesses) {
                let records = run.iter().map(|(input, trace)| (input.as_slice(), trace));
                shard.fold(records, sel, guess);
            }
            in_shard += run.len();
            if in_shard == BIAS_SHARD {
                for (total, shard) in totals.iter_mut().zip(&mut shards) {
                    total.merge(std::mem::take(shard));
                }
                in_shard = 0;
            }
            rest = tail;
        }
    }
    for (total, shard) in totals.iter_mut().zip(shards) {
        total.merge(shard);
    }
    Ok(totals.into_iter().map(BiasAccumulator::finish).collect())
}

/// [`bias_signals_from_store`] for one guess: `Ok(None)` when a
/// partition is empty.
///
/// # Errors
///
/// [`StoreError`] on read or validation failure.
pub fn bias_signal_from_store(
    path: impl AsRef<Path>,
    sel: &dyn SelectionFunction,
    guess: u16,
    chunk: usize,
) -> Result<Option<Trace>, StoreError> {
    Ok(bias_signals_from_store(path, sel, &[guess], chunk)?
        .pop()
        .flatten())
}

/// Serializable snapshot of a store-backed campaign: no raw samples —
/// the traces already collected live behind `store_offset` in the
/// `.qtrs` file, and per-index noise seeding makes the RNG state a pure
/// function of the config, so nothing else needs saving.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreCheckpoint {
    /// Ties the checkpoint to the exact config *and worker count* that
    /// produced it: resuming under a different config would silently
    /// mix trace distributions.
    pub fingerprint: String,
    /// Traces acquired and durably appended to the store.
    pub completed: usize,
    /// Path of the `.qtrs` store holding the traces.
    pub store_path: String,
    /// Byte offset of the next record — anything past it is a torn tail
    /// from a crash and is truncated on resume.
    pub store_offset: u64,
    /// Campaign indices quarantined by the supervisor (absent from the
    /// store): `completed` counts them, so the store holds exactly
    /// `completed - quarantined.len()` records. A resumed campaign keeps
    /// them quarantined: an acquisition is a pure function of the config
    /// and its index, so re-running one would fail the same way.
    #[serde(default)]
    pub quarantined: Vec<usize>,
}

impl StoreCheckpoint {
    /// Writes the checkpoint as durable JSON: write-then-rename with a
    /// trailing CRC, keeping the previous verified generation as `.bak`
    /// ([`qdi_obs::durable`], `Durability::Checkpoint`). A kill at any
    /// byte leaves the new generation, a classified-torn temp file, or
    /// the old generation — never a half-written checkpoint that parses.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on serialization or filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        let _span = qdi_obs::span::hot("dpa.checkpoint.save");
        let json = serde_json::to_string(self)
            .map_err(|e| CampaignError::Io(format!("serialize checkpoint: {e:?}")))?;
        qdi_obs::durable::save(
            path,
            (json + "\n").as_bytes(),
            qdi_obs::durable::Durability::Checkpoint,
        )
        .map_err(|e| CampaignError::Io(e.to_string()))
    }

    /// Reads a checkpoint written by [`StoreCheckpoint::save`], falling
    /// back to the `.bak` generation when the primary is torn or
    /// corrupt. A damaged file — one with no CRC trailer included — is
    /// classified, never parsed around.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when neither generation exists, on a
    /// filesystem failure or on a parse failure;
    /// [`CampaignError::Checkpoint`] when a generation exists but none
    /// verifies (with the torn/corrupt classification).
    pub fn load(path: &Path) -> Result<Self, CampaignError> {
        use qdi_obs::durable::{self, Classification, DurableError};
        let json = match durable::recover(path) {
            Ok(recovered) => String::from_utf8(recovered.payload)
                .map_err(|e| CampaignError::Io(format!("{}: {e}", path.display())))?,
            Err(DurableError::Unrecoverable {
                primary: Classification::Missing,
                backup: Classification::Missing,
            }) => return Err(CampaignError::Io(format!("{}: missing", path.display()))),
            Err(e @ DurableError::Io { .. }) => return Err(CampaignError::Io(e.to_string())),
            Err(e) => {
                return Err(CampaignError::Checkpoint(format!(
                    "{}: {e}",
                    path.display()
                )))
            }
        };
        serde_json::from_str(&json)
            .map_err(|e| CampaignError::Io(format!("parse {}: {e:?}", path.display())))
    }
}

fn store_fingerprint(cfg: &CampaignConfig, workers: usize) -> String {
    format!("{cfg:?} workers={workers}")
}

/// Store-backed parallel campaign: acquires chunks of traces on the
/// `qdi-exec` pool (per-index noise seeding, worker-count invariant) and
/// appends them to a `.qtrs` store in index order. Peak resident trace
/// memory is one chunk plus the runner's noiseless-trace cache (at most
/// 256 traces, one per plaintext byte, dropped with the runner).
pub struct StoreCampaignRunner<'a> {
    cfg: CampaignConfig,
    resilience: ResilienceConfig,
    exec: ExecConfig,
    cache: TraceCache<'a>,
    pts: Vec<u8>,
    writer: StoreWriter,
    store_path: String,
    completed: usize,
    supervisor: Option<SupervisorPolicy>,
    quarantined: Vec<usize>,
    manifest: Quarantine,
    progress: qdi_obs::progress::ProgressTask,
}

impl std::fmt::Debug for StoreCampaignRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreCampaignRunner")
            .field("completed", &self.completed)
            .field("target", &self.cfg.traces)
            .field("store", &self.store_path)
            .finish()
    }
}

impl<'a> StoreCampaignRunner<'a> {
    /// Starts a fresh campaign writing to a new store at `store_path`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the store cannot be created.
    pub fn new(
        slice: &'a AesByteSlice,
        cfg: CampaignConfig,
        resilience: ResilienceConfig,
        exec: ExecConfig,
        store_path: impl AsRef<Path>,
        opts: StoreOptions,
    ) -> Result<Self, CampaignError> {
        let store_path = store_path.as_ref().to_string_lossy().into_owned();
        let writer = StoreWriter::create(&store_path, 0, cfg.synth.dt_ps, opts)?;
        Ok(StoreCampaignRunner {
            cfg,
            resilience,
            exec,
            cache: TraceCache::new(slice, &cfg)?,
            pts: plaintext_schedule(&cfg),
            writer,
            store_path,
            completed: 0,
            supervisor: None,
            quarantined: Vec::new(),
            manifest: Quarantine::default(),
            progress: qdi_obs::progress::task("dpa.store_campaign", cfg.traces),
        })
    }

    /// Enables supervised acquisition (builder style): an acquisition
    /// that panics or fails is quarantined instead of aborting the
    /// campaign, and the checkpoint records its index.
    #[must_use]
    pub fn with_supervisor(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = Some(policy);
        self
    }

    /// Resumes from a checkpoint: validates the fingerprint (config and
    /// worker count), reopens the store at the checkpointed offset and
    /// truncates any torn tail a crashed writer left behind.
    ///
    /// # Errors
    ///
    /// * [`CampaignError::Checkpoint`] on a fingerprint, worker-count or
    ///   record-count mismatch;
    /// * [`CampaignError::Io`] when the store prefix fails validation
    ///   (offset not on a record boundary, CRC failure before the
    ///   checkpointed offset).
    pub fn resume(
        slice: &'a AesByteSlice,
        cfg: CampaignConfig,
        resilience: ResilienceConfig,
        exec: ExecConfig,
        checkpoint: StoreCheckpoint,
    ) -> Result<Self, CampaignError> {
        let expected = store_fingerprint(&cfg, exec.workers);
        if checkpoint.fingerprint != expected {
            return Err(CampaignError::Checkpoint(format!(
                "config mismatch: checkpoint was produced by `{}`, resuming with `{}`",
                checkpoint.fingerprint, expected
            )));
        }
        let writer = StoreWriter::resume(&checkpoint.store_path, checkpoint.store_offset)?;
        // Quarantined indices never reached the store, so the record
        // count is the completed counter minus the quarantine.
        let expected_records = checkpoint
            .completed
            .checked_sub(checkpoint.quarantined.len())
            .ok_or_else(|| {
                CampaignError::Checkpoint(format!(
                    "{} quarantined indices exceed the {} completed acquisitions",
                    checkpoint.quarantined.len(),
                    checkpoint.completed
                ))
            })?;
        if writer.records() != expected_records {
            return Err(CampaignError::Checkpoint(format!(
                "store holds {} records before the checkpointed offset, expected {}",
                writer.records(),
                expected_records
            )));
        }
        // A resumed campaign starts its progress bar at the checkpoint,
        // and its rate clock there.
        let progress =
            qdi_obs::progress::task_from("dpa.store_campaign", checkpoint.completed, cfg.traces);
        Ok(StoreCampaignRunner {
            cfg,
            resilience,
            exec,
            cache: TraceCache::new(slice, &cfg)?,
            pts: plaintext_schedule(&cfg),
            writer,
            store_path: checkpoint.store_path,
            completed: checkpoint.completed,
            supervisor: None,
            quarantined: checkpoint.quarantined,
            manifest: Quarantine::default(),
            progress,
        })
    }

    /// Snapshots the campaign. Call after [`StoreCampaignRunner::step_chunk`]
    /// returns; the chunk's records are flushed to the OS before this
    /// offset is taken, so the checkpoint never points past data a
    /// `kill -9` leaves behind. The store is never fsynced, though: after
    /// a power loss it can end before a checkpoint that landed, and
    /// [`StoreCampaignRunner::resume`] fails with the store's
    /// `OffsetMismatch` (as [`CampaignError::Io`]).
    pub fn checkpoint(&self) -> StoreCheckpoint {
        StoreCheckpoint {
            fingerprint: store_fingerprint(&self.cfg, self.exec.workers),
            completed: self.completed,
            store_path: self.store_path.clone(),
            store_offset: self.writer.offset(),
            quarantined: self.quarantined.clone(),
        }
    }

    /// Traces acquired so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Campaign indices the supervisor quarantined (absent from the
    /// store).
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// The quarantine accumulated by supervised chunks in this process
    /// (campaign indices, kinds and reasons). A resumed runner starts
    /// with an empty one — the checkpoint carries only the indices — and
    /// adds only the failures of its own chunks.
    pub fn quarantine(&self) -> &Quarantine {
        &self.manifest
    }

    /// `true` once all `cfg.traces` acquisitions are stored.
    pub fn is_done(&self) -> bool {
        self.completed >= self.cfg.traces
    }

    /// Acquires the next chunk of up to
    /// [`ResilienceConfig::checkpoint_every`] traces in parallel, appends
    /// them to the store in index order and flushes. Returns `Ok(false)`
    /// when the campaign was already complete.
    ///
    /// Every acquisition runs once, under the campaign's configured
    /// event/round budgets: the simulation is deterministic and the
    /// noise RNG is derived from the index, so a failed acquisition
    /// would only fail again. With a supervisor
    /// ([`StoreCampaignRunner::with_supervisor`]) the chunk degrades
    /// gracefully instead of failing fast: failed acquisitions are
    /// quarantined — their indices skipped in the store and recorded in
    /// the checkpoint — and every other trace still lands.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Sim`] on a simulator failure (fail-fast path
    /// only), [`CampaignError::Io`] on store write failure.
    pub fn step_chunk(&mut self) -> Result<bool, CampaignError> {
        if self.is_done() {
            return Ok(false);
        }
        let _span = qdi_obs::span::hot("dpa.chunk");
        let lo = self.completed;
        let hi = (lo + self.resilience.checkpoint_every.max(1)).min(self.cfg.traces);
        let traces: Vec<Option<Trace>> = if self.supervisor.is_some() {
            let run = run_supervised(&self.exec, hi - lo, |j| self.acquire(lo + j));
            for mut entry in run.quarantine.entries {
                entry.index += lo;
                self.quarantined.push(entry.index);
                self.manifest.entries.push(entry);
            }
            run.values
        } else {
            qdi_exec::try_run_indexed(&self.exec, hi - lo, |j| self.acquire(lo + j))?
                .into_iter()
                .map(Some)
                .collect()
        };
        for (index, trace) in (lo..hi).zip(traces) {
            if let Some(trace) = trace {
                self.writer.append(&[self.pts[index]], &trace)?;
            }
        }
        self.writer.flush()?;
        self.completed = hi;
        Ok(true)
    }

    /// One acquisition under the configured budgets. Budgets only abort
    /// a run, so they matter only on a noiseless-trace cache miss: a
    /// trace that fits any budget is the same trace. The progress task
    /// counts the acquisition either way: a failed one is quarantined or
    /// fails the chunk, and is done as much as a stored one.
    fn acquire(&self, index: usize) -> Result<Trace, CampaignError> {
        let trace = acquire_trace(&self.cache, &self.cfg, self.pts[index], index);
        self.progress.advance(1);
        Ok(trace?)
    }

    /// Flushes and closes the store.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on flush failure.
    pub fn finish(self) -> Result<(), CampaignError> {
        self.progress.finish();
        self.writer.finish()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_bias_signal, run_parallel_campaign};
    use crate::selection::AesXorSelect;
    use qdi_crypto::gatelevel::slice::{aes_first_round_slice, SliceStage};
    use std::io::Write as _;

    /// Event and round budget that one XOR-slice acquisition fits in
    /// with little room to spare: it needs 56 events and 4 rounds.
    const TIGHT_BUDGET: u64 = 64;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qdi_dpa_store_{}_{name}", std::process::id()))
    }

    fn noisy_cfg(traces: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::full_codebook(0x42);
        cfg.traces = traces;
        cfg.seed = 23;
        cfg.synth.noise_sigma = 0.02;
        cfg
    }

    #[test]
    fn trace_set_round_trips_through_store() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(6);
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("runs");
        let path = tmp("roundtrip.qtrs");
        set.to_store(&path, StoreOptions::new()).expect("stores");
        let loaded = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(set.len(), loaded.len());
        for i in 0..set.len() {
            assert_eq!(set.input(i), loaded.input(i));
            assert_eq!(set.trace(i).samples(), loaded.trace(i).samples());
        }
    }

    #[test]
    fn empty_set_cannot_be_stored() {
        let err = TraceSet::new()
            .to_store(tmp("empty.qtrs"), StoreOptions::new())
            .expect_err("no grid");
        assert!(matches!(err, StoreError::BadHeader(_)), "{err}");
    }

    #[test]
    fn streamed_bias_matches_in_memory_bias() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(12);
        let set = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let path = tmp("bias.qtrs");
        set.to_store(&path, StoreOptions::new()).expect("stores");
        let sel = AesXorSelect { byte: 0, bit: 0 };
        let in_memory =
            parallel_bias_signal(&set, &sel, 0x42, ExecConfig { workers: 2 }).expect("bias");
        // Tiny chunks: at most 3 traces resident while streaming.
        let streamed = bias_signal_from_store(&path, &sel, 0x42, 3)
            .expect("streams")
            .expect("both partitions");
        std::fs::remove_file(&path).ok();
        assert_eq!(in_memory.samples(), streamed.samples());
    }

    #[test]
    fn store_campaign_matches_parallel_campaign() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(9);
        let golden = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("runs");
        let path = tmp("campaign.qtrs");
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            ResilienceConfig {
                checkpoint_every: 4,
            },
            ExecConfig { workers: 2 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates");
        while runner.step_chunk().expect("chunk") {}
        runner.finish().expect("closes");
        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(golden.trace(i).samples(), stored.trace(i).samples());
        }
    }

    #[test]
    fn crashed_store_campaign_resumes_bit_identically() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(10);
        let golden = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 2 }).expect("runs");
        let path = tmp("resume.qtrs");
        let ckpt = tmp("resume.ckpt.json");
        let resilience = ResilienceConfig {
            checkpoint_every: 4,
        };
        let exec = ExecConfig { workers: 2 };

        // First chunk, checkpoint, then "crash" leaving a torn record.
        let mut first =
            StoreCampaignRunner::new(&slice, cfg, resilience, exec, &path, StoreOptions::new())
                .expect("creates");
        assert!(first.step_chunk().expect("chunk"));
        first.checkpoint().save(&ckpt).expect("saves");
        drop(first);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        file.write_all(&[0xDE, 0xAD, 0xBE]).expect("torn tail");
        drop(file);

        let checkpoint = StoreCheckpoint::load(&ckpt).expect("loads");
        assert_eq!(checkpoint.completed, 4);
        let mut resumed = StoreCampaignRunner::resume(&slice, cfg, resilience, exec, checkpoint)
            .expect("resumes");
        while resumed.step_chunk().expect("chunk") {}
        resumed.finish().expect("closes");

        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(
                golden.trace(i).samples(),
                stored.trace(i).samples(),
                "trace {i} must be bit-identical after crash + resume"
            );
        }
    }

    #[test]
    fn supervised_store_campaign_matches_fail_fast_when_clean() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(9);
        let golden = run_parallel_campaign(&slice, &cfg, ExecConfig { workers: 1 }).expect("runs");
        let path = tmp("supervised_clean.qtrs");
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            ResilienceConfig {
                checkpoint_every: 4,
            },
            ExecConfig { workers: 2 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates")
        .with_supervisor(SupervisorPolicy::new());
        while runner.step_chunk().expect("chunk") {}
        assert!(runner.quarantined().is_empty());
        assert!(runner.quarantine().is_empty());
        runner.finish().expect("closes");
        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(golden.trace(i).samples(), stored.trace(i).samples());
        }
    }

    #[test]
    fn quarantined_indices_ride_the_checkpoint() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let mut cfg = noisy_cfg(6);
        // A budget nothing fits in: every acquisition fails.
        cfg.testbench.event_limit = 1;
        let resilience = ResilienceConfig {
            checkpoint_every: 3,
        };
        let exec = ExecConfig { workers: 2 };
        let path = tmp("supervised_quarantine.qtrs");
        let ckpt = tmp("supervised_quarantine.ckpt.json");

        let mut runner =
            StoreCampaignRunner::new(&slice, cfg, resilience, exec, &path, StoreOptions::new())
                .expect("creates")
                .with_supervisor(SupervisorPolicy::new());
        assert!(runner.step_chunk().expect("degrades, does not abort"));
        assert_eq!(runner.completed(), 3);
        assert_eq!(runner.quarantined(), &[0, 1, 2]);
        let manifest = runner.quarantine();
        assert_eq!(manifest.indices(), vec![0, 1, 2]);
        assert!(manifest.entries[0].reason.contains("EventLimit"));
        runner.checkpoint().save(&ckpt).expect("saves");
        drop(runner);

        // The checkpoint carries the quarantine, and resume accepts a
        // store whose record count is completed - quarantined.
        let checkpoint = StoreCheckpoint::load(&ckpt).expect("loads");
        assert_eq!(checkpoint.completed, 3);
        assert_eq!(checkpoint.quarantined, vec![0, 1, 2]);
        let mut resumed = StoreCampaignRunner::resume(&slice, cfg, resilience, exec, checkpoint)
            .expect("resumes")
            .with_supervisor(SupervisorPolicy::new());
        assert_eq!(resumed.quarantined(), &[0, 1, 2]);
        // The resumed runner keeps the checkpointed indices and
        // quarantines only the failures of its own chunks: indices 0..3
        // are not run again.
        while resumed.step_chunk().expect("degrades, does not abort") {}
        assert_eq!(resumed.quarantined(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(resumed.quarantine().indices(), vec![3, 4, 5]);
        resumed.finish().expect("closes");
        assert!(TraceSet::from_store(&path).expect("loads").is_empty());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(ckpt.with_extension("json.bak")).ok();
    }

    #[test]
    fn store_resume_rejects_different_worker_count() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let cfg = noisy_cfg(6);
        let path = tmp("workers.qtrs");
        let resilience = ResilienceConfig {
            checkpoint_every: 3,
        };
        let mut runner = StoreCampaignRunner::new(
            &slice,
            cfg,
            resilience,
            ExecConfig { workers: 2 },
            &path,
            StoreOptions::new(),
        )
        .expect("creates");
        assert!(runner.step_chunk().expect("chunk"));
        let checkpoint = runner.checkpoint();
        drop(runner);
        let err = StoreCampaignRunner::resume(
            &slice,
            cfg,
            resilience,
            ExecConfig { workers: 8 },
            checkpoint,
        )
        .expect_err("worker count mismatch");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CampaignError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn a_fitting_budget_gives_the_roomy_trace_and_a_starved_one_fails() {
        let slice = aes_first_round_slice("s", SliceStage::XorOnly).expect("builds");
        let resilience = ResilienceConfig {
            checkpoint_every: 2,
        };
        let exec = ExecConfig { workers: 2 };
        let path = tmp("budget.qtrs");
        // A tight budget that one handshake cycle still fits in gives
        // the traces of a comfortably budgeted run: budgets only abort.
        let mut tight = noisy_cfg(3);
        tight.testbench.event_limit = TIGHT_BUDGET;
        tight.testbench.max_rounds = TIGHT_BUDGET;
        let mut runner =
            StoreCampaignRunner::new(&slice, tight, resilience, exec, &path, StoreOptions::new())
                .expect("creates");
        while runner.step_chunk().expect("the budget fits") {}
        runner.finish().expect("closes");
        let mut roomy = tight;
        roomy.testbench.event_limit = 50_000_000;
        roomy.testbench.max_rounds = 1_000_000;
        let golden = run_parallel_campaign(&slice, &roomy, exec).expect("golden runs");
        let stored = TraceSet::from_store(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(golden.len(), stored.len());
        for i in 0..golden.len() {
            assert_eq!(golden.input(i), stored.input(i), "plaintext {i}");
            assert_eq!(golden.trace(i).samples(), stored.trace(i).samples());
        }

        // A budget far too small for one handshake cycle fails the
        // chunk: nothing raises it behind the caller's back.
        let mut starved = tight;
        starved.testbench.event_limit = 40;
        starved.testbench.max_rounds = 40;
        let mut runner = StoreCampaignRunner::new(
            &slice,
            starved,
            resilience,
            exec,
            &path,
            StoreOptions::new(),
        )
        .expect("creates");
        let err = runner.step_chunk().expect_err("budget exhausted");
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, CampaignError::Sim(SimError::EventLimit { .. })),
            "{err}"
        );
    }

    fn two_generations(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let path = tmp(name);
        let bak = path.with_extension("json.bak");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();
        for completed in [4, 8] {
            StoreCheckpoint {
                fingerprint: "cfg workers=2".into(),
                completed,
                store_path: "campaign.qtrs".into(),
                store_offset: 100 * completed as u64,
                quarantined: Vec::new(),
            }
            .save(&path)
            .expect("saves");
        }
        (path, bak)
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_generation() {
        let (path, bak) = two_generations("torn.ckpt.json");
        // Tear the primary mid-payload.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear");
        let loaded = StoreCheckpoint::load(&path).expect("falls back to .bak");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();
        assert_eq!(loaded.completed, 4, "previous generation recovered");
        assert_eq!(loaded.store_offset, 400);
    }

    #[test]
    fn damaged_checkpoint_without_backup_is_classified_not_parsed() {
        let (path, bak) = two_generations("damaged.ckpt.json");
        std::fs::remove_file(&bak).expect("drop the backup generation");
        // Flip a payload byte: the trailer CRC no longer matches, there
        // is no backup, and the loader must classify rather than hand
        // serde a corrupt file.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[10] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");
        let err = StoreCheckpoint::load(&path).expect_err("classified");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CampaignError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn checkpoint_without_a_trailer_is_classified_not_parsed() {
        let path = tmp("bare.ckpt.json");
        let bare = StoreCheckpoint {
            fingerprint: "cfg workers=2".into(),
            completed: 4,
            store_path: "campaign.qtrs".into(),
            store_offset: 400,
            quarantined: Vec::new(),
        };
        let json = serde_json::to_string(&bare).expect("serializes");
        std::fs::write(&path, json).expect("writes a checkpoint with no trailer");
        let err = StoreCheckpoint::load(&path).expect_err("no trailer, no load");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CampaignError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn missing_checkpoint_is_an_io_error() {
        let path = tmp("missing.ckpt.json");
        std::fs::remove_file(&path).ok();
        let err = StoreCheckpoint::load(&path).expect_err("missing file");
        assert!(matches!(err, CampaignError::Io(_)), "{err}");
    }
}
