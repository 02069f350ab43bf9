//! The three workloads, run untraced at `workers = nproc`, with their
//! output checks.
//!
//! Each workload is a fixed set of units made from the seed. The timed
//! phase runs the set in whole passes and costs every piece at the least
//! of its repetitions, so no end-to-end number rests on one short
//! interval.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::clock::process_cpu_s;

use acto_repro::acto::compose::{plan_composed, run_composed_work_stealing_with};
use acto_repro::acto::fuzz::{run_fuzz, FuzzConfig, FuzzResult};
use acto_repro::acto::parallel::{
    run_work_stealing_with, ParallelResult, SnapshotDepot, DEFAULT_SEGMENT_OPS,
};
use acto_repro::acto::persist::{resume_fuzz, run_fuzz_persistent_io, StoreIo};
use acto_repro::acto::{plan_campaign, CampaignConfig, ComposedParallelResult, Mode};
use acto_repro::operators::bugs::{SEEDED_CROSS_OPERATOR_GC, SEEDED_NONIDEMPOTENT_CREATE};
use acto_repro::operators::{self, operator_by_name, Composition, Instance};

/// The composed pair of the `campaign` workload.
pub const PAIR: [&str; 2] = ["TiDBOp", "ZooKeeperOp"];
/// The operator the `fuzz` and `resume` workloads explore.
pub const FUZZ_OPERATOR: &str = "ZooKeeperOp";
/// Fuzz executions per round (the merge barrier).
pub const FUZZ_BATCH: usize = 8;

/// FNV-1a digest of every campaign transcript of the `campaign` workload
/// (canonical operator order, then the composed pair). Campaign
/// transcripts do not depend on the seed, which only reorders the work,
/// so this is checked on every seed.
pub const CAMPAIGN_DIGEST: u64 = 0x65d5_86a2_404e_45c3;
/// FNV-1a digest of the first fuzz unit's transcript at
/// [`crate::spec::DEFAULT_SEED`]; `fuzz` and `resume` share it.
pub const FUZZ_DIGEST: u64 = 0x98fc_6891_55fb_d769;

/// Work sizes. [`Scale::FULL`] is what the benchmark measures; the
/// self-tests use [`Scale::TINY`] to exercise every code path quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Single-operator campaigns of the `campaign` workload: `None` runs
    /// every planned operation.
    pub campaign_ops: Option<usize>,
    /// Operation budget of the composed campaign.
    pub composed_ops: usize,
    /// Exec budget of one fuzz (or persistent fuzz) unit.
    pub fuzz_execs: usize,
    /// Fuzz units in the timed run's fixed set.
    pub fuzz_units: usize,
    /// Resume units in the timed run's fixed set.
    pub resume_units: usize,
    /// Fuzz (or resume) units the traced run replays.
    pub trace_units: usize,
    /// Whether the pinned transcript digests apply.
    pub pinned: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        campaign_ops: None,
        composed_ops: 48,
        fuzz_execs: 16,
        // About 17 s per pass each on a 2-vCPU host, so a 30 s run
        // repeats most units; a fuzz unit costs about half a resume unit.
        // Drawing the set anew (another seed) moves the median unit by
        // about 3% between quartiles at this size, 5% at 64 units.
        fuzz_units: 256,
        resume_units: 128,
        trace_units: 16,
        pinned: true,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        campaign_ops: Some(8),
        composed_ops: 8,
        fuzz_execs: 8,
        fuzz_units: 2,
        resume_units: 2,
        trace_units: 2,
        pinned: false,
    };
}

/// FNV-1a over a transcript.
pub fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: spreads a seed into well-mixed 64 bits.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Master seed of fuzz unit `unit` in a run with `seed`.
pub fn fuzz_seed(seed: u64, unit: usize) -> u64 {
    mix(mix(seed) ^ unit as u64)
}

/// The order in which the `campaign` workload runs its eleven operators:
/// a seeded shuffle of the registry.
pub fn campaign_order(seed: u64) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = operators::registry::all_operators()
        .iter()
        .map(|o| o.name)
        .collect();
    let mut state = mix(seed);
    for i in (1..names.len()).rev() {
        state = mix(state);
        names.swap(i, (state % (i as u64 + 1)) as usize);
    }
    names
}

/// The evaluation configuration of one single-operator campaign.
pub fn single_config(name: &str, scale: Scale) -> CampaignConfig {
    let mut cfg = CampaignConfig::evaluation(name, Mode::Whitebox);
    cfg.max_ops = scale.campaign_ops;
    cfg
}

/// The composed campaign: the pair on one cluster with SEED-COMPOSE-1.
pub fn composed_config(scale: Scale) -> CampaignConfig {
    let mut cfg = CampaignConfig::composed(&PAIR, Mode::Whitebox);
    cfg.bugs.seed(SEEDED_CROSS_OPERATOR_GC);
    cfg.max_ops = Some(scale.composed_ops);
    cfg
}

/// The guided fuzz configuration with SEED-CRASH-1 armed.
pub fn fuzz_config(master_seed: u64, scale: Scale, workers: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::new(FUZZ_OPERATOR);
    cfg.seed = master_seed;
    cfg.execs = scale.fuzz_execs;
    cfg.batch = FUZZ_BATCH;
    cfg.workers = workers;
    cfg.campaign.bugs.seed(SEEDED_NONIDEMPOTENT_CREATE);
    cfg
}

/// One timed piece of a unit: a single campaign, fuzz run, or
/// write-and-resume cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Part {
    /// Trials (campaign) or execs (fuzz, resume) attempted.
    pub ops: usize,
    /// CPU seconds the whole process spent on it.
    pub cpu_s: f64,
    /// Wall seconds it took.
    pub wall_s: f64,
}

/// Times `f` as one [`Part`] of `ops` operations.
pub fn timed_part<R>(ops: usize, f: impl FnOnce() -> R) -> (Part, R) {
    let cpu = process_cpu_s();
    let start = Instant::now();
    let out = f();
    let part = Part {
        ops,
        cpu_s: process_cpu_s() - cpu,
        wall_s: start.elapsed().as_secs_f64(),
    };
    (part, out)
}

/// What one fixed-work unit did.
#[derive(Debug, Default)]
pub struct Unit {
    /// Its timed parts, in the order they ran.
    pub parts: Vec<Part>,
    /// Operations that failed: quarantined segments, persist errors,
    /// panicked execs.
    pub failed: usize,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
    /// Whether a fuzz unit detected SEED-CRASH-1.
    pub found_crash_bug: bool,
}

impl Unit {
    /// Trials or execs attempted.
    pub fn ops(&self) -> usize {
        self.parts.iter().map(|p| p.ops).sum()
    }
}

// ---------------------------------------------------------------------------
// Setup: planning plus base deploy of every target
// ---------------------------------------------------------------------------

/// The set-up targets of a workload: one campaign configuration per
/// single-operator target, and for `campaign` the composed pair last.
pub fn setup_targets(workload: &str, scale: Scale) -> Vec<CampaignConfig> {
    if workload == "campaign" {
        let mut targets: Vec<CampaignConfig> = operators::registry::all_operators()
            .iter()
            .map(|o| single_config(o.name, scale))
            .collect();
        targets.push(composed_config(scale));
        targets
    } else {
        vec![fuzz_config(0, scale, 1).campaign]
    }
}

/// Plans and deploys one set-up target: planning plus the base deploy and
/// its checkpoint, everything before the first trial. Returns a size drawn
/// from the results, so the work cannot be optimized away.
pub fn setup_once(cfg: &CampaignConfig) -> usize {
    if cfg.operators.len() > 1 {
        let planned = plan_composed(cfg).expect("composed plan").len();
        let ops = cfg.operators.iter().map(|n| operator_by_name(n)).collect();
        let mut comp = Composition::deploy_on(ops, cfg.bugs.clone(), cfg.platform, None)
            .expect("composed base deploy");
        return planned + std::hint::black_box(comp.checkpoint()).member_count();
    }
    let op = operator_by_name(cfg.operator());
    let planned = plan_campaign(
        &op.schema(),
        Some(&op.ir()),
        cfg.mode,
        &op.initial_cr(),
        &op.images(),
        operators::INSTANCE,
    )
    .len();
    let instance = Instance::deploy_on(op, cfg.bugs.clone(), cfg.platform, None)
        .expect("base deploy of a registry operator");
    planned + std::hint::black_box(instance.checkpoint()).object_count()
}

// ---------------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------------

/// Results of one `campaign` unit.
pub struct CampaignRun {
    pub singles: Vec<ParallelResult>,
    pub composed: ComposedParallelResult,
}

impl CampaignRun {
    /// Every transcript in canonical (registry) order, then the pair's.
    pub fn transcript(&self) -> String {
        let mut singles: Vec<&ParallelResult> = self.singles.iter().collect();
        singles.sort_by(|a, b| a.operator.cmp(&b.operator));
        let mut out = String::new();
        for run in singles {
            out.push_str(&run.transcript());
        }
        out.push_str(&self.composed.transcript());
        out
    }
}

/// Runs the eleven evaluation campaigns in `order`, each through the
/// work-stealing runner, then the composed campaign.
pub fn run_campaign_unit(
    order: &[&str],
    scale: Scale,
    workers: usize,
) -> (Unit, Option<CampaignRun>) {
    let mut unit = Unit::default();
    let mut singles: Vec<ParallelResult> = Vec::new();
    for name in order {
        let cfg = single_config(name, scale);
        let (mut part, run) = timed_part(0, || {
            run_work_stealing_with(&cfg, workers, DEFAULT_SEGMENT_OPS, &SnapshotDepot::new())
        });
        part.ops = run.trials.len();
        unit.failed += run.failed_segments.len();
        unit.parts.push(part);
        singles.push(run);
    }
    let cfg = composed_config(scale);
    let (mut part, composed) = timed_part(0, || {
        run_composed_work_stealing_with(&cfg, workers, DEFAULT_SEGMENT_OPS, &SnapshotDepot::new())
    });
    let composed = match composed {
        Ok(c) => c,
        Err(e) => {
            unit.failed += 1;
            unit.mismatches
                .push(format!("composed campaign failed: {e}"));
            return (unit, None);
        }
    };
    part.ops = composed.trials.len();
    unit.parts.push(part);
    let run = CampaignRun { singles, composed };
    unit.mismatches.extend(check_campaign(&run, scale));
    (unit, Some(run))
}

/// Output checks of one `campaign` unit.
pub fn check_campaign(run: &CampaignRun, scale: Scale) -> Vec<String> {
    let mut bad = Vec::new();
    for single in &run.singles {
        if single.trials.is_empty() {
            bad.push(format!("{}: campaign ran no trials", single.operator));
        }
        for failed in &single.failed_segments {
            bad.push(format!(
                "{}: segment {} quarantined: {}",
                single.operator, failed.segment, failed.panic
            ));
        }
    }
    if run.composed.trials.is_empty() {
        bad.push("composed campaign ran no trials".to_string());
    }
    if !run
        .composed
        .summary
        .detected_bugs
        .contains_key(SEEDED_CROSS_OPERATOR_GC)
    {
        bad.push(format!("{SEEDED_CROSS_OPERATOR_GC} went undetected"));
    }
    if scale.pinned {
        let got = digest(&run.transcript());
        if got != CAMPAIGN_DIGEST {
            bad.push(format!(
                "campaign transcript digest {got:016x}, pinned {CAMPAIGN_DIGEST:016x}"
            ));
        }
    }
    bad
}

// ---------------------------------------------------------------------------
// fuzz
// ---------------------------------------------------------------------------

/// Runs one in-memory guided fuzz unit.
pub fn run_fuzz_unit(
    seed: u64,
    index: usize,
    scale: Scale,
    workers: usize,
) -> (Unit, Option<FuzzResult>) {
    let cfg = fuzz_config(fuzz_seed(seed, index), scale, workers);
    let (part, result) = timed_part(cfg.execs, || {
        std::panic::catch_unwind(AssertUnwindSafe(|| run_fuzz(&cfg)))
    });
    let mut unit = Unit {
        parts: vec![part],
        ..Unit::default()
    };
    match result {
        Ok(Ok(result)) => {
            unit.found_crash_bug = found_crash_bug(&result);
            unit.mismatches
                .extend(check_fuzz(&result, &cfg, seed, index, scale));
            (unit, Some(result))
        }
        Ok(Err(e)) => {
            unit.failed = cfg.execs;
            unit.mismatches.push(format!("fuzz refused to run: {e}"));
            (unit, None)
        }
        Err(_) => {
            unit.failed = cfg.execs;
            unit.mismatches.push("fuzz run panicked".to_string());
            (unit, None)
        }
    }
}

/// Whether a fuzz run detected SEED-CRASH-1.
pub fn found_crash_bug(result: &FuzzResult) -> bool {
    result
        .summary
        .detected_bugs
        .contains_key(SEEDED_NONIDEMPOTENT_CREATE)
}

/// Output checks of one fuzz result (in memory or resumed).
pub fn check_fuzz(
    result: &FuzzResult,
    cfg: &FuzzConfig,
    seed: u64,
    index: usize,
    scale: Scale,
) -> Vec<String> {
    let mut bad = Vec::new();
    if result.execs != cfg.execs || result.records.len() != cfg.execs {
        bad.push(format!(
            "fuzz ran {} execs ({} records), budget {}",
            result.execs,
            result.records.len(),
            cfg.execs
        ));
    }
    if let Some((i, _)) = result
        .records
        .iter()
        .enumerate()
        .find(|(i, r)| r.index != *i)
    {
        bad.push(format!("fuzz record {i} is out of order"));
    }
    if result.coverage.is_empty() || result.corpus.entries.is_empty() {
        bad.push("fuzz reached no coverage".to_string());
    }
    if result.corpus.entries.iter().any(|e| e.exec >= cfg.execs) {
        bad.push("corpus entry points past the exec budget".to_string());
    }
    if scale.pinned && seed == crate::spec::DEFAULT_SEED && index == 0 {
        let got = digest(&result.transcript());
        if got != FUZZ_DIGEST {
            bad.push(format!(
                "fuzz transcript digest {got:016x}, pinned {FUZZ_DIGEST:016x}"
            ));
        }
    }
    bad
}

// ---------------------------------------------------------------------------
// resume
// ---------------------------------------------------------------------------

/// Tears the final journal record the way a kill mid-append leaves it:
/// every earlier record intact, the last one cut in half.
pub fn tear_journal(dir: &Path) -> std::io::Result<()> {
    let path = dir.join("journal.jsonl");
    let raw = std::fs::read(&path)?;
    let body = raw.strip_suffix(b"\n").unwrap_or(&raw);
    let last_start = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let cut = last_start + (body.len() - last_start) / 2;
    std::fs::write(&path, &raw[..cut])
}

/// Store paths of one `resume` unit, removed when dropped.
pub struct StoreDir(pub PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Timings and results of one `resume` unit.
pub struct ResumeRun {
    /// The configuration the unit ran.
    pub cfg: FuzzConfig,
    pub persistent: FuzzResult,
    /// Wall seconds of the persistent write.
    pub write_wall_s: f64,
    pub io: StoreIo,
    pub journal_bytes: u64,
    /// The store, kept until the run is dropped.
    pub store: StoreDir,
}

/// Writes a persistent fuzz run into a fresh store under `work`, tears its
/// final journal record, and resumes it. `reference` is the in-memory
/// transcript of the same configuration, when the caller has one.
pub fn run_resume_unit(
    seed: u64,
    index: usize,
    scale: Scale,
    workers: usize,
    work: &Path,
    reference: Option<&str>,
) -> (Unit, Option<ResumeRun>) {
    let cfg = fuzz_config(fuzz_seed(seed, index), scale, workers);
    let store = StoreDir(work.join(format!("store-{index}")));
    let _ = std::fs::remove_dir_all(&store.0);
    let mut unit = Unit::default();
    let io = StoreIo::clean();
    let (write, persistent) = timed_part(cfg.execs, || {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_fuzz_persistent_io(&cfg, &store.0, false, io.clone())
        }))
    });
    unit.parts.push(write);
    let persistent = match persistent {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            unit.failed = cfg.execs;
            unit.mismatches.push(format!("persistent fuzz failed: {e}"));
            return (unit, None);
        }
        Err(_) => {
            unit.failed = cfg.execs;
            unit.mismatches.push("persistent fuzz panicked".to_string());
            return (unit, None);
        }
    };
    let journal_bytes = std::fs::metadata(store.0.join("journal.jsonl")).map_or(0, |m| m.len());
    if let Err(e) = tear_journal(&store.0) {
        unit.failed = cfg.execs;
        unit.mismatches
            .push(format!("could not tear the journal: {e}"));
        return (unit, None);
    }
    let (resume, resumed) = timed_part(0, || {
        std::panic::catch_unwind(AssertUnwindSafe(|| resume_fuzz(&cfg, &store.0)))
    });
    unit.parts.push(resume);
    let resumed = match resumed {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            unit.failed = cfg.execs;
            unit.mismatches.push(format!("resume failed: {e}"));
            return (unit, None);
        }
        Err(_) => {
            unit.failed = cfg.execs;
            unit.mismatches.push("resume panicked".to_string());
            return (unit, None);
        }
    };
    let resumed_text = resumed.transcript();
    if resumed_text != persistent.transcript() {
        unit.mismatches.push(format!(
            "unit {index}: resumed transcript differs from the persistent run"
        ));
    }
    if reference.is_some_and(|r| r != resumed_text) {
        unit.mismatches.push(format!(
            "unit {index}: resumed transcript differs from the in-memory run"
        ));
    }
    unit.found_crash_bug = found_crash_bug(&resumed);
    unit.mismatches
        .extend(check_fuzz(&resumed, &cfg, seed, index, scale));
    let run = ResumeRun {
        cfg,
        persistent,
        write_wall_s: write.wall_s,
        io,
        journal_bytes,
        store,
    };
    (unit, Some(run))
}
