//! End-to-end and per-layer benchmark of the Acto reproduction.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <campaign|fuzz|resume> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload's fixed set of units runs untraced at
//! `workers = nproc`, cycled until `--seconds` have passed (at least one
//! whole pass), and the last line of standard output reports the
//! end-to-end metrics. With
//! `--trace 1` the suite, or the first few fuzz units, run untraced once
//! (for their inputs and CPU time), then their inputs are replayed at one
//! worker with a span around every layer call, the replay's trials are
//! checked against the program's, and the last line reports the
//! per-layer metrics.
//!
//! The exit code is 0 only when every output check passed and no
//! operation failed. See `README.md` beside this crate for the design.

mod clock;
mod replay;
mod spec;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use acto_repro::acto::compose::run_composed_work_stealing_with;
use acto_repro::acto::fuzz::FuzzResult;
use acto_repro::acto::parallel::{run_work_stealing_with, SnapshotDepot, DEFAULT_SEGMENT_OPS};
use acto_repro::acto::persist::{load_corpus, resume_fuzz, RunStore};
use acto_repro::acto::{Alarm, TrialOutcome, WorkerStats};
use acto_repro::simkube::{checkpoint_forks, engine_counters};

use clock::{peak_rss_mb, thread_cpu_s};
use spec::{json_num, json_str, Stamp};
use workloads::{Scale, Unit};

/// Set-up rounds per core before the timed phase: at least this many, and
/// for at least [`SETUP_MIN_TIME`], so the least of them rests on many
/// samples.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(3000);
/// Share of each timed unit's wall time spent on set-up rounds right after
/// it: a host's slow spells can outlast the up-front window, so set-up
/// samples are spread over the whole run.
const SETUP_SHARE: f64 = 0.1;

/// The longest `--seconds` accepted, so a run always ends well inside its
/// time limit.
const MAX_SECONDS: f64 = 100.0;
/// Scratch directory for run stores, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = spec::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
                    return Err(format!("--seconds {seconds} is outside (0, {MAX_SECONDS}]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; valid: {}",
            spec::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
    })
}

/// Everything one run reports.
#[derive(Debug, Default)]
struct Report {
    attempted: usize,
    failed: usize,
    mismatches: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn absorb(&mut self, unit: &Unit) {
        self.attempted += unit.ops();
        self.failed += unit.failed;
        self.mismatches.extend(unit.mismatches.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty() && self.attempted > 0
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "undeclared metric {name}");
        self.metrics.push((name, value));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::metric(name).map_or("", |m| m.unit);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        // A failed output check is a failed operation too.
        let failed = self.failed + self.mismatches.len();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            failed,
            metrics.join(", ")
        )
    }

    /// A readable table of the metrics, one per line.
    fn table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let m = spec::metric(name).expect("declared metric");
            out.push_str(&format!(
                "{:<40} {:>16.6} {:<6} {}\n",
                name,
                value,
                m.unit,
                m.kind.label()
            ));
        }
        out
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The least CPU time one set-up of each target has taken so far.
#[derive(Clone)]
struct SetupCost {
    targets: Vec<acto_repro::acto::CampaignConfig>,
    best: Vec<f64>,
    rounds: usize,
}

impl SetupCost {
    fn new(targets: Vec<acto_repro::acto::CampaignConfig>) -> SetupCost {
        let best = vec![f64::INFINITY; targets.len()];
        SetupCost {
            targets,
            best,
            rounds: 0,
        }
    }

    /// Sets up every target once on the calling thread.
    fn round(&mut self) {
        for (best, cfg) in self.best.iter_mut().zip(&self.targets) {
            let t = thread_cpu_s();
            std::hint::black_box(workloads::setup_once(cfg));
            *best = best.min(thread_cpu_s() - t);
        }
        self.rounds += 1;
    }

    fn merge(&mut self, other: &SetupCost) {
        for (best, theirs) in self.best.iter_mut().zip(&other.best) {
            *best = best.min(*theirs);
        }
        self.rounds += other.rounds;
    }

    /// Set-up time: the sum over targets of their least cost.
    fn total_s(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// A scratch directory for this process's run stores, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = Path::new(WORK_DIR).join(format!("run-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// Runs one unit of the workload.
fn run_unit(
    args: &Args,
    index: usize,
    workers: usize,
    work: &Path,
    reference: Option<&str>,
) -> Unit {
    match args.workload.as_str() {
        "campaign" => {
            let order = workloads::campaign_order(args.seed);
            workloads::run_campaign_unit(&order, args.scale, workers).0
        }
        "fuzz" => workloads::run_fuzz_unit(args.seed, index, args.scale, workers).0,
        _ => workloads::run_resume_unit(args.seed, index, args.scale, workers, work, reference).0,
    }
}

/// The least cost each timed piece of one unit has taken so far.
#[derive(Debug, Default)]
struct Best {
    parts: Vec<workloads::Part>,
}

impl Best {
    /// Keeps, piece by piece, the least CPU time and the least wall time.
    fn absorb(&mut self, unit: &Unit) {
        if self.parts.is_empty() {
            self.parts = unit.parts.clone();
            return;
        }
        for (b, p) in self.parts.iter_mut().zip(&unit.parts) {
            b.cpu_s = b.cpu_s.min(p.cpu_s);
            b.wall_s = b.wall_s.min(p.wall_s);
        }
    }

    /// Operations per least CPU second, and the cores kept busy: least
    /// CPU seconds over least wall seconds.
    fn rates(&self) -> (f64, f64) {
        let ops: usize = self.parts.iter().map(|p| p.ops).sum();
        let cpu: f64 = self.parts.iter().map(|p| p.cpu_s).sum();
        let wall: f64 = self.parts.iter().map(|p| p.wall_s).sum();
        (ops as f64 / cpu.max(1e-9), cpu / wall.max(1e-9))
    }
}

/// The untraced run: repeated set-ups, then the workload's fixed set of
/// units, cycled until `--seconds` have passed and at least once.
///
/// The set of units is fixed by the seed: the whole suite for `campaign`,
/// a fixed number of seed-derived fuzz runs for `fuzz` and `resume`. The
/// clock only decides how often units repeat, so every run is judged on
/// the same inputs. Each piece of a unit (a campaign of the suite, a fuzz run,
/// a write or a resume) is costed at its least CPU time and its least wall
/// time over the passes, which filters out the bursts of contention a
/// shared host adds. `campaign` reports its one unit; `fuzz` and `resume`
/// report the median unit, since their units differ in cost far more than
/// contention moves any one of them (see README.md).
fn timed(args: &Args, workers: usize) -> Report {
    let mut report = Report::default();
    let work = WorkDir::new();

    // Set-up: planning plus base deploy of every target, repeated on one
    // thread per core at once so every core is sampled, then again after
    // every timed unit (SETUP_SHARE) so the samples span the whole run.
    // Each target costs the least CPU time of its repetitions; set-up is
    // their sum. The first repetitions also warm lazily built state.
    let mut setup = SetupCost::new(workloads::setup_targets(&args.workload, args.scale));
    let per_thread: Vec<SetupCost> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = setup.clone();
                    let start = Instant::now();
                    while mine.rounds < SETUP_MIN_REPS || start.elapsed() < SETUP_MIN_TIME {
                        mine.round();
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    for other in &per_thread {
        setup.merge(other);
    }

    // The resume workload checks its first unit against the in-memory run
    // of the same configuration, made here, before the clock starts.
    let reference = if args.workload == "resume" {
        let (unit, result) = workloads::run_fuzz_unit(args.seed, 0, args.scale, workers);
        report.mismatches.extend(unit.mismatches);
        result.map(|r| r.transcript())
    } else {
        None
    };

    let campaign = args.workload == "campaign";
    let units = match args.workload.as_str() {
        "campaign" => 1,
        "fuzz" => args.scale.fuzz_units,
        _ => args.scale.resume_units,
    };
    let mut best: Vec<Best> = (0..units).map(|_| Best::default()).collect();
    let mut found_crash_bug = vec![false; units];
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes = 0;
    'passes: loop {
        for (index, best) in best.iter_mut().enumerate() {
            if passes > 0 && start.elapsed() >= deadline {
                break 'passes;
            }
            let reference = reference.as_deref().filter(|_| index == 0 && passes == 0);
            let unit = run_unit(args, index, workers, &work.0, reference);
            best.absorb(&unit);
            found_crash_bug[index] |= unit.found_crash_bug;
            report.absorb(&unit);
            let wall: f64 = unit.parts.iter().map(|p| p.wall_s).sum();
            let until = Instant::now() + Duration::from_secs_f64(wall * SETUP_SHARE);
            setup.round();
            while Instant::now() < until {
                setup.round();
            }
        }
        passes += 1;
    }
    let found = found_crash_bug.iter().filter(|f| **f).count();
    // The fuzzer must find SEED-CRASH-1 within the default seed's units.
    if !campaign && args.scale.pinned && args.seed == spec::DEFAULT_SEED && found == 0 {
        report.mismatches.push(format!(
            "{} went undetected in {units} fuzz runs",
            acto_repro::operators::bugs::SEEDED_NONIDEMPOTENT_CREATE
        ));
    }

    let (mut cpu_rates, mut busy): (Vec<f64>, Vec<f64>) = best.iter().map(Best::rates).unzip();
    report.set("setup_s", setup.total_s());
    report.set("ops_per_cpu_s", median(&mut cpu_rates));
    report.set("busy_cores", median(&mut busy));
    eprintln!(
        "perfbench: {} set-up rounds, {passes} whole passes over {units} units ({found} found SEED-CRASH-1) in {:.2} s",
        setup.rounds,
        start.elapsed().as_secs_f64(),
    );
    report
}

/// Scheduler counters of one untraced unit.
#[derive(Debug, Default)]
struct Sched {
    steals: usize,
    depot_hits: usize,
    ref_hits: usize,
    ref_misses: usize,
    failed_segments: usize,
    busy_s: f64,
    capacity_s: f64,
}

impl Sched {
    fn add(&mut self, stats: &[WorkerStats], workers: usize, wall: Duration) {
        for s in stats {
            self.steals += s.steals;
            self.depot_hits += s.depot_hits;
            self.ref_hits += s.ref_cache_hits;
            self.ref_misses += s.ref_cache_misses;
            self.busy_s += s.wall.as_secs_f64();
        }
        self.capacity_s += workers as f64 * wall.as_secs_f64();
    }
}

/// Spans and engine counters of the replays so far.
#[derive(Default)]
struct Traced {
    folded: trace::Folded,
    ticks: (u64, u64),
    forks: u64,
}

impl Traced {
    /// Runs `f` under a fresh root span and folds what it recorded in.
    fn replay<R>(&mut self, r: &mut replay::Replay, f: impl FnOnce(&mut replay::Replay) -> R) -> R {
        r.t = trace::Tracer::new();
        let (t0, f0) = (engine_counters(), checkpoint_forks());
        let out = f(r);
        let t1 = engine_counters();
        self.ticks.0 += t1.0 - t0.0;
        self.ticks.1 += t1.1 - t0.1;
        self.forks += checkpoint_forks() - f0;
        self.folded.merge(std::mem::take(&mut r.t).finish());
        out
    }
}

/// What the program recorded of each trial, in the replay's terms.
fn signatures<'a>(
    trials: impl Iterator<Item = (&'a TrialOutcome, &'a Vec<Alarm>)>,
) -> Vec<replay::TrialSig> {
    trials
        .map(|(outcome, alarms)| (outcome.class_name(), !alarms.is_empty()))
        .collect()
}

/// A mismatch line when the replay of `what` saw other trials than the
/// program ran: the replay no longer does the program's work.
fn drift(what: &str, seen: &[replay::TrialSig], want: &[replay::TrialSig]) -> Option<String> {
    if seen == want {
        return None;
    }
    let at = seen.iter().zip(want).take_while(|(a, b)| a == b).count();
    Some(format!(
        "replay of {what} drifted from the program: {} trials replayed, {} run; first difference at trial {at}: replayed {:?}, program {:?}",
        seen.len(),
        want.len(),
        seen.get(at),
        want.get(at)
    ))
}

/// Drift of a replayed fuzz run from its records, exec by exec.
fn fuzz_drift(
    unit: usize,
    seen: &[Vec<replay::TrialSig>],
    records: &[acto_repro::acto::fuzz::ExecRecord],
) -> Option<String> {
    if seen.len() != records.len() {
        return Some(format!(
            "replay of fuzz unit {unit} ran {} execs, the program {}",
            seen.len(),
            records.len()
        ));
    }
    seen.iter().zip(records).find_map(|(seen, record)| {
        let want = signatures(record.trials.iter().map(|t| (&t.outcome, &t.alarms)));
        drift(
            &format!("fuzz unit {unit}, exec {}", record.index),
            seen,
            &want,
        )
    })
}

/// What the untraced part of a traced run leaves for the replay.
enum Inputs {
    Campaign(Vec<&'static str>, Option<Box<workloads::CampaignRun>>),
    Fuzz(Vec<FuzzResult>),
    Resume(Vec<workloads::ResumeRun>),
}

/// The traced run: untraced units for inputs and CPU time, then the traced
/// replay of those inputs at one worker.
fn traced(args: &Args, workers: usize) -> Report {
    let mut report = Report::default();
    let work = WorkDir::new();
    let mut sched = Sched::default();
    let (seed, scale) = (args.seed, args.scale);
    // The CPU seconds of each piece the replay takes in one go: every
    // campaign of the suite, or every fuzz or resume unit.
    let mut pieces_cpu: Vec<f64> = Vec::new();
    let mut count = |report: &mut Report, unit: &Unit| {
        if args.workload == "campaign" {
            pieces_cpu.extend(unit.parts.iter().map(|p| p.cpu_s));
        } else {
            pieces_cpu.push(cpu_s_of(unit));
        }
        report.absorb(unit);
    };

    // Untraced: the campaign suite once, or the first `trace_units` units.
    let mut store_s = 0.0;
    let inputs = match args.workload.as_str() {
        "campaign" => {
            let order = workloads::campaign_order(seed);
            let (unit, run) = workloads::run_campaign_unit(&order, scale, workers);
            count(&mut report, &unit);
            if let Some(run) = &run {
                for single in &run.singles {
                    sched.add(&single.worker_stats, single.workers, single.wall);
                    sched.failed_segments += single.failed_segments.len();
                }
                let c = &run.composed;
                sched.add(&c.worker_stats, c.workers, c.wall);
            }
            Inputs::Campaign(order, run.map(Box::new))
        }
        "fuzz" => {
            let mut results = Vec::new();
            for index in 0..scale.trace_units {
                let (unit, result) = workloads::run_fuzz_unit(seed, index, scale, workers);
                count(&mut report, &unit);
                if let Some(result) = result {
                    sched.add(&result.worker_stats, workers, result.wall);
                    results.push(result);
                }
            }
            Inputs::Fuzz(results)
        }
        _ => {
            let mut runs = Vec::new();
            for index in 0..scale.trace_units {
                // The in-memory run of the same configuration: the resumed
                // transcript must equal it, and its wall time is the
                // baseline the store's cost is measured against.
                let (fuzz_unit, fuzz) = workloads::run_fuzz_unit(seed, index, scale, workers);
                report.mismatches.extend(fuzz_unit.mismatches);
                let reference = fuzz.as_ref().map(|f| f.transcript());
                let (unit, run) = workloads::run_resume_unit(
                    seed,
                    index,
                    scale,
                    workers,
                    &work.0,
                    reference.as_deref(),
                );
                count(&mut report, &unit);
                if let Some(run) = run {
                    sched.add(&run.persistent.worker_stats, workers, run.persistent.wall);
                    store_s += run.write_wall_s - fuzz.map_or(0.0, |f| f.wall.as_secs_f64());
                    runs.push(run);
                }
            }
            Inputs::Resume(runs)
        }
    };

    // Traced: replay the same inputs through each layer at one worker,
    // piece by piece. Right before its replay each piece runs untraced once
    // more at one worker, so both see the host in the same state; a
    // piece's untraced CPU time is the least of its two passes, so neither
    // a burst of contention nor the cost of two workers sharing the memory
    // system passes for work the replay missed. Fuzz replays take their
    // inputs from the records; only the campaign settings, which no seed
    // changes, come from the configuration.
    let fuzz_campaign = workloads::fuzz_config(0, scale, 1).campaign;
    let again = work.0.join("again");
    let mut traced = Traced::default();
    let mut r = replay::Replay::default();
    let mut unit_cpu = 0.0;
    let mut piece = 0;
    let mut untraced = |cpu: f64| {
        unit_cpu += pieces_cpu.get(piece).copied().unwrap_or(cpu).min(cpu);
        piece += 1;
    };
    match &inputs {
        Inputs::Campaign(order, run) => {
            for name in order {
                let cfg = workloads::single_config(name, scale);
                let (part, _) = workloads::timed_part(0, || {
                    run_work_stealing_with(&cfg, 1, DEFAULT_SEGMENT_OPS, &SnapshotDepot::new())
                });
                untraced(part.cpu_s);
                let seen = traced.replay(&mut r, |r| r.campaign(&cfg));
                let program = run
                    .iter()
                    .flat_map(|run| &run.singles)
                    .find(|single| single.operator == *name);
                if let Some(program) = program {
                    let want = signatures(program.trials.iter().map(|t| (&t.outcome, &t.alarms)));
                    report.mismatches.extend(drift(name, &seen, &want));
                }
            }
            let cfg = workloads::composed_config(scale);
            let (part, _) = workloads::timed_part(0, || {
                run_composed_work_stealing_with(&cfg, 1, DEFAULT_SEGMENT_OPS, &SnapshotDepot::new())
            });
            untraced(part.cpu_s);
            let seen = traced.replay(&mut r, |r| r.composed(&cfg));
            if let Some(run) = run {
                let trials = run.composed.trials.iter();
                let want = signatures(trials.map(|t| (&t.outcome, &t.alarms)));
                report
                    .mismatches
                    .extend(drift("the composed campaign", &seen, &want));
            }
        }
        Inputs::Fuzz(results) => {
            for (index, result) in results.iter().enumerate() {
                let (unit, _) = workloads::run_fuzz_unit(seed, index, scale, 1);
                untraced(cpu_s_of(&unit));
                report.absorb(&unit);
                let seen = traced.replay(&mut r, |r| {
                    r.fuzz(&fuzz_campaign, &result.records, &result.corpus)
                });
                report
                    .mismatches
                    .extend(fuzz_drift(index, &seen, &result.records));
            }
        }
        Inputs::Resume(runs) => {
            for (index, run) in runs.iter().enumerate() {
                let (unit, _) = workloads::run_resume_unit(seed, index, scale, 1, &again, None);
                untraced(cpu_s_of(&unit));
                report.absorb(&unit);
                let records = &run.persistent.records;
                let seen = traced.replay(&mut r, |r| {
                    r.fuzz(&fuzz_campaign, records, &run.persistent.corpus)
                });
                report.mismatches.extend(fuzz_drift(index, &seen, records));
                // Recovery of a torn copy through the store's public entry
                // points.
                let dir = &run.store.0;
                if let Err(e) = workloads::tear_journal(dir) {
                    report
                        .mismatches
                        .push(format!("could not tear the journal: {e}"));
                    continue;
                }
                let mut results = None;
                traced.replay(&mut r, |r| {
                    let opened =
                        r.t.span(replay::RECOVER, || RunStore::open(dir).map(|_| ()));
                    let corpus = r.t.span(replay::RECOVER, || load_corpus(dir).map(|_| ()));
                    let resumed = r.t.span(replay::RECOVER, || resume_fuzz(&run.cfg, dir));
                    results = Some((opened, corpus, resumed));
                });
                let (opened, corpus, resumed) = results.expect("recovery replayed");
                let error = |e: &acto_repro::acto::PersistError| e.to_string();
                for err in [
                    opened.as_ref().err().map(error),
                    corpus.as_ref().err().map(error),
                    resumed.as_ref().err().map(error),
                ]
                .into_iter()
                .flatten()
                {
                    report.failed += 1;
                    report
                        .mismatches
                        .push(format!("recovery of a torn store: {err}"));
                }
                if resumed.is_ok_and(|res| res.transcript() != run.persistent.transcript()) {
                    report.mismatches.push(format!(
                        "unit {index}: traced resume differs from the persistent run"
                    ));
                }
            }
        }
    }
    let Traced {
        folded,
        ticks,
        forks,
    } = traced;
    let c = r.c;
    layer_metrics(&mut report, &folded, &c, ticks, forks);

    let ratio = |hits: usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    report.set("exec.scheduler.steals", sched.steals as f64);
    report.set("exec.scheduler.depot_hits", sched.depot_hits as f64);
    report.set(
        "exec.scheduler.ref_cache_hit_ratio",
        ratio(sched.ref_hits, sched.ref_hits + sched.ref_misses),
    );
    report.set(
        "exec.scheduler.failed_segments",
        sched.failed_segments as f64,
    );
    report.set(
        "exec.scheduler.idle_share",
        if sched.capacity_s > 0.0 {
            (1.0 - sched.busy_s / sched.capacity_s).max(0.0)
        } else {
            0.0
        },
    );

    let mut journal = [0.0f64; 6];
    if let Inputs::Resume(runs) = &inputs {
        let execs: usize = runs.iter().map(|r| r.persistent.records.len()).sum();
        let bytes: u64 = runs.iter().map(|r| r.journal_bytes).sum();
        let io = |f: fn(&acto_repro::acto::IoStats) -> u64| {
            runs.iter().map(|r| f(&r.io.stats())).sum::<u64>() as f64
        };
        journal = [
            io(|s| s.appends),
            io(|s| s.atomic_writes),
            io(|s| s.retries),
            bytes as f64,
            bytes as f64 / execs.max(1) as f64,
            store_s,
        ];
    }
    for (name, value) in [
        "persist.journal.appends",
        "persist.journal.atomic_writes",
        "persist.journal.retries",
        "persist.journal.bytes",
        "persist.journal.bytes_per_exec",
        "persist.journal.store_s",
    ]
    .into_iter()
    .zip(journal)
    {
        report.set(name, value);
    }
    report.set("trace.unattributed_s", folded.unattributed_s());
    report.set(
        "trace.cover",
        if unit_cpu > 0.0 {
            folded.attributed_s() / unit_cpu
        } else {
            0.0
        },
    );
    report.set("trace.wall_s", folded.wall_s);
    report.set("process.peak_rss_mb", peak_rss_mb());
    report
}

/// CPU seconds of a unit.
fn cpu_s_of(unit: &Unit) -> f64 {
    unit.parts.iter().map(|p| p.cpu_s).sum()
}

/// Time, calls and counts of every replayed layer.
fn layer_metrics(
    report: &mut Report,
    folded: &trace::Folded,
    c: &replay::Counts,
    ticks: (u64, u64),
    forks: u64,
) {
    use replay::*;
    let time = |report: &mut Report, layer: &'static str, self_name, calls_name| {
        report.set(self_name, folded.self_s(layer));
        report.set(calls_name, folded.calls(layer) as f64);
    };
    time(report, PLAN, "campaign.plan.self_s", "campaign.plan.calls");
    report.set("campaign.plan.ops", c.planned as f64);
    time(
        report,
        DEPLOY,
        "framework.deploy.self_s",
        "framework.deploy.calls",
    );
    time(
        report,
        RESTORE,
        "framework.restore.self_s",
        "framework.restore.calls",
    );
    report.set("framework.restore.forks", forks as f64);
    time(report, SUBMIT, "api.submit.self_s", "api.submit.calls");
    report.set("api.submit.rejected", c.rejected as f64);
    time(
        report,
        CONVERGE,
        "cluster.converge.self_s",
        "cluster.converge.calls",
    );
    report.set("cluster.converge.ticks_executed", ticks.0 as f64);
    report.set("cluster.converge.ticks_skipped", ticks.1 as f64);
    let converges = folded.calls(CONVERGE);
    report.set(
        "cluster.converge.ticks_per_call",
        if converges == 0 {
            0.0
        } else {
            ticks.0 as f64 / converges as f64
        },
    );
    time(
        report,
        SNAPSHOT,
        "oracles.snapshot.self_s",
        "oracles.snapshot.calls",
    );
    for (layer, names) in ORACLES.iter().zip([
        [
            "oracles.consistency.self_s",
            "oracles.consistency.calls",
            "oracles.consistency.alarms",
        ],
        [
            "oracles.differential.self_s",
            "oracles.differential.calls",
            "oracles.differential.alarms",
        ],
        [
            "oracles.crash.self_s",
            "oracles.crash.calls",
            "oracles.crash.alarms",
        ],
        [
            "oracles.recovery.self_s",
            "oracles.recovery.calls",
            "oracles.recovery.alarms",
        ],
        [
            "oracles.composition.self_s",
            "oracles.composition.calls",
            "oracles.composition.alarms",
        ],
    ]) {
        time(report, layer, names[0], names[1]);
        report.set(names[2], c.alarms.get(layer).copied().unwrap_or(0) as f64);
    }
    time(
        report,
        COVERAGE,
        "fuzz.coverage.self_s",
        "fuzz.coverage.calls",
    );
    report.set("fuzz.coverage.new", c.coverage_new as f64);
    report.set("fuzz.coverage.seen", c.coverage_seen as f64);
    // Mean cost of the first and the last quarter of each replayed fuzz
    // run's execs, over all replayed runs.
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for run in &c.exec_ms {
        let quarter = run.len() / 4;
        first.extend_from_slice(&run[..quarter]);
        last.extend_from_slice(&run[run.len() - quarter..]);
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    report.set("fuzz.exec_ms.q1", mean(&first));
    report.set("fuzz.exec_ms.q4", mean(&last));
    report.set("fuzz.corpus.self_s", folded.self_s(CORPUS));
    report.set("fuzz.corpus.bytes", c.corpus_bytes as f64);
    time(
        report,
        RECOVER,
        "persist.recover.self_s",
        "persist.recover.calls",
    );
}

fn run(args: &Args) -> Report {
    let workers = spec::nproc();
    let stamp = Stamp {
        commit: spec::commit(),
        nproc: spec::nproc(),
        profile: spec::profile(),
        seed: args.seed,
        workers,
        workload: args.workload.clone(),
        trace: args.trace,
    };
    println!("{}", stamp.to_json());
    if args.trace {
        traced(args, workers)
    } else {
        timed(args, workers)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    for m in &report.mismatches {
        eprintln!("perfbench: CHECK FAILED: {m}");
    }
    print!("{}", report.table());
    println!("{}", report.to_json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use acto_repro::crdspec::{self, Value};
    use std::collections::BTreeSet;

    fn tiny(workload: &str, seed: u64, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed,
            seconds: 0.01,
            trace,
            scale: Scale::TINY,
        }
    }

    fn names(report: &Report) -> Vec<&'static str> {
        report.metrics.iter().map(|(n, _)| *n).collect()
    }

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        crdspec::json::from_str(&raw).expect("BENCHMARK.json parses")
    }

    fn declared(json: &Value, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_unique_and_have_units() {
        let mut seen = BTreeSet::new();
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
            assert!(spec::valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                spec::valid_unit(m.unit),
                "bad unit {} of {}",
                m.unit,
                m.name
            );
            assert!(seen.insert(m.name), "metric {} declared twice", m.name);
        }
    }

    #[test]
    fn benchmark_json_declares_these_workloads_and_metrics() {
        let json = benchmark_json();
        let ours = |list: &[spec::Metric]| -> Vec<(String, String)> {
            list.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), ours(&spec::END_TO_END));
        assert_eq!(declared(&json, "per_layer"), ours(&spec::PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, spec::WORKLOADS);
    }

    #[test]
    fn every_workload_emits_every_declared_metric() {
        let e2e: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        let layers: BTreeSet<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        for workload in spec::WORKLOADS {
            let timed = run(&tiny(workload, 1, false));
            assert!(timed.correct(), "{workload}: {:?}", timed.mismatches);
            assert_eq!(names(&timed), e2e, "{workload}");
            assert!(
                timed.metrics.iter().all(|(_, v)| *v > 0.0),
                "{workload}: {:?}",
                timed.metrics
            );
            let traced = run(&tiny(workload, 1, true));
            assert!(traced.correct(), "{workload}: {:?}", traced.mismatches);
            let got: BTreeSet<&str> = names(&traced).into_iter().collect();
            assert_eq!(got, layers, "{workload}");
            assert_eq!(
                traced.metrics.len(),
                layers.len(),
                "{workload}: a metric reported twice"
            );
        }
    }

    #[test]
    fn layer_self_times_add_up_to_the_traced_wall() {
        for workload in spec::WORKLOADS {
            let report = run(&tiny(workload, 2, true));
            let get = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"))
            };
            let layers: f64 = report
                .metrics
                .iter()
                .filter(|(n, _)| n.ends_with(".self_s"))
                .map(|(_, v)| v)
                .sum();
            let total = layers + get("trace.unattributed_s");
            let wall = get("trace.wall_s");
            assert!(wall > 0.0, "{workload}: empty trace");
            assert!(
                (total - wall).abs() <= 1e-6 * wall.max(1.0),
                "{workload}: layers {layers} + unattributed = {total}, wall {wall}"
            );
        }
    }

    #[test]
    fn traced_layers_are_all_declared() {
        let mut r = replay::Replay::default();
        let cfg = workloads::fuzz_config(workloads::fuzz_seed(1, 0), Scale::TINY, 1);
        let result = acto_repro::acto::fuzz::run_fuzz(&cfg).expect("fuzz runs");
        r.fuzz(&cfg.campaign, &result.records, &result.corpus);
        r.campaign(&workloads::single_config("ZooKeeperOp", Scale::TINY));
        r.composed(&workloads::composed_config(Scale::TINY));
        let folded = r.t.finish();
        for layer in folded.layers.keys().filter(|l| **l != trace::ROOT) {
            let name = format!("{layer}.self_s");
            assert!(
                spec::metric(&name).is_some(),
                "layer {layer} has no {name} metric"
            );
        }
    }

    #[test]
    fn seed_changes_the_inputs_but_not_the_metrics() {
        let a = workloads::campaign_order(1);
        let b = workloads::campaign_order(2);
        assert_ne!(a, b);
        assert_eq!(
            a.iter().collect::<BTreeSet<_>>(),
            b.iter().collect::<BTreeSet<_>>(),
            "the shuffle must keep every operator"
        );
        assert_ne!(workloads::fuzz_seed(1, 0), workloads::fuzz_seed(2, 0));
        assert_ne!(workloads::fuzz_seed(1, 0), workloads::fuzz_seed(1, 1));
        let one = workloads::run_fuzz_unit(1, 0, Scale::TINY, 2)
            .1
            .expect("fuzz runs");
        let two = workloads::run_fuzz_unit(2, 0, Scale::TINY, 2)
            .1
            .expect("fuzz runs");
        assert_ne!(one.transcript(), two.transcript());
        let again = workloads::run_fuzz_unit(1, 0, Scale::TINY, 2)
            .1
            .expect("fuzz runs");
        assert_eq!(
            one.transcript(),
            again.transcript(),
            "a seed must give the same inputs"
        );
        for trace in [false, true] {
            let x = run(&tiny("fuzz", 1, trace));
            let y = run(&tiny("fuzz", 2, trace));
            assert_eq!(names(&x), names(&y));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("setup_s", 0.25);
        report.set("ops_per_cpu_s", 12.5);
        report.set("busy_cores", 1.5);
        let json = crdspec::json::from_str(&report.to_json()).expect("result line parses");
        let Value::Object(map) = &json else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys.len(), 4);
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(keys.contains(&key), "missing {key}");
        }
        let setup = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn a_replay_that_drifts_from_the_program_is_a_mismatch() {
        let program = [("converged", false), ("error-state", true)];
        assert_eq!(drift("x", &program, &program), None);
        let alarm_missed = [("converged", false), ("error-state", false)];
        let line = drift("x", &alarm_missed, &program).expect("drift found");
        assert!(line.contains("first difference at trial 1"), "{line}");
        assert!(drift("x", &program[..1], &program).is_some());

        // A replayed fuzz run must see every recorded exec's trials.
        let cfg = workloads::fuzz_config(workloads::fuzz_seed(1, 0), Scale::TINY, 2);
        let result = acto_repro::acto::fuzz::run_fuzz(&cfg).expect("fuzz runs");
        let mut r = replay::Replay::default();
        let seen = r.fuzz(&cfg.campaign, &result.records, &result.corpus);
        assert_eq!(fuzz_drift(0, &seen, &result.records), None);
        assert!(fuzz_drift(0, &seen[1..], &result.records).is_some());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&argv("--workload fuzz --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, true));
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload fuzz --trace 2",
            "--workload fuzz --seconds -1",
            "--workload fuzz --seconds 101",
            "--workload fuzz --tiny",
            "--workload fuzz --frobnicate",
            "--workload fuzz --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad}");
        }
    }
}
