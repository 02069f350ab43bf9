//! What the benchmark measures: workloads, metric names and units, and
//! the stamp every output carries.
//!
//! `BENCHMARK.json` at the repository root declares the same names; the
//! self-tests keep the two in step.

/// Version of this benchmark's output layout. Bump it when a metric is
/// added, removed or redefined, so numbers of different versions are never
/// compared blind.
pub const SCHEMA_VERSION: u32 = 1;

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [&str; 3] = ["campaign", "fuzz", "resume"];

/// The seed whose outputs are pinned by transcript digest.
pub const DEFAULT_SEED: u64 = 1;

/// How a metric's value may be compared between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A time or a ratio of times: varies run to run.
    Time,
    /// A count the program makes deterministically: repeats exactly for a
    /// given seed and commit.
    Exact,
    /// A count that depends on how two workers interleave (steals, depot
    /// hits): varies run to run.
    Scheduling,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Time => "time",
            Kind::Exact => "exact",
            Kind::Scheduling => "sched",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric { name, unit, kind }
}

use Kind::{Exact, Scheduling, Time};

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// `ops_per_cpu_s` is the workload's one throughput: trials (campaign) or
/// execs (fuzz, resume) per CPU-second of the whole process, whose worker
/// threads run at `workers = nproc`. On `resume` an exec counts once it
/// has been made durable and recovered (persistent write plus resume of
/// the torn store). `busy_cores` is CPU time over wall time for the same
/// work: the cores the workers keep busy, which falls when they block
/// (idle at a barrier, waiting on a lock or on fsync). Wall throughput is
/// their product. It is gated through the two factors because a shared
/// host's speed drifts by up to a quarter between runs minutes apart:
/// the drift moves CPU and wall time alike, so it cancels from
/// `busy_cores`, which can then carry a tight bound. `setup_s` is the
/// set-up thread's CPU time, which equals its wall time on an idle core.
pub const END_TO_END: [Metric; 3] = [
    m("setup_s", "s", Time),
    m("ops_per_cpu_s", "ops/cpu-s", Time),
    m("busy_cores", "cores", Time),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload bypasses reports zero.
pub const PER_LAYER: [Metric; 58] = [
    m("campaign.plan.self_s", "s", Time),
    m("campaign.plan.calls", "count", Exact),
    m("campaign.plan.ops", "count", Exact),
    m("framework.deploy.self_s", "s", Time),
    m("framework.deploy.calls", "count", Exact),
    m("framework.restore.self_s", "s", Time),
    m("framework.restore.calls", "count", Exact),
    m("framework.restore.forks", "count", Exact),
    m("api.submit.self_s", "s", Time),
    m("api.submit.calls", "count", Exact),
    m("api.submit.rejected", "count", Exact),
    m("cluster.converge.self_s", "s", Time),
    m("cluster.converge.calls", "count", Exact),
    m("cluster.converge.ticks_executed", "count", Exact),
    m("cluster.converge.ticks_skipped", "count", Exact),
    m("cluster.converge.ticks_per_call", "ticks", Exact),
    m("oracles.snapshot.self_s", "s", Time),
    m("oracles.snapshot.calls", "count", Exact),
    m("oracles.consistency.self_s", "s", Time),
    m("oracles.consistency.calls", "count", Exact),
    m("oracles.consistency.alarms", "count", Exact),
    m("oracles.differential.self_s", "s", Time),
    m("oracles.differential.calls", "count", Exact),
    m("oracles.differential.alarms", "count", Exact),
    m("oracles.crash.self_s", "s", Time),
    m("oracles.crash.calls", "count", Exact),
    m("oracles.crash.alarms", "count", Exact),
    m("oracles.recovery.self_s", "s", Time),
    m("oracles.recovery.calls", "count", Exact),
    m("oracles.recovery.alarms", "count", Exact),
    m("oracles.composition.self_s", "s", Time),
    m("oracles.composition.calls", "count", Exact),
    m("oracles.composition.alarms", "count", Exact),
    m("fuzz.coverage.self_s", "s", Time),
    m("fuzz.coverage.calls", "count", Exact),
    m("fuzz.coverage.new", "count", Exact),
    m("fuzz.coverage.seen", "count", Exact),
    m("fuzz.exec_ms.q1", "ms", Time),
    m("fuzz.exec_ms.q4", "ms", Time),
    m("fuzz.corpus.self_s", "s", Time),
    m("fuzz.corpus.bytes", "B", Exact),
    m("persist.journal.appends", "count", Exact),
    m("persist.journal.atomic_writes", "count", Exact),
    m("persist.journal.retries", "count", Exact),
    m("persist.journal.bytes", "B", Exact),
    m("persist.journal.bytes_per_exec", "B", Exact),
    m("persist.journal.store_s", "s", Time),
    m("persist.recover.self_s", "s", Time),
    m("persist.recover.calls", "count", Exact),
    m("exec.scheduler.steals", "count", Scheduling),
    m("exec.scheduler.depot_hits", "count", Scheduling),
    m("exec.scheduler.ref_cache_hit_ratio", "ratio", Scheduling),
    m("exec.scheduler.failed_segments", "count", Exact),
    m("exec.scheduler.idle_share", "ratio", Time),
    m("trace.unattributed_s", "s", Time),
    m("trace.cover", "ratio", Time),
    m("trace.wall_s", "s", Time),
    m("process.peak_rss_mb", "MB", Time),
];

/// Looks up a declared metric by name.
pub fn metric(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .copied()
}

#[cfg(test)]
/// Whether `name` is a valid metric name: letters, digits, `_`, `.`, `-`,
/// starting with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit string.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a measured number with all its digits (never in exponent form,
/// which some JSON readers refuse for integers).
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Where and how a set of numbers was measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub profile: &'static str,
    pub seed: u64,
    pub workers: usize,
    pub workload: String,
    pub trace: bool,
}

impl Stamp {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"stamp\": {{\"schema_version\": {}, \"commit\": {}, \"nproc\": {}, \"profile\": {}, \"workload\": {}, \"seed\": {}, \"workers\": {}, \"trace\": {}}}}}",
            SCHEMA_VERSION,
            json_str(&self.commit),
            self.nproc,
            json_str(self.profile),
            json_str(&self.workload),
            self.seed,
            self.workers,
            self.trace
        )
    }
}

/// The commit the benchmark was built from: `PERFBENCH_COMMIT` if set,
/// else what `git` reports for the working directory, else `unknown`
/// (an exported checkout carries no history).
pub fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        if !c.is_empty() {
            return c;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
