//! The traced run: re-drives a workload's own inputs at one worker through
//! the public functions of each layer, with a span around every call.
//!
//! The replay mirrors the program's runners step for step (segments built
//! from prefix checkpoints, rollbacks and resets, the differential
//! oracle's reference cache, the fuzzer's crash-consistency references).
//! It is the benchmark's own code, so it returns what it saw of every
//! trial, its outcome class and whether it raised an alarm, and the caller
//! checks that against the program's own run of the same inputs: a replay
//! that drifts from the program fails the run instead of describing work
//! the program no longer does. Helpers the program keeps private
//! (acknowledgement, declaration normalization) are restated here and
//! count as unattributed glue.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use acto_repro::acto::campaign::apply_op;
use acto_repro::acto::compose::{plan_composed, ComposedOp};
use acto_repro::acto::fuzz::{Corpus, CoverageFeature, CoverageMap, ExecRecord, FuzzInput};
use acto_repro::acto::oracles::{
    self, consistency_check, crash_consistency_check, differential_normal, differential_rollback,
    error_checks, masked_snapshot, recovery_check, transition_occurred, OracleContext,
    StateSnapshot,
};
use acto_repro::acto::parallel::{declaration_after_prefix, DEFAULT_SEGMENT_OPS};
use acto_repro::acto::{plan_campaign, CampaignConfig, Expectation, PlannedOp};
use acto_repro::crdspec::{self, Value};
use acto_repro::managed::Health;
use acto_repro::operators::{
    self, operator_by_name, Composition, CompositionCheckpoint, Instance, InstanceCheckpoint,
    CONVERGE_MAX, CONVERGE_RESET,
};
use acto_repro::simkube::FaultPlan;

use crate::trace::Tracer;

pub const PLAN: &str = "campaign.plan";
pub const DEPLOY: &str = "framework.deploy";
pub const RESTORE: &str = "framework.restore";
pub const SUBMIT: &str = "api.submit";
pub const CONVERGE: &str = "cluster.converge";
pub const SNAPSHOT: &str = "oracles.snapshot";
pub const CONSISTENCY: &str = "oracles.consistency";
pub const DIFFERENTIAL: &str = "oracles.differential";
pub const CRASH: &str = "oracles.crash";
pub const RECOVERY: &str = "oracles.recovery";
pub const COMPOSITION: &str = "oracles.composition";
pub const COVERAGE: &str = "fuzz.coverage";
pub const CORPUS: &str = "fuzz.corpus";
pub const RECOVER: &str = "persist.recover";

/// The oracle layers, whose alarm counts the replay keeps.
pub const ORACLES: [&str; 5] = [CONSISTENCY, DIFFERENTIAL, CRASH, RECOVERY, COMPOSITION];

/// Downtime of an armed operator crash, as the fuzzer arms it.
const CRASH_DOWN_FOR: u64 = 5;

/// Counts the replay makes at the layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    /// Operations planned.
    pub planned: u64,
    /// Submissions the API refused.
    pub rejected: u64,
    /// Oracle calls that raised at least one alarm, per oracle layer.
    pub alarms: BTreeMap<&'static str, u64>,
    /// Coverage features seen for the first time.
    pub coverage_new: u64,
    /// Coverage features seen before.
    pub coverage_seen: u64,
    /// Serialized corpus size.
    pub corpus_bytes: u64,
    /// Wall time of each replayed fuzz exec, in milliseconds, one list per
    /// replayed fuzz run.
    pub exec_ms: Vec<Vec<f64>>,
}

/// A traced replay in progress.
#[derive(Default)]
pub struct Replay {
    pub t: Tracer,
    pub c: Counts,
}

/// Drops empty objects and arrays, as the runners do before comparing a
/// declaration with the running one.
fn normalized(v: &Value) -> Value {
    fn strip(v: &Value) -> Option<Value> {
        match v {
            Value::Object(m) => {
                let kept: Value = Value::Object(
                    m.iter()
                        .filter_map(|(k, val)| strip(val).map(|sv| (k.clone(), sv)))
                        .collect(),
                );
                match &kept {
                    Value::Object(inner) if inner.is_empty() => None,
                    _ => Some(kept),
                }
            }
            Value::Array(a) if a.is_empty() => None,
            other => Some(other.clone()),
        }
    }
    strip(v).unwrap_or(Value::Null)
}

/// Converts a schema path into the value path it addresses (`@items`
/// becomes index 0, `@values` addresses the map itself).
fn value_path(schema_path: &crdspec::Path) -> crdspec::Path {
    let steps = schema_path
        .steps()
        .iter()
        .filter_map(|step| match step {
            crdspec::Step::Key(k) if k == "@items" => Some(crdspec::Step::Index(0)),
            crdspec::Step::Key(k) if k == "@values" => None,
            other => Some(other.clone()),
        })
        .collect();
    crdspec::Path::from_steps(steps)
}

/// Whether the operator has acknowledged the CR's current generation.
fn acknowledged(instance: &Instance) -> bool {
    let Some(obj) = instance.cluster.api().get(&instance.cr_key()) else {
        return true;
    };
    let generation = obj.meta.generation as i64;
    obj.data
        .status_value()
        .get("observedGeneration")
        .and_then(Value::as_i64)
        .is_some_and(|og| og >= generation)
}

fn healthy(instance: &Instance) -> bool {
    !matches!(instance.last_health, Health::Down(_))
        && !instance.operator_crashed()
        && acknowledged(instance)
        && instance.pod_failures().is_empty()
}

fn cr_id(instance: &Instance) -> String {
    format!(
        "{}/{}/{}",
        instance.operator().kind(),
        instance.namespace,
        instance.name
    )
}

/// What the replay saw of one trial: its outcome class (as
/// `TrialOutcome::class_name` names it) and whether it raised an alarm.
pub type TrialSig = (&'static str, bool);

const CONVERGED: &str = "converged";
const REJECTED_BY_API: &str = "rejected-by-api";
const REJECTED_BY_OPERATOR: &str = "rejected-by-operator";
const ERROR_STATE: &str = "error-state";

/// One operator's campaign context.
struct OpEnv {
    cfg: CampaignConfig,
    base: InstanceCheckpoint,
    refs: HashMap<String, Option<StateSnapshot>>,
    /// Properties already alarmed for causing no transition; each segment
    /// starts with none, as each of the runner's windowed runs does.
    no_transition: BTreeSet<crdspec::Path>,
}

/// The runners' regular error checks on a converged instance.
struct Checks {
    crashed: bool,
    down: bool,
    pods_failed: bool,
    stalled: bool,
    rejected: bool,
}

/// A finished fuzz sequence.
struct SeqOut {
    final_state: StateSnapshot,
    healthy: bool,
    converged: bool,
    trials: Vec<TrialSig>,
}

impl Replay {
    fn alarmed(&mut self, layer: &'static str, alarms: &[acto_repro::acto::Alarm]) {
        if !alarms.is_empty() {
            *self.c.alarms.entry(layer).or_default() += 1;
        }
    }

    /// Operator crash, system down, failed pods, unacknowledged
    /// declaration, operator refusal: the regular error checks, counted
    /// with the consistency oracle.
    fn checks(&mut self, instance: &Instance, since: u64) -> Checks {
        self.t.span(CONSISTENCY, || {
            let crashed = instance.operator_crashed();
            Checks {
                crashed,
                down: matches!(instance.last_health, Health::Down(_)),
                pods_failed: !instance.pod_failures().is_empty(),
                stalled: !crashed && !acknowledged(instance),
                rejected: oracles::operator_rejected(instance, since),
            }
        })
    }

    /// Classifies a submitted trial as the runners do, running the error
    /// checks where they do. Returns the outcome class and whether the
    /// classification itself raised an alarm (an exhausted convergence
    /// budget and a stalled operator always do).
    fn classify(
        &mut self,
        instance: &Instance,
        checks: &Checks,
        converged: bool,
        writes_before: u64,
        t_start: u64,
    ) -> TrialSig {
        if checks.crashed || (converged && (checks.down || checks.pods_failed)) {
            let alarms = self.t.span(CONSISTENCY, || error_checks(instance, t_start));
            self.alarmed(CONSISTENCY, &alarms);
            let class = if checks.crashed {
                "operator-crash"
            } else {
                ERROR_STATE
            };
            (class, !alarms.is_empty())
        } else if !converged {
            let writing = instance.operator_writes() > writes_before;
            (if writing { "livelock" } else { "stuck" }, true)
        } else if checks.stalled {
            (ERROR_STATE, true)
        } else if checks.rejected {
            (REJECTED_BY_OPERATOR, false)
        } else {
            (CONVERGED, false)
        }
    }

    fn restore(&mut self, cfg: &CampaignConfig, cp: &InstanceCheckpoint) -> Instance {
        self.t.span(RESTORE, || {
            Instance::from_checkpoint(operator_by_name(cfg.operator()), cfg.bugs.clone(), cp)
        })
    }

    fn checkpoint(&mut self, instance: &Instance) -> InstanceCheckpoint {
        self.t.span(RESTORE, || instance.checkpoint())
    }

    fn submit(&mut self, instance: &mut Instance, spec: Value) -> bool {
        let ok = self.t.span(SUBMIT, || instance.submit(spec)).is_ok();
        if !ok {
            self.c.rejected += 1;
        }
        ok
    }

    fn converge(&mut self, instance: &mut Instance) -> bool {
        self.t
            .span(CONVERGE, || instance.converge(CONVERGE_RESET, CONVERGE_MAX))
    }

    fn snapshot(&mut self, instance: &Instance) -> StateSnapshot {
        self.t.span(SNAPSHOT, || masked_snapshot(instance))
    }

    fn plan(&mut self, cfg: &CampaignConfig) -> Vec<PlannedOp> {
        let op = operator_by_name(cfg.operator());
        let plan = self.t.span(PLAN, || {
            plan_campaign(
                &op.schema(),
                Some(&op.ir()),
                cfg.mode,
                &op.initial_cr(),
                &op.images(),
                operators::INSTANCE,
            )
        });
        self.c.planned += plan.len() as u64;
        plan
    }

    fn deploy_base(&mut self, cfg: &CampaignConfig) -> InstanceCheckpoint {
        let instance = self
            .t
            .span(DEPLOY, || {
                Instance::deploy_on(
                    operator_by_name(cfg.operator()),
                    cfg.bugs.clone(),
                    cfg.platform,
                    cfg.topology.clone(),
                )
            })
            .expect("base deploy of a registry operator");
        self.checkpoint(&instance)
    }

    /// Restores the base and re-declares `last_good`: a campaign reset.
    fn reset(&mut self, env: &OpEnv, last_good: &Value) -> Instance {
        let mut instance = self.restore(&env.cfg, &env.base);
        self.submit(&mut instance, last_good.clone());
        self.converge(&mut instance);
        instance
    }

    // -----------------------------------------------------------------
    // Single-operator campaign
    // -----------------------------------------------------------------

    /// Replays one evaluation campaign: plan, base deploy, then every
    /// segment of [`DEFAULT_SEGMENT_OPS`] operations from its prefix
    /// checkpoint, as the work-stealing runner executes it. Returns what it
    /// saw of every trial, in plan order.
    pub fn campaign(&mut self, cfg: &CampaignConfig) -> Vec<TrialSig> {
        let plan = self.plan(cfg);
        let plan_len = cfg.max_ops.map_or(plan.len(), |m| plan.len().min(m));
        let base = self.deploy_base(cfg);
        let initial = operator_by_name(cfg.operator()).initial_cr();
        let mut env = OpEnv {
            cfg: cfg.clone(),
            base,
            refs: HashMap::new(),
            no_transition: BTreeSet::new(),
        };
        let mut trials = Vec::new();
        for skip in (0..plan_len).step_by(DEFAULT_SEGMENT_OPS) {
            let take = DEFAULT_SEGMENT_OPS.min(plan_len - skip);
            let mut instance = if skip == 0 {
                self.restore(cfg, &env.base)
            } else {
                let mut prefix = self.restore(cfg, &env.base);
                let jump = declaration_after_prefix(&initial, &plan, skip);
                if self.submit(&mut prefix, jump) {
                    self.converge(&mut prefix);
                }
                let cp = self.checkpoint(&prefix);
                drop(prefix);
                self.restore(cfg, &cp)
            };
            let mut last_good = instance.cr_spec();
            env.no_transition.clear();
            for planned in &plan[skip..skip + take] {
                trials.extend(self.campaign_trial(
                    &mut env,
                    &mut instance,
                    &mut last_good,
                    planned,
                ));
            }
        }
        trials
    }

    /// One planned operation; `None` when it changes nothing and the
    /// runner skips it.
    fn campaign_trial(
        &mut self,
        env: &mut OpEnv,
        instance: &mut Instance,
        last_good: &mut Value,
        planned: &PlannedOp,
    ) -> Option<TrialSig> {
        let current = instance.cr_spec();
        let mut spec = current.clone();
        apply_op(&mut spec, planned);
        if normalized(&spec) == normalized(&current) {
            return None;
        }
        let id = cr_id(instance);
        let pre = self.snapshot(instance);
        let writes_before = instance.operator_writes();
        let t_start = instance.cluster.now();
        if !self.submit(instance, spec.clone()) {
            return Some((REJECTED_BY_API, false));
        }
        let converged = self.converge(instance);
        let post = self.snapshot(instance);
        let checks = self.checks(instance, t_start);
        let (class, mut alarmed) =
            self.classify(instance, &checks, converged, writes_before, t_start);

        if class == CONVERGED {
            alarmed |= matches!(instance.last_health, Health::Degraded(_));
            let previous = last_good.get_path(&value_path(&planned.property)).cloned();
            let ctx = OracleContext {
                property: &planned.property,
                declared: &planned.value,
                declaration: &spec,
                pre_state: &pre,
                post_state: &post,
                cr_id: &id,
            };
            let restoration = planned.scenario == "restore-after-misoperation"
                || planned.scenario == "restore-dependency";
            let transitioned = self.t.span(CONSISTENCY, || transition_occurred(&ctx));
            if planned.expectation == Expectation::NormalTransition && !restoration && !transitioned
            {
                alarmed |= env.no_transition.insert(planned.property.clone());
            } else {
                let alarms = self
                    .t
                    .span(CONSISTENCY, || consistency_check(&ctx, previous.as_ref()));
                self.alarmed(CONSISTENCY, &alarms);
                alarmed |= !alarms.is_empty();
                if env.cfg.differential {
                    let key = crdspec::json::to_string(&spec);
                    let fresh = match env.refs.get(&key) {
                        Some(hit) => hit.clone(),
                        None => {
                            let mut fresh = self.restore(&env.cfg, &env.base);
                            let state = if self.submit(&mut fresh, spec.clone()) {
                                self.converge(&mut fresh);
                                Some(self.snapshot(&fresh))
                            } else {
                                None
                            };
                            env.refs.insert(key, state.clone());
                            state
                        }
                    };
                    if let Some(fresh) = &fresh {
                        let alarms = self
                            .t
                            .span(DIFFERENTIAL, || differential_normal(&post, fresh));
                        self.alarmed(DIFFERENTIAL, &alarms);
                        alarmed |= !alarms.is_empty();
                    }
                }
            }
            *last_good = spec;
            if alarmed {
                *instance = self.reset(env, last_good);
            }
        } else if class == REJECTED_BY_OPERATOR {
            self.submit(instance, last_good.clone());
            self.converge(instance);
        } else {
            // Error-state recovery: roll back and compare.
            let rollback_ok = self.submit(instance, last_good.clone());
            self.converge(instance);
            let ok = self.t.span(CONSISTENCY, || healthy(instance));
            let after = self.snapshot(instance);
            let recovered = rollback_ok && {
                let alarms = self
                    .t
                    .span(RECOVERY, || differential_rollback(&pre, &after, ok));
                self.alarmed(RECOVERY, &alarms);
                alarms.is_empty()
            };
            if !recovered {
                alarmed = true;
                *instance = self.reset(env, last_good);
            }
        }
        Some((class, alarmed))
    }

    // -----------------------------------------------------------------
    // Composed campaign
    // -----------------------------------------------------------------

    /// Replays the composed campaign segment by segment. Returns what it
    /// saw of every trial, in plan order.
    pub fn composed(&mut self, cfg: &CampaignConfig) -> Vec<TrialSig> {
        let plan: Vec<ComposedOp> = self
            .t
            .span(PLAN, || plan_composed(cfg))
            .expect("composed plan of registry operators");
        self.c.planned += plan.len() as u64;
        let plan_len = cfg.max_ops.map_or(plan.len(), |m| plan.len().min(m));
        let build = || cfg.operators.iter().map(|n| operator_by_name(n)).collect();
        let mut base_comp = self
            .t
            .span(DEPLOY, || {
                Composition::deploy_on(build(), cfg.bugs.clone(), cfg.platform, None)
            })
            .expect("composed base deploy");
        let base = self.t.span(RESTORE, || base_comp.checkpoint());
        drop(base_comp);
        let initial: Vec<Value> = cfg
            .operators
            .iter()
            .map(|n| operator_by_name(n).initial_cr())
            .collect();
        let mut trials = Vec::new();
        for skip in (0..plan_len).step_by(DEFAULT_SEGMENT_OPS) {
            let take = DEFAULT_SEGMENT_OPS.min(plan_len - skip);
            let start: CompositionCheckpoint = if skip == 0 {
                base.clone()
            } else {
                let mut prefix = self.restore_comp(cfg, &base);
                let mut changed = false;
                for (member, init) in initial.iter().enumerate() {
                    let mut jump = init.clone();
                    for c in plan[..skip].iter().filter(|c| c.member == member) {
                        apply_op(&mut jump, &c.op);
                    }
                    let current = prefix.with_member(member, |m| m.cr_spec());
                    if normalized(&jump) != normalized(&current) {
                        changed |= self.submit_comp(&mut prefix, member, jump);
                    }
                }
                if changed {
                    self.converge_comp(&mut prefix);
                }
                let _ = prefix.drain_interference();
                self.t.span(RESTORE, || prefix.checkpoint())
            };
            let mut comp = self.restore_comp(cfg, &start);
            let mut current: Vec<Value> = (0..comp.member_count())
                .map(|i| comp.with_member(i, |m| m.cr_spec()))
                .collect();
            let mut last_good = current.clone();
            let carried = comp.drain_interference();
            if skip == 0 && !carried.is_empty() {
                // Deploy-time interference is the campaign's first trial.
                let healths = member_healths(&comp);
                let alarms = self.t.span(COMPOSITION, || {
                    oracles::composition_check(&comp, &carried, 0, &healths, &BTreeSet::new())
                });
                self.alarmed(COMPOSITION, &alarms);
                let unhealthy = comp.members().iter().any(|m| !m.last_health.is_healthy());
                let class = if unhealthy { ERROR_STATE } else { CONVERGED };
                trials.push((class, !alarms.is_empty()));
            }
            for planned in &plan[skip..skip + take] {
                trials.extend(self.composed_trial(
                    &mut comp,
                    &mut current,
                    &mut last_good,
                    planned,
                ));
            }
        }
        trials
    }

    fn restore_comp(&mut self, cfg: &CampaignConfig, cp: &CompositionCheckpoint) -> Composition {
        self.t.span(RESTORE, || {
            let ops = cfg.operators.iter().map(|n| operator_by_name(n)).collect();
            Composition::from_checkpoint(ops, &cfg.bugs, cp)
        })
    }

    fn submit_comp(&mut self, comp: &mut Composition, member: usize, spec: Value) -> bool {
        let ok = self.t.span(SUBMIT, || comp.submit(member, spec)).is_ok();
        if !ok {
            self.c.rejected += 1;
        }
        ok
    }

    fn converge_comp(&mut self, comp: &mut Composition) -> bool {
        self.t
            .span(CONVERGE, || comp.converge(CONVERGE_RESET, CONVERGE_MAX))
    }

    /// One planned composed operation; `None` when it changes nothing and
    /// the runner skips it.
    fn composed_trial(
        &mut self,
        comp: &mut Composition,
        current: &mut [Value],
        last_good: &mut [Value],
        planned: &ComposedOp,
    ) -> Option<TrialSig> {
        let m = planned.member;
        let mut spec = current[m].clone();
        apply_op(&mut spec, &planned.op);
        if normalized(&spec) == normalized(&current[m]) {
            return None;
        }
        let healths_before = member_healths(comp);
        let unschedulable_before = self
            .t
            .span(COMPOSITION, || oracles::unschedulable_pods(comp));
        let writes_before = comp.with_member(m, |mm| mm.operator_writes());
        let t_start = comp.now();
        if !self.submit_comp(comp, m, spec.clone()) {
            let _ = comp.drain_interference();
            return Some((REJECTED_BY_API, false));
        }
        current[m] = spec.clone();
        let converged = self.converge_comp(comp);
        let drained = comp.drain_interference();
        let alarms = self.t.span(COMPOSITION, || {
            oracles::composition_check(comp, &drained, m, &healths_before, &unschedulable_before)
        });
        self.alarmed(COMPOSITION, &alarms);
        let composition_alarmed = !alarms.is_empty();
        let (class, mut alarmed) = comp.with_member(m, |mm| {
            let checks = self.checks(mm, t_start);
            self.classify(mm, &checks, converged, writes_before, t_start)
        });
        if class == CONVERGED {
            alarmed |= matches!(comp.members()[m].last_health, Health::Degraded(_));
        }
        alarmed |= composition_alarmed;
        if class == CONVERGED {
            last_good[m] = spec;
        } else {
            let _ = self.submit_comp(comp, m, last_good[m].clone());
            self.converge_comp(comp);
            current[m] = last_good[m].clone();
            let rb_drained = comp.drain_interference();
            let alarms = self.t.span(COMPOSITION, || {
                oracles::composition_check(
                    comp,
                    &rb_drained,
                    m,
                    &healths_before,
                    &unschedulable_before,
                )
            });
            self.alarmed(COMPOSITION, &alarms);
            alarmed |= !alarms.is_empty();
        }
        Some((class, alarmed))
    }

    // -----------------------------------------------------------------
    // Fuzz execs
    // -----------------------------------------------------------------

    /// Replays recorded fuzz execs in order: each forks the base
    /// checkpoint, runs its sequence, checks crash consistency against the
    /// uninterrupted reference when a crash is armed, and feeds coverage.
    /// `campaign` is the fuzz run's campaign configuration; the inputs come
    /// from the records. Returns what it saw of every exec's trials, one
    /// list per record.
    pub fn fuzz(
        &mut self,
        campaign: &CampaignConfig,
        records: &[ExecRecord],
        corpus: &Corpus,
    ) -> Vec<Vec<TrialSig>> {
        let pool = self.plan(campaign);
        let base = self.deploy_base(campaign);
        let mut refs: HashMap<Vec<usize>, SeqOut> = HashMap::new();
        let mut coverage = CoverageMap::new();
        let mut batch = CoverageMap::new();
        let mut exec_ms = Vec::with_capacity(records.len());
        let mut execs = Vec::with_capacity(records.len());
        for (i, record) in records.iter().enumerate() {
            let start = Instant::now();
            let input: &FuzzInput = &record.input;
            let mut run = self.sequence(
                campaign,
                &base,
                &pool,
                &input.ops,
                &input.faults,
                input.crash,
            );
            let mut features: Vec<CoverageFeature> = run
                .trials
                .iter()
                .map(|&(class, _)| CoverageFeature::Outcome(class))
                .collect();
            if let (Some((_, k)), true) = (input.crash, input.faults.is_empty()) {
                if !refs.contains_key(&input.ops) {
                    let reference = self.sequence(
                        campaign,
                        &base,
                        &pool,
                        &input.ops,
                        &FaultPlan::default(),
                        None,
                    );
                    refs.insert(input.ops.clone(), reference);
                }
                let reference = &refs[&input.ops];
                let ok = run.healthy || !reference.healthy;
                let converged = run.converged || !reference.converged;
                let alarms = self.t.span(CRASH, || {
                    crash_consistency_check(
                        k,
                        &reference.final_state,
                        &run.final_state,
                        ok,
                        converged,
                    )
                });
                self.alarmed(CRASH, &alarms);
                let (verdict, class) = if alarms.is_empty() {
                    ("consistent", CONVERGED)
                } else {
                    ("diverged", ERROR_STATE)
                };
                features.push(CoverageFeature::CrashBoundary(k, verdict));
                run.trials.push((class, !alarms.is_empty()));
            }
            features.extend(record.novel.iter().copied());
            let fresh = self.t.span(COVERAGE, || batch.observe_all(&features));
            self.c.coverage_new += fresh.len() as u64;
            self.c.coverage_seen += (features.len() - fresh.len()) as u64;
            if (i + 1) % crate::workloads::FUZZ_BATCH == 0 || i + 1 == records.len() {
                self.t.span(COVERAGE, || coverage.merge(&batch));
                batch = CoverageMap::new();
            }
            exec_ms.push(start.elapsed().as_secs_f64() * 1e3);
            execs.push(run.trials);
        }
        self.c.exec_ms.push(exec_ms);
        std::hint::black_box(self.t.span(COVERAGE, || coverage.digest()));
        let text = self.t.span(CORPUS, || corpus.to_json_string());
        self.c.corpus_bytes = text.len() as u64;
        let parsed = self.t.span(CORPUS, || Corpus::from_json_str(&text));
        assert!(parsed.is_ok(), "corpus does not parse back");
        execs
    }

    /// Runs one op sequence from the base checkpoint, as a fuzz exec does.
    fn sequence(
        &mut self,
        cfg: &CampaignConfig,
        base: &InstanceCheckpoint,
        pool: &[PlannedOp],
        ops: &[usize],
        faults: &FaultPlan,
        crash: Option<(usize, u32)>,
    ) -> SeqOut {
        let mut instance = self.restore(cfg, base);
        let id = cr_id(&instance);
        let mut trials: Vec<TrialSig> = Vec::new();
        if !faults.is_empty() {
            let pre = self.snapshot(&instance);
            let horizon = faults.horizon();
            instance.cluster.install_fault_plan(faults.clone());
            self.t.span(CONVERGE, || instance.advance(horizon));
            let converged = self.converge(&mut instance);
            let ok = self.t.span(CONSISTENCY, || healthy(&instance));
            let after = self.snapshot(&instance);
            let alarms = self
                .t
                .span(RECOVERY, || recovery_check(&pre, &after, ok, converged));
            self.alarmed(RECOVERY, &alarms);
            let class = if alarms.is_empty() {
                CONVERGED
            } else {
                ERROR_STATE
            };
            trials.push((class, !alarms.is_empty()));
        }
        let mut last_good = instance.cr_spec();
        for (pos, &op_index) in ops.iter().enumerate() {
            if pool.is_empty() {
                break;
            }
            let planned = &pool[op_index % pool.len()];
            if let Some((crash_pos, k)) = crash {
                if crash_pos == pos {
                    instance
                        .cluster
                        .api_mut()
                        .arm_operator_crash(k, CRASH_DOWN_FOR);
                }
            }
            let current = instance.cr_spec();
            let mut spec = current.clone();
            apply_op(&mut spec, planned);
            if normalized(&spec) == normalized(&current) {
                continue;
            }
            let pre = self.snapshot(&instance);
            let writes_before = instance.operator_writes();
            let t_start = instance.cluster.now();
            if !self.submit(&mut instance, spec.clone()) {
                trials.push((REJECTED_BY_API, false));
                continue;
            }
            let converged = self.converge(&mut instance);
            let post = self.snapshot(&instance);
            let checks = self.checks(&instance, t_start);
            let (class, mut alarmed) =
                self.classify(&instance, &checks, converged, writes_before, t_start);
            if class == CONVERGED {
                alarmed |= matches!(instance.last_health, Health::Degraded(_));
                let previous = last_good.get_path(&value_path(&planned.property)).cloned();
                let ctx = OracleContext {
                    property: &planned.property,
                    declared: &planned.value,
                    declaration: &spec,
                    pre_state: &pre,
                    post_state: &post,
                    cr_id: &id,
                };
                let transitioned = self.t.span(CONSISTENCY, || transition_occurred(&ctx));
                if planned.expectation != Expectation::NormalTransition || transitioned {
                    let alarms = self
                        .t
                        .span(CONSISTENCY, || consistency_check(&ctx, previous.as_ref()));
                    self.alarmed(CONSISTENCY, &alarms);
                    alarmed |= !alarms.is_empty();
                }
                last_good = spec;
            }
            trials.push((class, alarmed));
        }
        let converged = self.converge(&mut instance);
        let ok = self.t.span(CONSISTENCY, || healthy(&instance));
        let final_state = self.snapshot(&instance);
        SeqOut {
            final_state,
            healthy: ok,
            converged,
            trials,
        }
    }
}

fn member_healths(comp: &Composition) -> Vec<Health> {
    comp.members()
        .iter()
        .map(|m| m.last_health.clone())
        .collect()
}
