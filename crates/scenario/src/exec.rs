//! The parallel sweep executor: a fixed pool of `std::thread` workers
//! claiming jobs by atomic index and reporting results over a channel.
//!
//! There is no work stealing and no shared mutable simulation state:
//! each job is a pure function of its [`JobSpec`] (all randomness flows
//! from the spec's seeds), workers claim disjoint indices, and the merge
//! step re-sorts outcomes by index — so reports are byte-identical for
//! any worker count.

use crate::spec::JobSpec;
use adversary::{Adversary, MempoolStats, ReshardSource, RoundSource};
use runtime::{run_net, EngineKind, NetRun, Protocol};
use schedulers::baseline::{FcfsConfig, FcfsSim};
use schedulers::bds::{BdsConfig, BdsSim};
use schedulers::fds::{FdsConfig, FdsSim};
use schedulers::history::check_cross_shard_order;
use schedulers::{NodeSim, ProtocolNode, RunReport, SchedulerKind};
use sharding_core::{AccountMap, ReshardPlan, Round, SystemConfig, Transaction, TxnId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The result of one executed job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The spec that produced this outcome.
    pub spec: JobSpec,
    /// The scheduler's run report.
    pub report: RunReport,
    /// Cross-shard serialization-order violations, when the spec asked
    /// for the check (`check-order = true`, FDS only).
    pub violations: Option<u64>,
    /// Ingestion-plane counters, when the spec ran the streaming
    /// mempool (`mempool = CAPACITY`).
    pub mempool: Option<MempoolStats>,
    /// Migration audit for reshard jobs: `(lost, duplicated)` committed
    /// transactions across the whole schedule — `(0, 0)` on every
    /// correct run. `None` for static jobs.
    pub reshard: Option<(u64, u64)>,
}

/// The workload a job drains: the streaming ingest pipeline for mempool
/// jobs, the per-round adversary otherwise. A reshard job's producer is
/// built against the *initial* active shard count (only active shards
/// own accounts at round 0), then wrapped so homes and groupings follow
/// the plan's live placement version.
fn job_source(
    spec: &JobSpec,
    sys: &SystemConfig,
    map: &AccountMap,
    plan: Option<ReshardPlan>,
) -> Box<dyn RoundSource> {
    let sys = SystemConfig {
        shards: spec.shards,
        ..sys.clone()
    };
    let adversary = || Adversary::new(&sys, map, spec.adversary_config());
    match (spec.ingest_pipeline(&sys, map), plan) {
        (Some(pipeline), Some(plan)) => Box::new(ReshardSource::new(pipeline, plan)),
        (None, Some(plan)) => Box::new(ReshardSource::new(adversary(), plan)),
        (Some(pipeline), None) => Box::new(pipeline),
        (None, None) => Box::new(adversary()),
    }
}

/// The BDS tunables a spec selects.
fn bds_config(spec: &JobSpec) -> BdsConfig {
    BdsConfig {
        coloring: spec.coloring,
        rotate_leader: spec.rotate_leader,
        ..BdsConfig::default()
    }
}

/// The FDS tunables a spec selects.
fn fds_config(spec: &JobSpec) -> FdsConfig {
    FdsConfig {
        epoch_scale: spec.epoch_scale,
        sublayers: spec.sublayers,
        reschedule: spec.reschedule,
        pipeline_window: spec.pipeline_window,
        coloring: spec.coloring,
        ..FdsConfig::default()
    }
}

/// Feeds the job's rounds from `source` into `step`. Returns every
/// transaction generated when the spec asks for the order check (empty
/// otherwise).
fn feed(
    spec: &JobSpec,
    source: &mut dyn RoundSource,
    mut step: impl FnMut(Vec<Transaction>),
) -> BTreeMap<TxnId, Transaction> {
    let mut all = BTreeMap::new();
    for r in 0..spec.rounds {
        let batch = source.next_round(Round(r));
        if spec.check_order {
            all.extend(batch.iter().map(|t| (t.id, t.clone())));
        }
        step(batch);
    }
    all
}

/// Runs `sim` over the job with its faults and metrics armed; returns
/// the report, the order-check violations and the migration audit.
fn run_sim<N: ProtocolNode>(
    mut sim: NodeSim<N>,
    spec: &JobSpec,
    source: &mut dyn RoundSource,
) -> (RunReport, Option<u64>, Option<(u64, u64)>) {
    sim.set_faults(&spec.fault_plan());
    if spec.metrics.enabled() {
        sim.enable_metrics();
    }
    let all = feed(spec, source, |batch| sim.step(batch));
    let violations = spec
        .check_order
        .then(|| check_cross_shard_order(sim.chains(), &all).len() as u64);
    let audit = (!spec.reshard.is_empty())
        .then(|| simnet::reshard_audit(sim.chains(), sim.committed_log()));
    (sim.finish(), violations, audit)
}

/// Runs one job to completion on the calling thread: `engine = net` jobs
/// on the networked runtime with one executor worker (the job pool
/// supplies the parallelism), the rest on the simulators. Both drain the
/// same workload source and inject the same fault plan.
pub fn run_job(spec: &JobSpec) -> JobOutcome {
    let sys = spec.system_config();
    let map = spec.account_map();
    // Reshard jobs provision the metric for the schedule's maximum
    // shard count (`sys.shards` == the plan's `s_max`).
    let metric = spec
        .metric
        .build(sys.shards)
        .expect("spec validated at plan time");
    let plan = spec.reshard_plan();
    let mut source = job_source(spec, &sys, &map, plan.clone());
    let (report, violations, reshard) = match (spec.engine, spec.scheduler) {
        (EngineKind::Net, kind) => {
            let protocol = match kind {
                SchedulerKind::Fds => Protocol::Fds(fds_config(spec)),
                SchedulerKind::Fcfs => unreachable!("rejected at plan time"),
                // BDS proper and every zoo policy share the epoch host.
                kind => Protocol::EpochHosted(kind, bds_config(spec)),
            };
            let run = NetRun {
                sys: &sys,
                map: &map,
                rounds: Round(spec.rounds),
                metric: metric.as_ref(),
                protocol,
                faults: &spec.fault_plan(),
                workers: 1,
                metrics: spec.metrics.enabled(),
                reshard: plan.as_ref(),
            };
            let out = run_net(&run, source.as_mut());
            (out.report, None, out.reshard_audit)
        }
        (_, SchedulerKind::Fds) => {
            let sim = FdsSim::new(&sys, &map, fds_config(spec), metric.as_ref());
            run_sim(sim, spec, source.as_mut())
        }
        (_, SchedulerKind::Fcfs) => {
            let fcfg = FcfsConfig {
                respect_capacity: spec.respect_capacity,
            };
            let mut sim = FcfsSim::new(&sys, fcfg);
            if spec.metrics.enabled() {
                sim.enable_metrics();
            }
            feed(spec, source.as_mut(), |batch| sim.step(batch));
            (sim.finish(), None, None)
        }
        // BDS proper and every zoo policy share the epoch host; the
        // factory is the single registration point.
        (_, kind) => {
            let bcfg = bds_config(spec);
            let policy = kind
                .epoch_policy(bcfg.coloring, sys.accounts, sys.shards)
                .expect("non-policy kinds have explicit arms above");
            let mut sim = BdsSim::with_policy(&sys, &map, bcfg, metric.as_ref(), policy);
            if let Some(plan) = &plan {
                sim.set_reshard(plan.clone());
            }
            run_sim(sim, spec, source.as_mut())
        }
    };
    JobOutcome {
        spec: spec.clone(),
        report,
        violations,
        mempool: source.stats(),
        reshard,
    }
}

/// Runs all jobs on a fixed pool of `threads` workers and returns the
/// outcomes in job-index order. `threads` is clamped to
/// `1..=specs.len()`. With `progress`, one line per finished job goes to
/// stderr (stderr only — report bytes are unaffected).
pub fn run_jobs(specs: &[JobSpec], threads: usize, progress: bool) -> Vec<JobOutcome> {
    if specs.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, specs.len());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();

    let mut slots: Vec<Option<JobOutcome>> = (0..specs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let done = &done;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let outcome = run_job(&specs[i]);
                if progress {
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "  [{finished}/{}] job {i} ({}): {}",
                        specs.len(),
                        specs[i].label(),
                        outcome.report.summary()
                    );
                }
                // The receiver outlives every worker inside this scope.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index produced an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Scenario;

    const TINY: &str = "
name = exec-tiny
scheduler = fcfs
shards = 4
accounts = 8
k = 2
nodes-per-shard = 4
faulty-per-shard = 1
rounds = 120
rho = 0.2
b = 4

[grid]
seed = 1, 2, 3, 4
";

    #[test]
    fn outcomes_come_back_in_index_order() {
        let jobs = Scenario::parse_str(TINY, "<t>").unwrap().jobs().unwrap();
        let outcomes = run_jobs(&jobs, 3, false);
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.spec.index, i);
            assert!(o.report.generated > 0);
        }
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let jobs = Scenario::parse_str(TINY, "<t>").unwrap().jobs().unwrap();
        let a = run_jobs(&jobs, 1, false);
        let b = run_jobs(&jobs, 4, false);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.report.summary(), y.report.summary());
        }
    }
}
