//! Types shared by the workloads: one iteration's result, the
//! deterministic outputs each checked unit produces, and their digest.

use adversary::MempoolStats;
use metrics::LatencyHist;
use scenario::{JobSpec, Scenario};
use schedulers::{ColoringPolicy, EpochPlan, RunReport, Scheduler, SchedulerKind};
use sharding_core::{Round, Transaction, TxnId};
use std::time::Instant;

use crate::trace;

/// One checked unit of a workload (a grid cell, a width, a campaign
/// job): its deterministic outputs and whether its own checks passed.
#[derive(Debug, Clone)]
pub struct Unit {
    pub name: String,
    pub digest: u64,
    /// Unit-level checks (expected rows, sim ≡ net, reshard audits).
    pub ok: bool,
    pub generated: u64,
    pub committed: u64,
    pub avg_queue: f64,
    pub max_pending: u64,
    pub messages: u64,
    pub max_message_bytes: u64,
    /// Exact commit latencies in rounds, sorted, when the unit exposes
    /// its commit log.
    pub latencies: Vec<u64>,
    /// The metrics plane's latency histogram, when it does not.
    pub hist: Option<LatencyHist>,
}

impl Unit {
    /// A unit from a run report and its exact latencies.
    pub fn from_report(name: String, r: &RunReport, latencies: Vec<u64>, digest: u64) -> Unit {
        Unit {
            name,
            digest,
            ok: true,
            generated: r.generated,
            committed: r.committed,
            avg_queue: r.avg_queue_per_shard,
            max_pending: r.max_total_pending,
            messages: r.messages,
            max_message_bytes: r.max_message_bytes,
            latencies,
            hist: None,
        }
    }
}

/// One iteration of a workload.
#[derive(Debug, Clone)]
pub struct Iter {
    /// Work before the first round.
    pub setup_s: f64,
    /// The timed rounds (and the report they end in).
    pub run_s: f64,
    /// Simulated rounds in the timed region.
    pub rounds: u64,
    pub units: Vec<Unit>,
}

/// A workload: set up and run once per call, traced or not.
///
/// A workload seed stands for several input variants (variant 0 uses
/// the seed itself, see [`variant_seed`]); iterations cycle through
/// them, so each run measures more than one draw of the inputs.
pub trait Workload {
    /// Number of input variants per seed.
    fn variants(&self) -> usize;

    /// Runs one iteration on input variant `variant`. With tracing on,
    /// layer calls are recorded as spans of the current [`trace`]
    /// session.
    fn iterate(&mut self, variant: usize, traced: bool) -> Iter;

    /// Recorded digest of each variant's outputs at the default seed
    /// (FNV-1a over the per-unit digests, in unit order).
    fn expected(&self) -> &'static [u64];

    /// Per-layer metrics from a traced session of this workload (its
    /// traced iterations are `iters`). May run extra layer probes.
    fn layers(&mut self, trace: &trace::Trace, iters: &[Iter], out: &mut Metrics);
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The seed of input variant `v` of workload seed `seed`: the seed
/// itself for variant 0, a SplitMix64 step away for the others.
pub fn variant_seed(seed: u64, v: usize) -> u64 {
    if v == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Scenario files hold seeds as decimal integers; keep them readable.
    (z ^ (z >> 31)) % 1_000_000_007
}

/// 64-bit FNV-1a, for output digests.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Fnv {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Feeds the deterministic fields of `r` into `h`: the counts, the
/// queue and latency summaries, messages, faults and the latency
/// histogram. Wall-clock fields do not exist in a report.
pub fn hash_report(h: &mut Fnv, r: &RunReport) {
    h.bytes(r.scheduler.name().as_bytes());
    for v in [
        r.rounds,
        r.generated,
        r.committed,
        r.aborted,
        r.pending_at_end,
        r.max_total_pending,
        r.max_latency,
        r.epochs,
        r.max_epoch_len,
        r.messages,
        r.max_message_bytes,
        r.faults.crashes,
        r.faults.dropped,
        r.faults.duplicated,
        r.faults.byz_flips,
        r.latency_hist.total(),
        r.latency_hist.overflow(),
    ] {
        h.u64(v);
    }
    h.f64(r.avg_queue_per_shard).f64(r.avg_latency);
    h.bytes(format!("{:?}", r.verdict).as_bytes());
    for &c in r.latency_hist.counts() {
        h.u64(c);
    }
    if let Some(m) = &r.metrics {
        h.u64(m.hist.count())
            .u64(m.lat_p50())
            .u64(m.lat_p99())
            .u64(m.lat_p999());
        for &c in &m.per_shard_commits {
            h.u64(c);
        }
    }
}

pub fn hash_mempool(h: &mut Fnv, s: &MempoolStats, distinct: u64) {
    h.u64(s.depth_max)
        .u64(s.admitted)
        .u64(s.deferred)
        .u64(s.evicted)
        .u64(distinct);
}

/// Hashes a commit log.
pub fn hash_log(h: &mut Fnv, log: &[(Round, TxnId)]) {
    h.u64(log.len() as u64);
    for &(r, t) in log {
        h.u64(r.raw()).u64(t.raw());
    }
}

/// Generation round per transaction id, filled while the benchmark
/// feeds batches, so commit latencies can be read off the commit log.
#[derive(Debug, Default)]
pub struct GenRounds(Vec<(u64, u64)>);

impl GenRounds {
    pub fn note(&mut self, batch: &[Transaction]) {
        self.0
            .extend(batch.iter().map(|t| (t.id.raw(), t.generated.raw())));
    }

    /// Commit latency (rounds) of every logged commit, sorted.
    pub fn latencies(mut self, log: &[(Round, TxnId)]) -> Vec<u64> {
        self.0.sort_unstable();
        let mut lat: Vec<u64> = log
            .iter()
            .map(|&(r, t)| {
                let i = self
                    .0
                    .binary_search_by_key(&t.raw(), |e| e.0)
                    .expect("every committed transaction was fed by the benchmark");
                r.raw() - self.0[i].1
            })
            .collect();
        lat.sort_unstable();
        lat
    }
}

/// Parses generated scenario text into its jobs.
pub fn jobs(text: &str, origin: &str) -> Vec<JobSpec> {
    Scenario::parse_str(text, origin)
        .and_then(|s| s.jobs())
        .unwrap_or_else(|e| panic!("generated scenario does not parse: {e}"))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The BDS coloring policy with its planning calls recorded as
/// `conflict.plan` spans and counted. Plans exactly as the policy
/// `BdsSim::new` builds, so reports do not change.
pub struct TimedPlan(pub ColoringPolicy);

impl TimedPlan {
    pub fn bds(spec: &JobSpec) -> Box<dyn Scheduler> {
        Box::new(TimedPlan(ColoringPolicy::new(
            SchedulerKind::Bds,
            spec.coloring,
            spec.accounts,
        )))
    }
}

impl Scheduler for TimedPlan {
    fn kind(&self) -> SchedulerKind {
        self.0.kind()
    }

    fn plan_epoch(&mut self, epoch: u64, batch: &[Transaction]) -> EpochPlan {
        let plan = {
            let _g = trace::span("conflict.plan");
            self.0.plan_epoch(epoch, batch)
        };
        trace::add("conflict.epochs", 1);
        trace::add("conflict.txns", batch.len() as u64);
        trace::add("conflict.colors", plan.num_slots as u64);
        trace::max("conflict.batch_max", batch.len() as u64);
        trace::max("conflict.colors_max", plan.num_slots as u64);
        plan
    }
}
