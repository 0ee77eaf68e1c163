//! `net_wide`: BDS on the networked engine (`runtime::run_net_sched`)
//! at 64 and 256 shards, uniform metric, k = 6, UniformRandom ρ = 0.15,
//! b = 8, with `min(2, nproc)` executor workers. Every report must equal
//! the simulator's on the same inputs, commit log included, with every
//! shard's chain verified.

use crate::common::{
    hash_log, hash_report, jobs, secs, variant_seed, Fnv, GenRounds, Iter, Metrics, Unit, Workload,
};
use crate::trace;
use adversary::Adversary;
use cluster::UniformMetric;
use parking_lot::Mutex;
use runtime::{run_lockstep, run_net_sched, NetHub, NetInbox, RoundGate};
use scenario::JobSpec;
use schedulers::{BdsConfig, BdsSim, RunReport, SchedulerKind};
use sharding_core::{Round, ShardId, TxnId};
use simnet::FaultPlan;
use std::time::Instant;

/// `(shards, rounds)`: the rounds give each width a similar share of
/// the wall time.
const WIDTHS: [(usize, u64); 2] = [(64, 2500), (256, 75)];

/// Input variants per seed.
const VARIANTS: usize = 4;

/// Digest of each variant's outputs at seed 42.
const EXPECTED: [u64; VARIANTS] = [
    0xde566f9b13cfb54e,
    0x9443bd417067c8c1,
    0xb2c309e5a3aaa9f0,
    0x37bb42e9918a3a44,
];

/// The simulator's outputs for one width: what the net engine must
/// reproduce.
struct Reference {
    digest: u64,
    log: Vec<(Round, TxnId)>,
    latencies: Vec<u64>,
}

pub struct NetWide {
    seed: u64,
    workers: usize,
    /// Per variant, per width: the spec and the simulator's outputs.
    refs: Vec<Vec<(JobSpec, Reference)>>,
}

fn width_text(seed: u64, shards: usize, rounds: u64) -> String {
    format!(
        "name = net-wide\nscheduler = bds\nengine = net\nmetric = uniform\n\
         shards = {shards}\naccounts = {shards}\nk = 6\nplacement = round-robin\n\
         rounds = {rounds}\nstrategy = uniform\nrho = 0.15\nb = 8\nseed = {seed}\n"
    )
}

fn bds_config(spec: &JobSpec) -> BdsConfig {
    BdsConfig {
        coloring: spec.coloring,
        rotate_leader: spec.rotate_leader,
        ..BdsConfig::default()
    }
}

fn digest(report: &RunReport, log: &[(Round, TxnId)]) -> u64 {
    let mut h = Fnv::new();
    hash_report(&mut h, report);
    hash_log(&mut h, log);
    h.finish()
}

/// Runs the simulator on `spec`: the reference the net engine must
/// match, and its wall time.
fn simulate(spec: &JobSpec) -> (Reference, f64) {
    let t = Instant::now();
    let sys = spec.system_config();
    let map = spec.account_map();
    let metric = spec.metric.build(sys.shards).expect("valid metric");
    let mut adversary = Adversary::new(&sys, &map, spec.adversary_config());
    let mut sim = BdsSim::with_metric(&sys, &map, bds_config(spec), metric.as_ref());
    let mut gen = GenRounds::default();
    for r in 0..spec.rounds {
        let batch = adversary.generate(Round(r));
        gen.note(&batch);
        sim.step(batch);
    }
    let log = sim.committed_log().to_vec();
    let report = sim.finish();
    let wall = secs(t);
    let reference = Reference {
        digest: digest(&report, &log),
        latencies: gen.latencies(&log),
        log,
    };
    (reference, wall)
}

impl NetWide {
    pub fn new(seed: u64, workers: usize) -> NetWide {
        let refs = (0..VARIANTS)
            .map(|v| {
                WIDTHS
                    .iter()
                    .map(|&(s, r)| {
                        let text = width_text(variant_seed(seed, v), s, r);
                        let spec = jobs(&text, "net_wide").remove(0);
                        let reference = simulate(&spec).0;
                        (spec, reference)
                    })
                    .collect()
            })
            .collect();
        NetWide {
            seed,
            workers,
            refs,
        }
    }
}

impl Workload for NetWide {
    fn variants(&self) -> usize {
        VARIANTS
    }

    fn iterate(&mut self, variant: usize, _traced: bool) -> Iter {
        let seed = variant_seed(self.seed, variant);
        let t = Instant::now();
        let inputs: Vec<_> = {
            let _g = trace::span("setup");
            WIDTHS
                .iter()
                .map(|&(s, r)| {
                    let spec = jobs(&width_text(seed, s, r), "net_wide").remove(0);
                    let sys = spec.system_config();
                    let map = spec.account_map();
                    let metric = spec.metric.build(sys.shards).expect("valid metric");
                    (spec, sys, map, metric)
                })
                .collect()
        };
        let setup_s = secs(t);

        let t = Instant::now();
        let mut outs = Vec::new();
        for (spec, sys, map, metric) in &inputs {
            let _g = trace::span(if spec.shards == 64 {
                "runtime.run.s64"
            } else {
                "runtime.run.s256"
            });
            outs.push(run_net_sched(
                sys,
                map,
                &spec.adversary_config(),
                Round(spec.rounds),
                metric.as_ref(),
                bds_config(spec),
                &FaultPlan::default(),
                SchedulerKind::Bds,
                self.workers,
                false,
            ));
        }
        let run_s = secs(t);

        let units = outs
            .into_iter()
            .zip(&self.refs[variant])
            .map(|(out, (spec, reference))| {
                let d = digest(&out.report, &out.committed_log);
                let mut unit = Unit::from_report(
                    format!("net s={}", spec.shards),
                    &out.report,
                    reference.latencies.clone(),
                    d,
                );
                unit.ok = d == reference.digest
                    && out.committed_log == reference.log
                    && out.chains_verified;
                unit
            })
            .collect();
        Iter {
            setup_s,
            run_s,
            rounds: WIDTHS.iter().map(|w| w.1).sum(),
            units,
        }
    }

    fn expected(&self) -> &'static [u64] {
        &EXPECTED
    }

    fn layers(&mut self, tr: &trace::Trace, iters: &[Iter], out: &mut Metrics) {
        let n = iters.len() as f64;
        for (i, &(s, rounds)) in WIDTHS.iter().enumerate() {
            let name = if s == 64 {
                "runtime.run.s64"
            } else {
                "runtime.run.s256"
            };
            let net_s = tr.total_ns(name) as f64 / 1e9 / n;
            out.put(
                format!("runtime.run_us_per_round.s{s}"),
                net_s * 1e6 / rounds as f64,
                "us",
            );
            // The simulator on the same inputs, timed next to the net runs.
            let sim_s = simulate(&self.refs[0][i].0).1;
            out.put(format!("runtime.net_over_sim.s{s}"), net_s / sim_s, "ratio");
        }
        let first = iters.first().expect("at least one traced iteration");
        let messages: u64 = first.units.iter().map(|u| u.messages).sum();
        out.put(
            "runtime.messages_per_round",
            messages as f64 / first.rounds as f64,
            "count",
        );
        probes(self.workers, out);
    }
}

/// Layer probes of the message plane and executor, measured on their
/// own: hub construction, draining idle inboxes, and lockstep rounds
/// whose step does nothing.
fn probes(workers: usize, out: &mut Metrics) {
    let metric = UniformMetric::new(256);
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let hub: NetHub<u64> = NetHub::new(&metric, |_| 8).expect("256 shards");
            std::hint::black_box(&hub);
            secs(t) * 1e3
        })
        .collect();
    out.put(
        "runtime.hub_build_ms.s256",
        crate::stats::median(&builds),
        "ms",
    );

    let hub: NetHub<u64> = NetHub::new(&metric, |_| 8).expect("256 shards");
    let mut inboxes: Vec<NetInbox<u64>> =
        (0..256).map(|i| NetInbox::new(&hub, ShardId(i))).collect();
    let mut buf = Vec::new();
    const DRAIN_ROUNDS: u64 = 50;
    let t = Instant::now();
    for round in 0..DRAIN_ROUNDS {
        for inbox in &mut inboxes {
            buf.clear();
            inbox.drain_into(round, &mut buf);
        }
    }
    out.put(
        "runtime.idle_drain_ns_per_inbox.s256",
        secs(t) * 1e9 / (256 * DRAIN_ROUNDS) as f64,
        "ns",
    );

    const SHARDS: usize = 64;
    const ROUNDS: u64 = 2000;
    let gate = RoundGate::new(SHARDS);
    let slots: Vec<Mutex<()>> = (0..SHARDS).map(|_| Mutex::new(())).collect();
    let t = Instant::now();
    run_lockstep(&gate, &slots, ROUNDS, workers, |_, _, _| {});
    out.put(
        "runtime.lockstep_noop_ns_per_shard_round",
        secs(t) * 1e9 / (SHARDS as u64 * ROUNDS) as f64,
        "ns",
    );
}
