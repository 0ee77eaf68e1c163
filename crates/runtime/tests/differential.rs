//! Cross-validation of the networked engine against the shared-memory
//! simulators: on identical seeded workloads and fault plans, a networked
//! run must reproduce the simulator's `RunReport` **byte for byte** —
//! counts, latencies (to the floating-point bit), queue series, message
//! and fault totals — and its commit log round for round. This is the
//! contract that makes `engine = net` interchangeable with `engine = sim`
//! in scenario files.

use adversary::{Adversary, AdversaryConfig, StrategyKind};
use cluster::{GridMetric, LineMetric, RingMetric, ShardMetric, UniformMetric};
use runtime::{run_net, NetOutcome, NetRun, Protocol};
use schedulers::bds::{BdsConfig, BdsSim};
use schedulers::fds::{FdsConfig, FdsSim};
use schedulers::{RunReport, SchedulerKind};
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, TxnId};
use simnet::FaultPlan;

/// A networked run of `protocol` with one worker per shard.
fn net_run(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    protocol: Protocol,
    faults: &FaultPlan,
) -> NetOutcome {
    let run = NetRun {
        sys,
        map,
        rounds,
        metric,
        protocol,
        faults,
        workers: sys.shards,
        metrics: false,
        reshard: None,
    };
    run_net(&run, &mut Adversary::new(sys, map, *adv))
}

fn system(shards: usize, k: usize) -> (SystemConfig, AccountMap) {
    let sys = SystemConfig {
        shards,
        accounts: shards,
        k_max: k,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    (sys, map)
}

fn adversary(seed: u64) -> AdversaryConfig {
    AdversaryConfig {
        rho: 0.06,
        burstiness: 4,
        strategy: StrategyKind::UniformRandom,
        seed,
        ..Default::default()
    }
}

/// Field-by-field report equality, with floats compared by bit pattern —
/// "byte-identical" means the CSV/JSONL renderings cannot differ either.
fn assert_reports_identical(net: &RunReport, sim: &RunReport, label: &str) {
    assert_eq!(net.generated, sim.generated, "{label}: generated");
    assert_eq!(net.committed, sim.committed, "{label}: committed");
    assert_eq!(net.aborted, sim.aborted, "{label}: aborted");
    assert_eq!(net.pending_at_end, sim.pending_at_end, "{label}: pending");
    assert_eq!(net.max_latency, sim.max_latency, "{label}: max_latency");
    assert_eq!(
        net.avg_latency.to_bits(),
        sim.avg_latency.to_bits(),
        "{label}: avg_latency bits ({} vs {})",
        net.avg_latency,
        sim.avg_latency
    );
    assert_eq!(
        net.avg_queue_per_shard.to_bits(),
        sim.avg_queue_per_shard.to_bits(),
        "{label}: avg_queue bits"
    );
    assert_eq!(
        net.max_total_pending, sim.max_total_pending,
        "{label}: max_total_pending"
    );
    assert_eq!(net.epochs, sim.epochs, "{label}: epochs");
    assert_eq!(
        net.max_epoch_len, sim.max_epoch_len,
        "{label}: max_epoch_len"
    );
    assert_eq!(net.messages, sim.messages, "{label}: messages");
    assert_eq!(
        net.max_message_bytes, sim.max_message_bytes,
        "{label}: max_message_bytes"
    );
    assert_eq!(net.verdict, sim.verdict, "{label}: verdict");
    assert_eq!(net.faults, sim.faults, "{label}: fault counters");
    assert_eq!(
        net.queue_series.samples(),
        sim.queue_series.samples(),
        "{label}: per-round queue series"
    );
}

/// Drives the BDS simulator by hand so the commit log is available.
fn sim_bds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: u64,
    metric: &dyn ShardMetric,
) -> (RunReport, Vec<(Round, TxnId)>) {
    let mut sim = BdsSim::with_metric(sys, map, BdsConfig::default(), metric);
    let mut a = Adversary::new(sys, map, *adv);
    for r in 0..rounds {
        sim.step(a.generate(Round(r)));
    }
    let log = sim.committed_log().to_vec();
    (sim.finish(), log)
}

fn sim_fds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: u64,
    metric: &dyn ShardMetric,
) -> (RunReport, Vec<(Round, TxnId)>) {
    let mut sim = FdsSim::new(sys, map, FdsConfig::default(), metric);
    let mut a = Adversary::new(sys, map, *adv);
    for r in 0..rounds {
        sim.step(a.generate(Round(r)));
    }
    let log = sim.committed_log().to_vec();
    (sim.finish(), log)
}

fn net_bds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: u64,
    metric: &dyn ShardMetric,
) -> NetOutcome {
    net_run(
        sys,
        map,
        adv,
        Round(rounds),
        metric,
        Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
        &FaultPlan::default(),
    )
}

#[test]
fn bds_uniform_matches_simulator_byte_for_byte() {
    let (sys, map) = system(8, 3);
    let adv = adversary(17);
    let metric = UniformMetric::new(8);
    let net = net_bds(&sys, &map, &adv, 900, &metric);
    let (sim, sim_log) = sim_bds(&sys, &map, &adv, 900, &metric);
    assert!(sim.committed > 0, "workload must be non-trivial");
    assert_reports_identical(&net.report, &sim, "bds/uniform");
    assert_eq!(net.committed_log, sim_log, "round-for-round commit log");
    assert!(net.chains_verified);
}

#[test]
fn bds_matches_simulator_on_every_metric_shape() {
    // The generalization this PR adds: the networked runtime is no
    // longer uniform-only. Line, ring, and grid all stretch the phase
    // gap to the diameter; the mirror must track that exactly.
    let (sys, map) = system(8, 3);
    let adv = adversary(23);
    let metrics: Vec<(&str, Box<dyn ShardMetric>)> = vec![
        ("line", Box::new(LineMetric::new(8))),
        ("ring", Box::new(RingMetric::new(8))),
        ("grid4x2", Box::new(GridMetric::new(4, 2))),
    ];
    for (name, metric) in &metrics {
        let net = net_bds(&sys, &map, &adv, 1200, metric.as_ref());
        let (sim, sim_log) = sim_bds(&sys, &map, &adv, 1200, metric.as_ref());
        assert_reports_identical(&net.report, &sim, &format!("bds/{name}"));
        assert_eq!(net.committed_log, sim_log, "bds/{name}: commit log");
        assert!(net.chains_verified, "bds/{name}");
    }
}

#[test]
fn bds_matches_simulator_across_thread_counts() {
    // "Thread count" for the networked engine is the shard count: every
    // shard is one OS thread. The mirror must hold at every scale.
    for shards in [2usize, 4, 8, 12] {
        let (sys, map) = system(shards, 2.min(shards));
        let adv = adversary(29 + shards as u64);
        let metric = UniformMetric::new(shards);
        let net = net_bds(&sys, &map, &adv, 600, &metric);
        let (sim, sim_log) = sim_bds(&sys, &map, &adv, 600, &metric);
        assert_reports_identical(&net.report, &sim, &format!("bds/{shards}shards"));
        assert_eq!(net.committed_log, sim_log, "{shards} shards: commit log");
    }
}

#[test]
fn fds_matches_simulator_on_line_and_uniform() {
    let (sys, map) = system(8, 3);
    let adv = adversary(31);
    let metrics: Vec<(&str, Box<dyn ShardMetric>)> = vec![
        ("line", Box::new(LineMetric::new(8))),
        ("uniform", Box::new(UniformMetric::new(8))),
        ("ring", Box::new(RingMetric::new(8))),
    ];
    for (name, metric) in &metrics {
        let net = net_run(
            &sys,
            &map,
            &adv,
            Round(1500),
            metric.as_ref(),
            Protocol::Fds(FdsConfig::default()),
            &FaultPlan::default(),
        );
        let (sim, sim_log) = sim_fds(&sys, &map, &adv, 1500, metric.as_ref());
        assert!(sim.committed > 0, "fds/{name}: non-trivial");
        assert_reports_identical(&net.report, &sim, &format!("fds/{name}"));
        assert_eq!(net.committed_log, sim_log, "fds/{name}: commit log");
        assert!(net.chains_verified, "fds/{name}");
    }
}

#[test]
fn fds_mirror_holds_under_bursty_and_rescheduling_workloads() {
    let (sys, map) = system(12, 4);
    let adv = AdversaryConfig {
        rho: 0.08,
        burstiness: 10,
        strategy: StrategyKind::SingleBurst { burst_round: 100 },
        seed: 37,
        ..Default::default()
    };
    let metric = LineMetric::new(12);
    let net = net_run(
        &sys,
        &map,
        &adv,
        Round(2000),
        &metric,
        Protocol::Fds(FdsConfig::default()),
        &FaultPlan::default(),
    );
    let (sim, _) = sim_fds(&sys, &map, &adv, 2000, &metric);
    assert_reports_identical(&net.report, &sim, "fds/burst");
}

#[test]
fn networked_runs_are_deterministic_with_and_without_faults() {
    let (sys, map) = system(8, 3);
    let adv = adversary(41);
    let metric = UniformMetric::new(8);
    let faulty = FaultPlan {
        seed: 9,
        drop_prob: 0.02,
        dup_prob: 0.01,
        crashes: vec![(ShardId(3), Round(200))],
        byz_votes: 1,
        ..FaultPlan::default()
    };
    for plan in [FaultPlan::default(), faulty] {
        let a = net_run(
            &sys,
            &map,
            &adv,
            Round(700),
            &metric,
            Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
            &plan,
        );
        let b = net_run(
            &sys,
            &map,
            &adv,
            Round(700),
            &metric,
            Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
            &plan,
        );
        assert_eq!(a.report.summary(), b.report.summary());
        assert_eq!(a.committed_log, b.committed_log);
        assert_eq!(a.report.faults, b.report.faults);
    }
}

#[test]
fn crash_fault_stalls_progress_and_is_counted() {
    let (sys, map) = system(8, 3);
    let adv = adversary(43);
    let metric = UniformMetric::new(8);
    let healthy = net_bds(&sys, &map, &adv, 800, &metric);
    let crashed = net_run(
        &sys,
        &map,
        &adv,
        Round(800),
        &metric,
        Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
        &FaultPlan {
            crashes: vec![(ShardId(0), Round(100))],
            ..FaultPlan::default()
        },
    );
    assert_eq!(crashed.report.faults.crashes, 1);
    assert!(
        crashed.report.committed < healthy.report.committed,
        "a crashed shard must cost commits: {} vs {}",
        crashed.report.committed,
        healthy.report.committed
    );
    assert!(
        crashed.report.pending_at_end > healthy.report.pending_at_end,
        "work strands as pending"
    );
}

#[test]
fn message_drops_strand_transactions_not_the_run() {
    let (sys, map) = system(8, 3);
    let adv = adversary(47);
    let metric = UniformMetric::new(8);
    let lossy = net_run(
        &sys,
        &map,
        &adv,
        Round(900),
        &metric,
        Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
        &FaultPlan {
            seed: 3,
            drop_prob: 0.05,
            ..FaultPlan::default()
        },
    );
    assert!(lossy.report.faults.dropped > 0, "{:?}", lossy.report.faults);
    // The run completes and stays internally consistent; some
    // transactions may be stranded by lost ballots.
    assert!(lossy.chains_verified);
    assert_eq!(
        lossy.report.generated,
        lossy.report.committed + lossy.report.aborted + lossy.report.pending_at_end
    );
}

#[test]
fn byzantine_votes_are_flipped_but_harmless() {
    let (sys, map) = system(8, 3);
    let adv = adversary(53);
    let metric = UniformMetric::new(8);
    let clean = net_bds(&sys, &map, &adv, 600, &metric);
    let byz = net_run(
        &sys,
        &map,
        &adv,
        Round(600),
        &metric,
        Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
        &FaultPlan {
            byz_votes: 1,
            ..FaultPlan::default()
        },
    );
    // n > 3f: a full Byzantine quota changes nothing but the counter.
    assert_eq!(byz.report.faults.byz_flips, 8 * 600);
    assert_eq!(byz.report.summary(), clean.report.summary());
    assert_eq!(byz.committed_log, clean.committed_log);
}

#[test]
fn fds_faults_are_deterministic_and_counted() {
    let (sys, map) = system(8, 3);
    let adv = adversary(59);
    let metric = LineMetric::new(8);
    let plan = FaultPlan {
        seed: 5,
        drop_prob: 0.03,
        dup_prob: 0.02,
        crashes: vec![(ShardId(2), Round(400))],
        byz_votes: 1,
        ..FaultPlan::default()
    };
    let a = net_run(
        &sys,
        &map,
        &adv,
        Round(1200),
        &metric,
        Protocol::Fds(FdsConfig::default()),
        &plan,
    );
    let b = net_run(
        &sys,
        &map,
        &adv,
        Round(1200),
        &metric,
        Protocol::Fds(FdsConfig::default()),
        &plan,
    );
    assert_eq!(a.report.summary(), b.report.summary());
    assert_eq!(a.report.faults, b.report.faults);
    assert_eq!(a.report.faults.crashes, 1);
    assert!(a.report.faults.dropped > 0);
    assert!(a.report.faults.byz_flips > 0);
    assert!(a.chains_verified);
}

/// The simulator under `faults`, running `protocol` as the scenario
/// executor builds it; returns the report and the commit log.
fn sim_faulted(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: u64,
    metric: &dyn ShardMetric,
    protocol: Protocol,
    faults: &FaultPlan,
) -> (RunReport, Vec<(Round, TxnId)>) {
    let mut a = Adversary::new(sys, map, *adv);
    let batches = (0..rounds).map(|r| a.generate(Round(r)));
    match protocol {
        Protocol::EpochHosted(kind, bcfg) => {
            let policy = kind.epoch_policy(bcfg.coloring, sys.accounts, sys.shards);
            let mut sim = BdsSim::with_policy(sys, map, bcfg, metric, policy.unwrap());
            sim.set_faults(faults);
            batches.for_each(|b| sim.step(b));
            let log = sim.committed_log().to_vec();
            (sim.finish(), log)
        }
        Protocol::Fds(fcfg) => {
            let mut sim = FdsSim::new(sys, map, fcfg, metric);
            sim.set_faults(faults);
            batches.for_each(|b| sim.step(b));
            let log = sim.committed_log().to_vec();
            (sim.finish(), log)
        }
    }
}

#[test]
fn faulted_runs_match_the_simulator_byte_for_byte() {
    // The fault path is shared code; what this pins is the transport
    // under it: the hub's drops, duplicates and delivery order must be
    // the simulator network's, and crashes and Byzantine votes must land
    // on the same rounds, for every protocol and metric shape.
    let (sys, map) = system(8, 3);
    let adv = adversary(73);
    let protocols = [
        (
            "bds",
            Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
        ),
        ("fds", Protocol::Fds(FdsConfig::default())),
        (
            "edf",
            Protocol::EpochHosted(SchedulerKind::Edf, BdsConfig::default()),
        ),
    ];
    let metrics: Vec<(&str, Box<dyn ShardMetric>)> = vec![
        ("uniform", Box::new(UniformMetric::new(8))),
        ("line", Box::new(LineMetric::new(8))),
    ];
    let plans = [
        (
            "drop+dup",
            FaultPlan {
                seed: 7,
                drop_prob: 0.03,
                dup_prob: 0.02,
                ..FaultPlan::default()
            },
        ),
        (
            "crash",
            FaultPlan {
                crashes: vec![(ShardId(2), Round(150)), (ShardId(5), Round(300))],
                ..FaultPlan::default()
            },
        ),
        (
            "byzantine-votes",
            FaultPlan {
                byz_votes: 1,
                ..FaultPlan::default()
            },
        ),
    ];
    for (pname, protocol) in protocols {
        for (mname, metric) in &metrics {
            for (fname, plan) in &plans {
                let label = format!("{pname}/{mname}/{fname}");
                let metric = metric.as_ref();
                let net = net_run(&sys, &map, &adv, Round(600), metric, protocol, plan);
                let (sim, sim_log) = sim_faulted(&sys, &map, &adv, 600, metric, protocol, plan);
                assert!(!sim.faults.is_zero(), "{label}: the plan must fire");
                assert_reports_identical(&net.report, &sim, &label);
                assert_eq!(net.committed_log, sim_log, "{label}: commit log");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fault-plane differential: the lock-free hub against the previous
// generation's semantics — a mutexed global delay queue — reimplemented
// here as an executable oracle. Same fixed seeds in, the surviving
// message set and the injected-fault counters must come out identical,
// on every metric shape. This is what licenses swapping the message
// plane out from under the fault plane without re-validating the
// drivers: the plane changed, the semantics did not.

use rand::Rng as _;
use runtime::{NetHub, NetInbox, ShardPort};
use sharding_core::rngutil::{seeded_rng, split_seed};
use simnet::faults::FaultDecision;
use std::collections::BTreeMap;

/// The old locked message plane, distilled: per-sender sequence numbers,
/// per-directed-link fault streams, one `BTreeMap` delay queue keyed by
/// `(deliver_at, to)`, hand-out sorted by `(from, seq)`. Everything the
/// mutex used to serialize, done single-threaded.
/// One queued message, `(from, seq, payload)` — sorting the tuple is
/// exactly the `(from, seq)` hand-out order (payloads are unique).
type Queued = (u32, u64, u64);

struct LockedOracle {
    shards: usize,
    dist: Vec<u64>,
    seqs: Vec<u64>,
    links: BTreeMap<(u32, u32), simnet::faults::LinkFaults>,
    queue: BTreeMap<(u64, u32), Vec<Queued>>,
    dropped: u64,
    duplicated: u64,
}

impl LockedOracle {
    fn new(metric: &dyn ShardMetric, plan: &FaultPlan) -> Self {
        let s = metric.shards();
        let mut links = BTreeMap::new();
        for from in 0..s as u32 {
            for to in 0..s as u32 {
                links.insert((from, to), plan.link(ShardId(from), ShardId(to)));
            }
        }
        LockedOracle {
            shards: s,
            dist: (0..s)
                .flat_map(|a| {
                    (0..s).map(move |b| (a, b)) // row-major
                })
                .map(|(a, b)| metric.distance(ShardId(a as u32), ShardId(b as u32)))
                .collect(),
            seqs: vec![0; s],
            links,
            queue: BTreeMap::new(),
            dropped: 0,
            duplicated: 0,
        }
    }

    fn send(&mut self, from: ShardId, to: ShardId, now: u64, payload: u64) {
        let seq = &mut self.seqs[from.index()];
        let link = self.links.get_mut(&(from.raw(), to.raw())).unwrap();
        let deliver_at = now + self.dist[from.index() * self.shards + to.index()].max(1);
        match link.decide() {
            FaultDecision::Drop => {
                *seq += 1;
                self.dropped += 1;
            }
            FaultDecision::Duplicate => {
                self.duplicated += 1;
                let bucket = self.queue.entry((deliver_at, to.raw())).or_default();
                bucket.push((from.raw(), *seq, payload));
                bucket.push((from.raw(), *seq + 1, payload));
                *seq += 2;
            }
            FaultDecision::Deliver => {
                self.queue.entry((deliver_at, to.raw())).or_default().push((
                    from.raw(),
                    *seq,
                    payload,
                ));
                *seq += 1;
            }
        }
    }

    fn drain(&mut self, round: u64, to: ShardId) -> Vec<Queued> {
        let mut due = self.queue.remove(&(round, to.raw())).unwrap_or_default();
        due.sort_unstable();
        due
    }
}

#[test]
fn fault_plane_matches_locked_oracle_across_metric_shapes() {
    let shapes: Vec<(&str, Box<dyn ShardMetric>)> = vec![
        ("line", Box::new(LineMetric::new(8))),
        ("ring", Box::new(RingMetric::new(8))),
        ("grid4x2", Box::new(GridMetric::new(4, 2))),
    ];
    let plan = FaultPlan {
        seed: 0xFA_0175,
        drop_prob: 0.15,
        dup_prob: 0.10,
        ..FaultPlan::default()
    };
    for (name, metric) in &shapes {
        let s = metric.shards();
        let rounds = 150u64;
        let max_delay = (0..s as u32)
            .flat_map(|a| (0..s as u32).map(move |b| (a, b)))
            .map(|(a, b)| metric.distance(ShardId(a), ShardId(b)))
            .max()
            .unwrap()
            .max(1);

        let hub: NetHub<u64> = NetHub::new(metric.as_ref(), |_| 8).unwrap();
        let mut ports: Vec<ShardPort<u64>> = (0..s)
            .map(|i| ShardPort::new(&hub, ShardId(i as u32), &plan))
            .collect();
        let mut inboxes: Vec<NetInbox<u64>> = (0..s)
            .map(|i| NetInbox::new(&hub, ShardId(i as u32)))
            .collect();
        let mut oracle = LockedOracle::new(metric.as_ref(), &plan);

        // Identical scripted traffic into both planes, drained in
        // lockstep so the hub side follows its intended usage pattern.
        let mut rng = seeded_rng(split_seed(0xD1FF, rounds));
        let mut payload = 0u64;
        let mut buf = Vec::new();
        for round in 0..rounds + max_delay {
            for (to_idx, inbox) in inboxes.iter_mut().enumerate() {
                inbox.drain_into(round, &mut buf);
                let hub_due: Vec<Queued> = buf
                    .drain(..)
                    .map(|e| (e.from.raw(), e.seq, e.payload))
                    .collect();
                let oracle_due = oracle.drain(round, ShardId(to_idx as u32));
                assert_eq!(
                    hub_due, oracle_due,
                    "{name}: surviving set diverged at (round {round}, shard {to_idx})"
                );
            }
            if round < rounds {
                for (from, port) in ports.iter_mut().enumerate() {
                    for _ in 0..rng.gen_range(0usize..=2) {
                        let to = ShardId(rng.gen_range(0..s as u32));
                        payload += 1;
                        port.send(to, round, payload);
                        oracle.send(ShardId(from as u32), to, round, payload);
                    }
                }
            }
        }
        assert!(oracle.queue.is_empty(), "{name}: oracle fully drained");
        drop(ports);
        assert_eq!(hub.dropped_count(), oracle.dropped, "{name}: dropped");
        assert_eq!(
            hub.duplicated_count(),
            oracle.duplicated,
            "{name}: duplicated"
        );
        assert!(
            oracle.dropped > 0 && oracle.duplicated > 0,
            "{name}: the plan must actually fire to prove anything"
        );
    }
}

// ---------------------------------------------------------------------
// Elastic resharding differential: with a live migration schedule armed,
// the networked engine must still mirror the simulator byte for byte —
// and both sides must pass the table-independent commit audit (no
// committed transaction lost, none committed twice) across the
// migration boundary.

use adversary::{ReshardSource, RoundSource};
use sharding_core::ReshardPlan;

fn reshard_fixture(
    initial: usize,
    events: &[(i64, u64)],
) -> (SystemConfig, SystemConfig, AccountMap, ReshardPlan) {
    let cfg = SystemConfig {
        shards: 1, // overwritten by the plan's s_max
        nodes_per_shard: 4,
        faulty_per_shard: 1,
        k_max: 3,
        accounts: 64,
    };
    let plan = ReshardPlan::build(initial, &cfg, events).unwrap();
    let sys = SystemConfig {
        shards: plan.s_max,
        ..cfg.clone()
    };
    // Workload producers draw shards from the *initial* active set.
    let src_sys = SystemConfig {
        shards: initial,
        ..cfg
    };
    let map = plan.versions[0].map.clone();
    (sys, src_sys, map, plan)
}

/// Hand-driven simulator run with the plan armed; returns the report,
/// the commit log, and the (lost, duplicated) audit.
#[allow(clippy::type_complexity)]
fn sim_bds_reshard(
    sys: &SystemConfig,
    src_sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    plan: &ReshardPlan,
    rounds: u64,
    metric: &dyn ShardMetric,
) -> (RunReport, Vec<(Round, TxnId)>, (u64, u64)) {
    let mut sim = BdsSim::with_metric(sys, map, BdsConfig::default(), metric);
    sim.set_reshard(plan.clone());
    let mut src = ReshardSource::new(Adversary::new(src_sys, map, *adv), plan.clone());
    for r in 0..rounds {
        sim.step(src.next_round(Round(r)));
    }
    let log = sim.committed_log().to_vec();
    let audit = sim.reshard_audit();
    (sim.finish(), log, audit)
}

fn net_bds_reshard(
    sys: &SystemConfig,
    src_sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    plan: &ReshardPlan,
    rounds: u64,
    metric: &dyn ShardMetric,
) -> NetOutcome {
    let mut src = ReshardSource::new(Adversary::new(src_sys, map, *adv), plan.clone());
    let run = NetRun {
        sys,
        map,
        rounds: Round(rounds),
        metric,
        protocol: Protocol::EpochHosted(SchedulerKind::Bds, BdsConfig::default()),
        faults: &FaultPlan::default(),
        workers: sys.shards,
        metrics: false,
        reshard: Some(plan),
    };
    run_net(&run, &mut src)
}

#[test]
fn reshard_scale_out_matches_simulator_byte_for_byte() {
    let (sys, src_sys, map, plan) = reshard_fixture(4, &[(2, 60)]);
    let adv = adversary(61);
    let metric = UniformMetric::new(sys.shards);
    let net = net_bds_reshard(&sys, &src_sys, &map, &adv, &plan, 400, &metric);
    let (sim, sim_log, sim_audit) =
        sim_bds_reshard(&sys, &src_sys, &map, &adv, &plan, 400, &metric);
    assert!(sim.committed > 0, "workload must be non-trivial");
    assert_reports_identical(&net.report, &sim, "reshard/scale_out");
    assert_eq!(net.committed_log, sim_log, "round-for-round commit log");
    assert!(net.chains_verified);
    assert_eq!(sim_audit, (0, 0), "sim: no commit lost or doubled");
    assert_eq!(
        net.reshard_audit,
        Some((0, 0)),
        "net: no commit lost or doubled"
    );
}

#[test]
fn reshard_scale_in_matches_simulator_byte_for_byte() {
    let (sys, src_sys, map, plan) = reshard_fixture(6, &[(-2, 60)]);
    let adv = adversary(67);
    let metric = UniformMetric::new(sys.shards);
    let net = net_bds_reshard(&sys, &src_sys, &map, &adv, &plan, 400, &metric);
    let (sim, sim_log, sim_audit) =
        sim_bds_reshard(&sys, &src_sys, &map, &adv, &plan, 400, &metric);
    assert!(sim.committed > 0, "workload must be non-trivial");
    assert_reports_identical(&net.report, &sim, "reshard/scale_in");
    assert_eq!(net.committed_log, sim_log, "round-for-round commit log");
    assert!(net.chains_verified);
    assert_eq!(sim_audit, (0, 0));
    assert_eq!(net.reshard_audit, Some((0, 0)));
}

#[test]
fn reshard_churn_matches_simulator_on_a_line_metric() {
    // Two opposing events over a diameter-7 line: handoffs ride the
    // longest links the metric allows and must still land before the
    // first post-migration epoch check.
    let (sys, src_sys, map, plan) = reshard_fixture(4, &[(2, 40), (-3, 120)]);
    let adv = adversary(71);
    let metric = LineMetric::new(sys.shards);
    let net = net_bds_reshard(&sys, &src_sys, &map, &adv, &plan, 500, &metric);
    let (sim, sim_log, sim_audit) =
        sim_bds_reshard(&sys, &src_sys, &map, &adv, &plan, 500, &metric);
    assert!(sim.committed > 0, "workload must be non-trivial");
    assert_reports_identical(&net.report, &sim, "reshard/churn");
    assert_eq!(net.committed_log, sim_log, "round-for-round commit log");
    assert!(net.chains_verified);
    assert_eq!(sim_audit, (0, 0));
    assert_eq!(net.reshard_audit, Some((0, 0)));
}

#[test]
fn drop_budget_is_honored_per_directed_link_end_to_end() {
    // One hot link, a tight budget: the hub must stop dropping exactly
    // where the per-link stream's budget runs out, like the oracle.
    let metric = UniformMetric::new(2);
    let plan = FaultPlan {
        seed: 21,
        drop_prob: 0.9,
        drop_budget: 3,
        ..FaultPlan::default()
    };
    let hub: NetHub<u64> = NetHub::new(&metric, |_| 8).unwrap();
    let mut port = ShardPort::new(&hub, ShardId(0), &plan);
    let mut inbox = NetInbox::new(&hub, ShardId(1));
    let mut oracle = LockedOracle::new(&metric, &plan);
    for i in 0..200u64 {
        port.send(ShardId(1), i, i);
        oracle.send(ShardId(0), ShardId(1), i, i);
    }
    let mut delivered = 0u64;
    for round in 1..=201 {
        let due = inbox.drain(round);
        let oracle_due = oracle.drain(round, ShardId(1));
        assert_eq!(due.len(), oracle_due.len(), "round {round}");
        delivered += due.len() as u64;
    }
    drop(port);
    assert_eq!(hub.dropped_count(), 3, "budget caps the drops");
    assert_eq!(delivered, 200 - 3 + hub.duplicated_count());
}
