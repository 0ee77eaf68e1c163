//! Net-side scheduler conformance: the half of the zoo harness that the
//! simulator-side suite (`schedulers/tests/conformance.rs`) cannot run,
//! because the networked engine depends on the `schedulers` crate.
//!
//! For every registered kind that supports `engine = net` through the
//! shared epoch host — BDS proper and all four zoo policies — this
//! pins:
//!
//! * **sim/net byte-equality**: `run_net_sched` reproduces the
//!   simulator's report fingerprint exactly on fault-free runs (FDS has
//!   its own driver and its own differential suite; FCFS has no
//!   networked protocol and is rejected at plan time);
//! * **worker-count independence**: the cooperative claim executor
//!   gives the same bytes with 1 worker, one per shard, or a
//!   deliberate oversubscription — thread count is a performance knob,
//!   never a semantic one.

use adversary::{Adversary, AdversaryConfig, ReshardSource, RoundSource, StrategyKind};
use cluster::UniformMetric;
use conflict::ColoringStrategy;
use runtime::{run_net, run_net_sched, NetOutcome, NetRun, Protocol};
use schedulers::bds::{BdsConfig, BdsSim};
use schedulers::driver::drive;
use schedulers::testkit::report_fingerprint;
use schedulers::SchedulerKind;
use sharding_core::ReshardPlan;
use sharding_core::{AccountMap, Round, SystemConfig};
use simnet::FaultPlan;

fn system() -> (SystemConfig, AccountMap) {
    let sys = SystemConfig {
        shards: 8,
        accounts: 8,
        k_max: 3,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    (sys, map)
}

fn adversary(seed: u64) -> AdversaryConfig {
    AdversaryConfig {
        rho: 0.08,
        burstiness: 4,
        strategy: StrategyKind::UniformRandom,
        seed,
        ..Default::default()
    }
}

/// Every kind the shared epoch host carries over the network.
fn epoch_hosted_kinds() -> Vec<SchedulerKind> {
    SchedulerKind::ALL
        .into_iter()
        .filter(|k| k.epoch_policy(ColoringStrategy::Greedy, 8, 8).is_some())
        .collect()
}

#[test]
fn every_epoch_hosted_kind_is_net_capable_and_vice_versa() {
    for kind in SchedulerKind::ALL {
        let hosted = kind.epoch_policy(ColoringStrategy::Greedy, 8, 8).is_some();
        match kind {
            SchedulerKind::Fds => assert!(
                !hosted && kind.supports_net(),
                "FDS rides its own networked driver"
            ),
            SchedulerKind::Fcfs => {
                assert!(!hosted && !kind.supports_net(), "FCFS is sim-only")
            }
            _ => assert!(
                hosted && kind.supports_net(),
                "{kind}: epoch-hosted kinds are net-capable by construction"
            ),
        }
    }
}

#[test]
fn net_reports_match_the_simulator_byte_for_byte() {
    let (sys, map) = system();
    let adv = adversary(23);
    let rounds = Round(400);
    let metric = UniformMetric::new(sys.shards);
    let faults = FaultPlan::default();
    let bcfg = BdsConfig::default();
    for kind in epoch_hosted_kinds() {
        let net = run_net_sched(
            &sys, &map, &adv, rounds, &metric, bcfg, &faults, kind, sys.shards, false,
        );
        assert!(net.chains_verified, "{kind}: chain verification failed");
        let policy = kind
            .epoch_policy(bcfg.coloring, sys.accounts, sys.shards)
            .expect("epoch-hosted by construction");
        let sim = BdsSim::with_policy(&sys, &map, bcfg, &metric, policy);
        let sim_report = drive(sim, &sys, &map, &adv, rounds);
        assert_eq!(
            report_fingerprint(&net.report),
            report_fingerprint(&sim_report),
            "{kind}: net diverged from the simulator"
        );
    }
}

/// A +2@60 migration schedule over the conformance system: 4 active
/// shards at round 0, 6 from the first epoch boundary at or after
/// round 60, provisioned capacity 6.
fn reshard_fixture() -> (SystemConfig, SystemConfig, AccountMap, ReshardPlan) {
    let cfg = SystemConfig {
        shards: 1, // overwritten by the plan's s_max
        accounts: 32,
        k_max: 3,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let plan = ReshardPlan::build(4, &cfg, &[(2, 60)]).unwrap();
    let sys = SystemConfig {
        shards: plan.s_max,
        ..cfg.clone()
    };
    let src_sys = SystemConfig { shards: 4, ..cfg };
    let map = plan.versions[0].map.clone();
    (sys, src_sys, map, plan)
}

#[test]
fn reshard_net_reports_match_the_simulator_for_every_hosted_kind() {
    // Resharding lives in the shared epoch host, so every epoch-hosted
    // policy inherits it — and every one must keep the sim/net mirror.
    let (sys, src_sys, map, plan) = reshard_fixture();
    let adv = adversary(37);
    let rounds = Round(300);
    let metric = UniformMetric::new(sys.shards);
    let bcfg = BdsConfig::default();
    for kind in epoch_hosted_kinds() {
        let mut src = ReshardSource::new(Adversary::new(&src_sys, &map, adv), plan.clone());
        let net = run_net(
            &NetRun {
                sys: &sys,
                map: &map,
                rounds,
                metric: &metric,
                protocol: Protocol::EpochHosted(kind, bcfg),
                faults: &FaultPlan::default(),
                workers: sys.shards,
                metrics: false,
                reshard: Some(&plan),
            },
            &mut src,
        );
        assert!(net.chains_verified, "{kind}: chain verification failed");
        assert_eq!(
            net.reshard_audit,
            Some((0, 0)),
            "{kind}: commits lost or doubled across the migration"
        );
        let policy = kind
            .epoch_policy(bcfg.coloring, sys.accounts, sys.shards)
            .expect("epoch-hosted by construction");
        let mut sim = BdsSim::with_policy(&sys, &map, bcfg, &metric, policy);
        sim.set_reshard(plan.clone());
        let mut src = ReshardSource::new(Adversary::new(&src_sys, &map, adv), plan.clone());
        for r in 0..rounds.raw() {
            sim.step(src.next_round(Round(r)));
        }
        assert_eq!(sim.reshard_audit(), (0, 0), "{kind}: sim-side audit");
        assert_eq!(
            report_fingerprint(&net.report),
            report_fingerprint(&sim.finish()),
            "{kind}: net diverged from the simulator across the migration"
        );
    }
}

#[test]
fn reshard_worker_count_never_changes_the_bytes() {
    let (sys, src_sys, map, plan) = reshard_fixture();
    let adv = adversary(41);
    let rounds = Round(300);
    let metric = UniformMetric::new(sys.shards);
    let bcfg = BdsConfig::default();
    let runs: Vec<NetOutcome> = [1, sys.shards, sys.shards * 2 + 1]
        .into_iter()
        .map(|workers| {
            let mut src = ReshardSource::new(Adversary::new(&src_sys, &map, adv), plan.clone());
            run_net(
                &NetRun {
                    sys: &sys,
                    map: &map,
                    rounds,
                    metric: &metric,
                    protocol: Protocol::EpochHosted(SchedulerKind::Bds, bcfg),
                    faults: &FaultPlan::default(),
                    workers,
                    metrics: false,
                    reshard: Some(&plan),
                },
                &mut src,
            )
        })
        .collect();
    for out in &runs {
        assert_eq!(out.reshard_audit, Some((0, 0)));
    }
    let prints: Vec<String> = runs.iter().map(|o| report_fingerprint(&o.report)).collect();
    assert_eq!(prints[0], prints[1], "1 worker vs one-per-shard");
    assert_eq!(prints[1], prints[2], "one-per-shard vs oversubscribed");
    assert_eq!(runs[0].committed_log, runs[1].committed_log);
    assert_eq!(runs[1].committed_log, runs[2].committed_log);
}

#[test]
fn worker_count_never_changes_the_bytes() {
    let (sys, map) = system();
    let adv = adversary(29);
    let rounds = Round(300);
    let metric = UniformMetric::new(sys.shards);
    let faults = FaultPlan::default();
    let bcfg = BdsConfig::default();
    for kind in epoch_hosted_kinds() {
        let fingerprints: Vec<String> = [1, sys.shards, sys.shards * 2 + 1]
            .into_iter()
            .map(|workers| {
                let out = run_net_sched(
                    &sys, &map, &adv, rounds, &metric, bcfg, &faults, kind, workers, false,
                );
                report_fingerprint(&out.report)
            })
            .collect();
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{kind}: 1 worker vs one-per-shard"
        );
        assert_eq!(
            fingerprints[1], fingerprints[2],
            "{kind}: one-per-shard vs oversubscribed"
        );
    }
}
