//! The networked transport for the per-shard protocol nodes of
//! `schedulers` ([`BdsNode`], [`FdsNode`]), written once for both
//! protocols.
//!
//! Each shard gets a slot: its node, ledger, chain and policy, its hub
//! endpoints, its PBFT instance and its slice of the workload. The
//! cooperative claim executor ([`run_lockstep`]) runs the slots'
//! rounds concurrently; shards communicate only through the
//! [`NetHub`]'s lock-free link rings, and the [`RoundGate`] separates
//! "all sends for round r are enqueued" from "round r+1 drains".
//!
//! The headline guarantee is differential: with an inert [`FaultPlan`],
//! [`run_net`] returns a [`RunReport`] **byte-identical** to the
//! simulator's on the same inputs — commits, latencies, queue series,
//! message counts, verdict, everything (`tests/differential.rs` enforces
//! it). The nodes are the simulator's own, inboxes arrive in the same
//! `(sender, seq)` order, and the merge step replays the per-shard commit
//! events in the simulator's global order — `(round, deciding shard,
//! index)` — so even the floating-point latency accumulation is
//! bit-equal.
//!
//! With a non-inert fault plan the run stays deterministic (fault
//! decisions are per-link ChaCha streams, independent of thread
//! interleaving) but the protocol is allowed to degrade: crashed shards
//! freeze, dropped ballots strand transactions as forever-pending, and
//! the injected-fault counters surface in [`RunReport::faults`].

use crate::exec::run_lockstep;
use crate::hub::{NetEnvelope, NetHub, NetInbox, ShardPort};
use crate::sync::RoundGate;
use adversary::{Adversary, AdversaryConfig, RoundSource};
use cluster::ShardMetric;
use parking_lot::Mutex;
use schedulers::metrics::MetricsCollector;
use schedulers::node::epoch_stats;
use schedulers::{
    BdsConfig, BdsNode, ColoringPolicy, CommitEvent, FdsConfig, FdsNode, Outbox, ProtocolNode,
    RunReport, Scheduler, SchedulerKind, ShardIo,
};
use sharding_core::{AccountMap, ReshardPlan, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::faults::{FaultCounters, FaultPlan};
use simnet::pbft::{ConsensusOutcome, PbftShard};
use simnet::{LocalChain, ShardLedger};
use std::sync::Arc;

/// Which protocol a networked run executes.
#[derive(Debug, Clone, Copy)]
pub enum Protocol {
    /// BDS proper or a zoo policy on the BDS epoch host. The kind must
    /// have an epoch policy ([`SchedulerKind::epoch_policy`]); every
    /// shard builds its own instance and only the rotating leader's is
    /// consulted, which is sound because plans are pure functions of
    /// `(epoch, batch)`.
    EpochHosted(SchedulerKind, BdsConfig),
    /// The hierarchical FDS pipeline.
    Fds(FdsConfig),
}

/// The parameters of one networked run.
pub struct NetRun<'a> {
    /// The system (shard count, quorum sizes, accounts).
    pub sys: &'a SystemConfig,
    /// Initial account placement.
    pub map: &'a AccountMap,
    /// Rounds to run.
    pub rounds: Round,
    /// Inter-shard delays.
    pub metric: &'a dyn ShardMetric,
    /// The protocol and its configuration.
    pub protocol: Protocol,
    /// Injected faults (inert for a run byte-identical to the simulator's).
    pub faults: &'a FaultPlan,
    /// Executor threads; the result is identical for any `workers >= 1`.
    pub workers: usize,
    /// Enables the metrics plane.
    pub metrics: bool,
    /// A live migration schedule (epoch-hosted kinds, fault-free runs
    /// only). The system must be provisioned for the plan's `s_max` and
    /// `map` must be its version-0 placement.
    pub reshard: Option<&'a ReshardPlan>,
}

/// The result of a networked run: the standard report plus the raw
/// commit log for round-for-round cross-validation.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// The standard per-run report (byte-identical to the simulator's on
    /// fault-free runs, fault counters filled in otherwise).
    pub report: RunReport,
    /// `(commit round, txn)` in global decision order.
    pub committed_log: Vec<(Round, TxnId)>,
    /// Whether every shard's local chain verified after the run.
    pub chains_verified: bool,
    /// `(lost, double_committed)` from the table-independent audit over
    /// the local chains and the commit log; `Some` exactly when the run
    /// executed a reshard plan, and both components must be 0.
    pub reshard_audit: Option<(u64, u64)>,
}

/// Runs `run.protocol` over the networked engine, drawing each round's
/// transactions from `source`. The source is drained round by round up
/// front — in exactly the order the simulator drains it live, so a
/// deterministic source yields the same batches on both engines — and
/// generation stays off the executed rounds.
pub fn run_net(run: &NetRun<'_>, source: &mut dyn RoundSource) -> NetOutcome {
    let sys = run.sys;
    sys.validate().expect("valid system config");
    assert_eq!(run.metric.shards(), sys.shards);
    run.faults.validate(sys.shards).expect("valid fault plan");
    let s = sys.shards;
    let fault_free = run.faults.is_inert();
    let (inject, generated) = pregenerate(source, s, run.rounds.raw());
    match run.protocol {
        Protocol::EpochHosted(kind, bcfg) => {
            let mut nodes = BdsNode::system(&bcfg, run.metric, fault_free);
            if let Some(plan) = run.reshard {
                assert_eq!(
                    plan.s_max, s,
                    "system must be provisioned for the plan's s_max"
                );
                // A crashed shard losing a balance handoff is
                // unrecoverable state loss; the scenario layer rejects
                // the combination.
                assert!(fault_free, "resharding requires a fault-free run");
                let plan = Arc::new(plan.clone());
                for node in &mut nodes {
                    node.set_reshard(Arc::clone(&plan));
                }
            }
            let policy = || {
                kind.epoch_policy(bcfg.coloring, sys.accounts, s)
                    .unwrap_or_else(|| panic!("{kind} has no epoch policy"))
            };
            drive(run, bcfg.initial_balance, nodes, policy, inject, generated)
        }
        Protocol::Fds(fcfg) => {
            assert!(run.reshard.is_none(), "resharding lives in the epoch host");
            let policy = || -> Box<dyn Scheduler> {
                Box::new(ColoringPolicy::new(
                    SchedulerKind::Fds,
                    fcfg.coloring,
                    sys.accounts,
                ))
            };
            let nodes = FdsNode::system(&fcfg, run.metric);
            drive(run, fcfg.initial_balance, nodes, policy, inject, generated)
        }
    }
}

/// Runs an epoch-hosted scheduler — BDS proper or a zoo policy — over
/// the networked engine against a fresh adversary: [`run_net`] with
/// [`Protocol::EpochHosted`] and no reshard plan.
#[allow(clippy::too_many_arguments)]
pub fn run_net_sched(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
) -> NetOutcome {
    let run = NetRun {
        sys,
        map,
        rounds,
        metric,
        protocol: Protocol::EpochHosted(kind, bcfg),
        faults,
        workers,
        metrics,
        reshard: None,
    };
    run_net(&run, &mut Adversary::new(sys, map, *adv))
}

/// Drains `source` for `total` rounds and partitions the workload per
/// `(home shard, round)`; returns it with the generated count.
fn pregenerate(
    source: &mut dyn RoundSource,
    shards: usize,
    total: u64,
) -> (Vec<Vec<Vec<Transaction>>>, u64) {
    let mut inject = vec![vec![Vec::new(); total as usize]; shards];
    let mut generated = 0u64;
    for r in 0..total {
        for t in source.next_round(Round(r)) {
            generated += 1;
            inject[t.home.index()][r as usize].push(t);
        }
    }
    (inject, generated)
}

/// A node's sends through its hub port, in the round being executed.
struct PortOutbox<'p, 'h, M> {
    port: &'p mut ShardPort<'h, M>,
    round: u64,
}

impl<M: Clone> Outbox<M> for PortOutbox<'_, '_, M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.port.send(to, self.round, msg);
    }

    fn delay(&self, to: ShardId) -> u64 {
        self.port.delay(to)
    }
}

/// Everything one shard owns during the run, handed between workers by
/// the claim executor.
struct Slot<'h, N: ProtocolNode> {
    node: N,
    ledger: ShardLedger,
    chain: LocalChain,
    policy: Box<dyn Scheduler>,
    port: ShardPort<'h, N::Msg>,
    inbox: NetInbox<'h, N::Msg>,
    /// Reusable drain buffer.
    buf: Vec<NetEnvelope<N::Msg>>,
    pbft: PbftShard,
    /// This shard's injections, per round.
    inject: Vec<Vec<Transaction>>,
    crash_at: Option<u64>,
    events: Vec<CommitEvent>,
    /// Per round: the node's sample, the cumulative Byzantine flips, and
    /// whether the shard is crashed.
    ticks: Vec<(N::Sample, u64, bool)>,
    counters: FaultCounters,
}

/// Runs `nodes` (index = shard, each with its own `policy()`) for the
/// run's rounds, then merges the per-shard results into the outcome,
/// reported under the policy's kind.
fn drive<N: ProtocolNode>(
    run: &NetRun<'_>,
    initial_balance: u64,
    nodes: Vec<N>,
    policy: impl Fn() -> Box<dyn Scheduler>,
    inject: Vec<Vec<Vec<Transaction>>>,
    generated: u64,
) -> NetOutcome {
    let s = run.sys.shards;
    let total = run.rounds.raw();
    let hub: NetHub<N::Msg> =
        NetHub::new(run.metric, N::msg_bytes).expect("validated: at least one shard");
    let gate = RoundGate::new(s);
    let slots: Vec<Mutex<Slot<'_, N>>> = nodes
        .into_iter()
        .zip(inject)
        .enumerate()
        .map(|(shard, (node, inject))| {
            let id = ShardId(shard as u32);
            Mutex::new(Slot {
                node,
                ledger: ShardLedger::new(id, run.map, initial_balance),
                chain: LocalChain::new(id),
                policy: policy(),
                port: ShardPort::new(&hub, id, run.faults),
                inbox: NetInbox::new(&hub, id),
                buf: Vec::new(),
                pbft: PbftShard::new(id, run.sys.nodes_per_shard, run.sys.faulty_per_shard)
                    .expect("validated config"),
                inject,
                crash_at: run.faults.crash_round(id).map(|r| r.raw()),
                events: Vec::new(),
                ticks: Vec::with_capacity(total as usize),
                counters: FaultCounters::default(),
            })
        })
        .collect();

    run_lockstep(&gate, &slots, total, run.workers, |slot, shard, round| {
        if slot.crash_at == Some(round) {
            slot.counters.crashes += 1;
        }
        let crashed = slot.crash_at.is_some_and(|c| round >= c);
        // Generated work accumulates even on a crashed shard (it counts
        // as pending, unserviced).
        for t in std::mem::take(&mut slot.inject[round as usize]) {
            slot.node.inject(t);
        }
        // The executor only runs this once every peer finished round-1
        // sends; the drain below then sees all of them.
        slot.inbox.drain_into(round, &mut slot.buf);
        if crashed {
            // A dead shard neither sends nor processes; the drain above
            // still ran, keeping ring memory bounded — its contents just
            // evaporate.
            slot.buf.clear();
        } else {
            // Intra-shard consensus on this round's inbox digest — the
            // paper's round abstraction executed for real, with the fault
            // plane's Byzantine voters flipped in. Purely local: it never
            // touches the report, so fault-free byte-identity holds.
            let digest = round ^ ((slot.buf.len() as u64) << 32) ^ shard as u64;
            let flips = run.faults.byz_flips_for(slot.pbft.faulty());
            let outcome = slot.pbft.decide_with_byzantine(digest, flips);
            debug_assert_eq!(outcome, ConsensusOutcome::Decided(digest));
            slot.counters.byz_flips += flips as u64;
            slot.node.on_round(
                round,
                slot.buf.drain(..).map(|e| (e.from, e.payload)),
                ShardIo {
                    ledger: &mut slot.ledger,
                    chain: &mut slot.chain,
                    policy: slot.policy.as_mut(),
                    out: &mut PortOutbox {
                        port: &mut slot.port,
                        round,
                    },
                    events: &mut slot.events,
                },
            );
        }
        let sample = slot.node.sample(round);
        slot.ticks.push((sample, slot.counters.byz_flips, crashed));
    });

    // Flushing a port adds the shard's local message tallies into the
    // hub before the counters are read below.
    let done: Vec<Slot<'_, N>> = slots
        .into_iter()
        .map(|slot| {
            let mut slot = slot.into_inner();
            slot.port.flush();
            slot
        })
        .collect();

    let mut collector = MetricsCollector::new(s);
    if run.metrics {
        collector.enable_metrics();
    }
    let mut log = Vec::new();
    let mut cursors = vec![0usize; s];
    let mut samples = Vec::with_capacity(s);
    let mut pending_at_end = 0u64;
    for round in 0..total {
        // Replay in the simulator's order: round, deciding shard, index.
        for (d, cursor) in done.iter().zip(&mut cursors) {
            while let Some(e) = d.events.get(*cursor).filter(|e| e.round == round) {
                e.record(&mut collector, &mut log);
                *cursor += 1;
            }
        }
        samples.clear();
        let (mut byz, mut crashed) = (0u64, 0u64);
        for d in &done {
            let (sample, flips, down) = d.ticks[round as usize];
            samples.push(sample);
            byz += flips;
            crashed += u64::from(down);
        }
        pending_at_end = N::observe(&mut collector, &samples, byz, crashed);
    }

    // Fault-free, every shard observes the same epoch sequence. Under
    // faults a crashed or desynced shard's counters freeze, so the report
    // takes the furthest view of the run.
    let (epochs, max_epoch_len) = epoch_stats(done.iter().map(|d| &d.node), total);
    let mut report = collector.finish(
        done[0].policy.kind(),
        total,
        generated,
        pending_at_end,
        epochs,
        max_epoch_len,
        hub.sent_count(),
        hub.max_message_bytes(),
    );
    let mut counters = FaultCounters::default();
    for d in &done {
        counters.merge(&d.counters);
    }
    counters.dropped = hub.dropped_count();
    counters.duplicated = hub.duplicated_count();
    report.faults = counters;
    let chains: Vec<LocalChain> = done.into_iter().map(|d| d.chain).collect();
    NetOutcome {
        report,
        chains_verified: chains.iter().all(LocalChain::verify),
        reshard_audit: run.reshard.map(|_| simnet::reshard_audit(&chains, &log)),
        committed_log: log,
    }
}
