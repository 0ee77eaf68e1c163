//! The networked transport for the per-shard protocol nodes of
//! `schedulers` ([`BdsNode`], [`FdsNode`]), written once for both
//! protocols.
//!
//! Each shard gets a slot: its node, ledger, chain and policy, its hub
//! endpoints, its fault state and its slice of the workload. The
//! cooperative claim executor ([`run_lockstep`]) runs the slots'
//! rounds concurrently; shards communicate only through the
//! [`NetHub`]'s lock-free link rings, and the [`RoundGate`] separates
//! "all sends for round r are enqueued" from "round r+1 drains".
//!
//! This module keeps only the transport: hub endpoints, the pregenerated
//! workload and the executor. The shard round, faults included, is the
//! simulator's [`shard_round`]; the run is replayed through its
//! [`RoundFold`] in the order `(round, deciding shard, index)`. Inboxes
//! arrive in the same `(sender, seq)` order and drops and duplicates
//! come from the same per-link streams, whatever the thread interleaving,
//! so [`run_net`] returns a [`RunReport`] **byte-identical** to the
//! simulator's for the same inputs and [`FaultPlan`]
//! (`tests/differential.rs` enforces it).

use crate::exec::run_lockstep;
use crate::hub::{NetEnvelope, NetHub, NetInbox, ShardPort};
use crate::sync::RoundGate;
use adversary::{Adversary, AdversaryConfig, RoundSource};
use cluster::ShardMetric;
use parking_lot::Mutex;
use schedulers::node::{shard_round, PlaneTotals, RoundFold, ShardFaults, Tick};
use schedulers::{
    BdsConfig, BdsNode, ColoringPolicy, CommitEvent, FdsConfig, FdsNode, Outbox, ProtocolNode,
    RunReport, Scheduler, SchedulerKind, ShardIo,
};
use sharding_core::{AccountMap, ReshardPlan, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::faults::FaultPlan;
use simnet::{LocalChain, ShardLedger};

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
    /// Injected faults (the simulator's run under the same plan is
    /// byte-identical).
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
    /// The standard per-run report (byte-identical to the simulator's).
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
    let (inject, generated) = pregenerate(source, s, run.rounds.raw());
    match run.protocol {
        Protocol::EpochHosted(kind, bcfg) => {
            let mut nodes = BdsNode::system(&bcfg, run.metric, true);
            if let Some(plan) = run.reshard {
                // A crashed shard losing a balance handoff is
                // unrecoverable state loss; the scenario layer rejects
                // the combination.
                assert!(run.faults.is_inert(), "resharding needs a fault-free run");
                BdsNode::arm_reshard(&mut nodes, plan.clone());
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
    faults: ShardFaults,
    ledger: ShardLedger,
    chain: LocalChain,
    policy: Box<dyn Scheduler>,
    port: ShardPort<'h, N::Msg>,
    inbox: NetInbox<'h, N::Msg>,
    /// Reusable drain buffer.
    buf: Vec<NetEnvelope<N::Msg>>,
    /// This shard's injections, per round.
    inject: Vec<Vec<Transaction>>,
    events: Vec<CommitEvent>,
    ticks: Vec<Tick<N::Sample>>,
}

/// Runs `nodes` (index = shard, each with its own `policy()`) for the
/// run's rounds, then replays the per-shard ticks and events through the
/// shared fold, reported under the policy's kind.
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
        .map(|(shard, (mut node, inject))| {
            let id = ShardId(shard as u32);
            let mut faults = ShardFaults::new(id, run.sys);
            faults.arm(&mut node, run.faults);
            Mutex::new(Slot {
                node,
                faults,
                ledger: ShardLedger::new(id, run.map, initial_balance),
                chain: LocalChain::new(id),
                policy: policy(),
                port: ShardPort::new(&hub, id, run.faults),
                inbox: NetInbox::new(&hub, id),
                buf: Vec::new(),
                inject,
                events: Vec::new(),
                ticks: Vec::with_capacity(total as usize),
            })
        })
        .collect();

    run_lockstep(&gate, &slots, total, run.workers, |slot, _, round| {
        // Generated work accumulates even on a crashed shard (it counts
        // as pending, unserviced).
        for t in std::mem::take(&mut slot.inject[round as usize]) {
            slot.node.inject(t);
        }
        // The executor only runs this once every peer finished round-1
        // sends; the drain below then sees all of them, and keeps ring
        // memory bounded on a crashed shard too.
        slot.inbox.drain_into(round, &mut slot.buf);
        let io = ShardIo {
            ledger: &mut slot.ledger,
            chain: &mut slot.chain,
            policy: slot.policy.as_mut(),
            out: &mut PortOutbox {
                port: &mut slot.port,
                round,
            },
            events: &mut slot.events,
        };
        let inbox = slot.buf.drain(..).map(|e| (e.from, e.payload));
        let tick = shard_round(&mut slot.node, &mut slot.faults, round, inbox, io);
        slot.ticks.push(tick);
    });

    // Flushing a port adds the shard's local message tallies into the
    // hub before the totals are read below.
    let done: Vec<Slot<'_, N>> = slots
        .into_iter()
        .map(|slot| {
            let mut slot = slot.into_inner();
            slot.port.flush();
            slot
        })
        .collect();

    let mut fold = RoundFold::<N>::new(s, run.metrics);
    let mut cursors = vec![0usize; s];
    for round in 0..total {
        for d in &done {
            fold.push(d.ticks[round as usize]);
        }
        // Replay in the simulator's order: round, deciding shard, index.
        fold.close(done.iter().zip(&mut cursors).flat_map(|(d, cursor)| {
            let start = *cursor;
            *cursor += d.events[start..]
                .iter()
                .take_while(|e| e.round == round)
                .count();
            d.events[start..*cursor].iter().copied()
        }));
    }
    let plane = PlaneTotals {
        sent: hub.sent_count(),
        max_message_bytes: hub.max_message_bytes(),
        dropped: hub.dropped_count(),
        duplicated: hub.duplicated_count(),
    };
    let shards = done.iter().map(|d| (&d.node, &d.faults));
    let (report, log) = fold.finish(done[0].policy.kind(), generated, shards, plane);
    let chains: Vec<LocalChain> = done.into_iter().map(|d| d.chain).collect();
    NetOutcome {
        report,
        chains_verified: chains.iter().all(LocalChain::verify),
        reshard_audit: run.reshard.map(|_| simnet::reshard_audit(&chains, &log)),
        committed_log: log,
    }
}
