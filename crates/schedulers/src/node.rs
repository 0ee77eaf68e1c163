//! One protocol, two transports: the contract between a per-shard
//! protocol node and the engine that moves its messages.
//!
//! Each protocol is written once, as a state machine for one shard
//! ([`BdsNode`](crate::bds::BdsNode), [`FdsNode`](crate::fds::FdsNode))
//! that does no I/O of its own. Per round, a transport hands the node the
//! messages due for it, the shard's ledger and chain, the epoch-planning
//! policy and an [`Outbox`]; the node handles the messages, runs its
//! phase triggers and reports decisions as [`CommitEvent`]s. Two
//! transports drive the same nodes:
//!
//! * the simulators ([`BdsSim`](crate::BdsSim), [`FdsSim`](crate::FdsSim))
//!   step every node of the system in shard order over one
//!   [`simnet::Network`];
//! * the networked engine in `runtime` gives each node its own slot,
//!   runs the slots concurrently over lock-free link rings and replays
//!   the commit events afterwards.
//!
//! Both run a shard's round, faults included, through [`shard_round`]
//! and fold the rounds through one [`RoundFold`] in `(round, deciding
//! shard, index)` order, so they differ only in how messages move and
//! their reports are byte-identical with or without a fault plan.

use crate::metrics::{MetricsCollector, RunReport, SchedulerKind};
use crate::scheduler::Scheduler;
use cluster::ShardMetric;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::faults::{FaultCounters, FaultPlan};
use simnet::pbft::{ConsensusOutcome, PbftShard};
use simnet::{LocalChain, Network, ShardLedger};

/// Where a node's outgoing messages go. The transport binds the sender
/// and the current round; the node names only the destination.
pub trait Outbox<M> {
    /// Sends `msg` to shard `to` in the current round.
    fn send(&mut self, to: ShardId, msg: M);

    /// Rounds until a message sent now reaches `to`: the metric distance,
    /// at least 1 (a message to self still takes a round).
    fn delay(&self, to: ShardId) -> u64;
}

/// What a node works on during one round without owning it.
pub struct ShardIo<'a, O> {
    /// The shard's account balances.
    pub ledger: &'a mut ShardLedger,
    /// The shard's local blockchain.
    pub chain: &'a mut LocalChain,
    /// The epoch-planning policy, consulted when this shard plans.
    pub policy: &'a mut dyn Scheduler,
    /// Outgoing messages.
    pub out: &'a mut O,
    /// Decisions taken this round, appended in decision order.
    pub events: &'a mut Vec<CommitEvent>,
}

/// One commit or abort decision taken at a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// Round the decision was taken.
    pub round: u64,
    /// Round the transaction was generated.
    pub generated: Round,
    /// Round the destinations apply it (the decision's arrival).
    pub commit_round: Round,
    /// The decided transaction.
    pub txn: TxnId,
    /// Its home shard.
    pub home: ShardId,
    /// Commit (`true`) or abort.
    pub committed: bool,
}

/// The votes collected for one transaction, at most one per voting shard:
/// a repeated vote from a shard replaces its earlier one. A duplicated
/// message, or a re-vote after a duplicated request, can therefore
/// neither complete the tally early nor count twice.
#[derive(Debug, Default)]
pub(crate) struct VoteTally(Vec<(ShardId, bool)>);

impl VoteTally {
    /// Records `from`'s vote and returns the number of distinct voters.
    pub(crate) fn record(&mut self, from: ShardId, commit: bool) -> usize {
        match self.0.iter_mut().find(|(s, _)| *s == from) {
            Some(v) => v.1 = commit,
            None => self.0.push((from, commit)),
        }
        self.0.len()
    }

    /// True when every recorded vote is a commit vote.
    pub(crate) fn all_commit(&self) -> bool {
        self.0.iter().all(|&(_, c)| c)
    }
}

/// A protocol's per-shard state machine.
pub trait ProtocolNode: Send {
    /// The protocol's messages.
    type Msg: Clone + Send;
    /// What the node reports about itself at the end of every round.
    type Sample: Copy + Send;

    /// Estimated wire size of a message in bytes (the `O(bs)` accounting).
    fn msg_bytes(msg: &Self::Msg) -> usize;

    /// Queues a transaction generated at this (home) shard.
    fn inject(&mut self, txn: Transaction);

    /// Runs one round: handles `inbox` (sorted by sender, then sender
    /// order), then the protocol's phase triggers for `round`.
    fn on_round<O: Outbox<Self::Msg>>(
        &mut self,
        round: u64,
        inbox: impl IntoIterator<Item = (ShardId, Self::Msg)>,
        io: ShardIo<'_, O>,
    );

    /// The end-of-`round` sample.
    fn sample(&self, round: u64) -> Self::Sample;

    /// Folds one round's samples (index = shard) into `collector` with
    /// the round's cumulative Byzantine flips and crashed-shard count;
    /// returns the total pending transactions.
    fn observe(
        collector: &mut MetricsCollector,
        samples: &[Self::Sample],
        byz: u64,
        crashed: u64,
    ) -> u64;

    /// `(epochs, max epoch length)` as this node saw them after `rounds`
    /// rounds; a report takes the maximum over nodes.
    fn epoch_stats(&self, rounds: u64) -> (u64, u64);

    /// Arms the run's fault plan before round 0 (a node turns off checks
    /// that hold only when nothing is lost).
    fn arm_faults(&mut self, _plan: &FaultPlan) {}
}

/// One shard's fault state: its PBFT membership, crash round and
/// Byzantine voters per consensus, and the faults injected so far.
#[derive(Debug, Clone)]
pub struct ShardFaults {
    pbft: PbftShard,
    crash_at: Option<u64>,
    flips: usize,
    counters: FaultCounters,
}

impl ShardFaults {
    /// Fault-free state for shard `id` of `sys`.
    pub fn new(id: ShardId, sys: &SystemConfig) -> Self {
        ShardFaults {
            pbft: PbftShard::new(id, sys.nodes_per_shard, sys.faulty_per_shard)
                .expect("validated config"),
            crash_at: None,
            flips: 0,
            counters: FaultCounters::default(),
        }
    }

    /// Arms `plan` on this shard and on its `node` (before round 0).
    pub fn arm<N: ProtocolNode>(&mut self, node: &mut N, plan: &FaultPlan) {
        self.crash_at = plan.crash_round(self.pbft.shard()).map(Round::raw);
        self.flips = plan.byz_flips_for(self.pbft.faulty());
        node.arm_faults(plan);
    }
}

/// What one shard's round leaves for the fold: the node's sample, the
/// shard's Byzantine flips so far, and whether it is crashed.
#[derive(Debug, Clone, Copy)]
pub struct Tick<S>(S, u64, bool);

/// Runs one shard's round on either transport: counts the crash at its
/// round and discards a crashed shard's inbox (a dead shard neither
/// sends nor processes); otherwise runs the round's intra-shard PBFT on
/// the inbox digest with the plan's Byzantine voters (purely local: it
/// never touches the report), then the node's round.
pub fn shard_round<N: ProtocolNode, O: Outbox<N::Msg>>(
    node: &mut N,
    faults: &mut ShardFaults,
    round: u64,
    inbox: impl ExactSizeIterator<Item = (ShardId, N::Msg)>,
    io: ShardIo<'_, O>,
) -> Tick<N::Sample> {
    faults.counters.crashes += u64::from(faults.crash_at == Some(round));
    let crashed = faults.crash_at.is_some_and(|c| round >= c);
    if crashed {
        inbox.for_each(drop);
    } else {
        let shard = faults.pbft.shard().raw() as u64;
        let digest = round ^ ((inbox.len() as u64) << 32) ^ shard;
        let outcome = faults.pbft.decide_with_byzantine(digest, faults.flips);
        debug_assert_eq!(outcome, ConsensusOutcome::Decided(digest));
        faults.counters.byz_flips += faults.flips as u64;
        node.on_round(round, inbox, io);
    }
    Tick(node.sample(round), faults.counters.byz_flips, crashed)
}

/// A message plane's end-of-run totals.
#[derive(Debug, Clone, Copy)]
pub struct PlaneTotals {
    /// Protocol sends attempted, dropped ones included.
    pub sent: u64,
    /// Largest message payload in bytes.
    pub max_message_bytes: u64,
    /// Messages the fault plane dropped.
    pub dropped: u64,
    /// Messages the fault plane duplicated.
    pub duplicated: u64,
}

/// The per-round fold and report assembly of a run, shared by both
/// transports: the simulator closes each round live, the networked
/// engine replays its per-shard ticks and events after the run.
pub struct RoundFold<N: ProtocolNode> {
    collector: MetricsCollector,
    log: Vec<(Round, TxnId)>,
    samples: Vec<N::Sample>,
    byz: u64,
    crashed: u64,
    pending: u64,
    rounds: u64,
}

impl<N: ProtocolNode> RoundFold<N> {
    /// An empty fold over `shards` shards, with the metrics plane on
    /// when `metrics` is set (see [`NodeSim::enable_metrics`]).
    pub fn new(shards: usize, metrics: bool) -> Self {
        let mut collector = MetricsCollector::new(shards);
        if metrics {
            collector.enable_metrics();
        }
        RoundFold {
            collector,
            log: Vec::new(),
            samples: Vec::with_capacity(shards),
            byz: 0,
            crashed: 0,
            pending: 0,
            rounds: 0,
        }
    }

    /// Adds the next shard's tick of the open round (shard order).
    pub fn push(&mut self, Tick(sample, byz, crashed): Tick<N::Sample>) {
        self.samples.push(sample);
        self.byz += byz;
        self.crashed += u64::from(crashed);
    }

    /// Closes the round: records its decisions (in deciding-shard
    /// order, then decision order) into the metrics and the commit log,
    /// then folds the pushed ticks through [`ProtocolNode::observe`].
    pub fn close(&mut self, events: impl IntoIterator<Item = CommitEvent>) {
        for e in events {
            if e.committed {
                self.collector
                    .record_commit(e.generated, e.commit_round, e.home);
                self.log.push((e.commit_round, e.txn));
            } else {
                self.collector.record_abort();
            }
        }
        self.pending = N::observe(&mut self.collector, &self.samples, self.byz, self.crashed);
        self.samples.clear();
        (self.byz, self.crashed) = (0, 0);
        self.rounds += 1;
    }

    /// Assembles the report under `kind` and returns it with the commit
    /// log. `shards` gives every shard's node and fault state: the
    /// report takes the furthest epoch view over the nodes (a crashed or
    /// desynced shard's counters freeze) and the sum of the injected
    /// faults, with drops and duplicates from the message `plane`.
    pub fn finish<'a>(
        self,
        kind: SchedulerKind,
        generated: u64,
        shards: impl IntoIterator<Item = (&'a N, &'a ShardFaults)>,
        plane: PlaneTotals,
    ) -> (RunReport, Vec<(Round, TxnId)>)
    where
        N: 'a,
    {
        let (mut epochs, mut max_epoch_len) = (0, 0);
        let mut faults = FaultCounters::default();
        for (node, f) in shards {
            let (e, l) = node.epoch_stats(self.rounds);
            (epochs, max_epoch_len) = (epochs.max(e), max_epoch_len.max(l));
            faults.merge(&f.counters);
        }
        faults.dropped = plane.dropped;
        faults.duplicated = plane.duplicated;
        let mut report = self.collector.finish(
            kind,
            self.rounds,
            generated,
            self.pending,
            epochs,
            max_epoch_len,
            plane.sent,
            plane.max_message_bytes,
        );
        report.faults = faults;
        (report, self.log)
    }
}

/// The simulator's outbox: a send from `from` at `now` on the shared
/// network.
struct SimOutbox<'a, M> {
    net: &'a mut Network<M>,
    from: ShardId,
    now: Round,
}

impl<M: Clone> Outbox<M> for SimOutbox<'_, M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.net.send(self.from, to, self.now, msg);
    }

    fn delay(&self, to: ShardId) -> u64 {
        self.net.distance(self.from, to).max(1)
    }
}

/// The simulator transport: every node of the system stepped in shard
/// order over one [`Network`], with one shared policy. [`BdsSim`] and
/// [`FdsSim`] are this type over their protocol's node; drive it with
/// [`NodeSim::step`] once per round.
///
/// [`BdsSim`]: crate::BdsSim
/// [`FdsSim`]: crate::FdsSim
pub struct NodeSim<N: ProtocolNode> {
    net: Network<N::Msg>,
    pub(crate) nodes: Vec<N>,
    faults: Vec<ShardFaults>,
    ledgers: Vec<ShardLedger>,
    chains: Vec<LocalChain>,
    policy: Box<dyn Scheduler>,
    fold: RoundFold<N>,
    events: Vec<CommitEvent>,
    generated: u64,
    now: Round,
}

impl<N: ProtocolNode> NodeSim<N> {
    /// One node per shard of `sys` over `metric`, ledgers seeded from
    /// `map`, fault-free until [`set_faults`](Self::set_faults).
    pub(crate) fn from_nodes(
        sys: &SystemConfig,
        metric: &dyn ShardMetric,
        map: &AccountMap,
        initial_balance: u64,
        nodes: Vec<N>,
        policy: Box<dyn Scheduler>,
    ) -> Self {
        sys.validate().expect("valid system config");
        let s = metric.shards();
        assert_eq!(s, sys.shards);
        assert_eq!(nodes.len(), s, "one node per shard");
        let mut net = Network::new(metric);
        net.set_sizer(N::msg_bytes);
        let ids = || (0..s as u32).map(ShardId);
        NodeSim {
            net,
            nodes,
            faults: ids().map(|id| ShardFaults::new(id, sys)).collect(),
            ledgers: ids()
                .map(|id| ShardLedger::new(id, map, initial_balance))
                .collect(),
            chains: ids().map(LocalChain::new).collect(),
            policy,
            fold: RoundFold::new(s, false),
            events: Vec::new(),
            generated: 0,
            now: Round::ZERO,
        }
    }

    /// Arms a fault plan: drops and duplicates on the network, crashes
    /// and Byzantine voters in the shard rounds. Must be called before
    /// the first step, like a reshard plan.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        plan.validate(self.nodes.len()).expect("valid fault plan");
        assert_eq!(self.now, Round::ZERO, "fault plan armed after round 0");
        self.net.set_faults(plan.clone());
        for (node, faults) in self.nodes.iter_mut().zip(&mut self.faults) {
            faults.arm(node, plan);
        }
    }

    /// Current round.
    pub fn now(&self) -> Round {
        self.now
    }

    /// Total pending transactions after the last round.
    pub fn total_pending(&self) -> u64 {
        self.fold.pending
    }

    /// The local blockchains (one per shard).
    pub fn chains(&self) -> &[LocalChain] {
        &self.chains
    }

    /// The shard ledgers.
    pub fn ledgers(&self) -> &[ShardLedger] {
        &self.ledgers
    }

    /// Commit log: (commit round, transaction id) in commit order.
    pub fn committed_log(&self) -> &[(Round, TxnId)] {
        &self.fold.log
    }

    /// Turns the metrics plane on (percentile histogram, per-shard
    /// utilization, epoch timeline). Off by default; enabling it changes
    /// nothing about scheduling decisions or legacy report bytes.
    pub fn enable_metrics(&mut self) {
        self.fold.collector.enable_metrics();
    }

    /// Executes one round: injects `new_txns` at their home shards, runs
    /// every shard's round on the messages due for it, then closes the
    /// round in the fold.
    pub fn step(&mut self, new_txns: Vec<Transaction>) {
        let now = self.now;
        self.generated += new_txns.len() as u64;
        for t in new_txns {
            self.nodes[t.home.index()].inject(t);
        }
        // Due messages come sorted by (destination, sender, seq): each
        // node takes the run addressed to it, each message moved once.
        let mut due = self.net.deliver_due(now).into_iter();
        for (i, (node, faults)) in self.nodes.iter_mut().zip(&mut self.faults).enumerate() {
            let id = ShardId(i as u32);
            let n = due.as_slice().iter().take_while(|e| e.to == id).count();
            let inbox = due.by_ref().take(n).map(|e| (e.from, e.payload));
            let io = ShardIo {
                ledger: &mut self.ledgers[i],
                chain: &mut self.chains[i],
                policy: self.policy.as_mut(),
                out: &mut SimOutbox {
                    net: &mut self.net,
                    from: id,
                    now,
                },
                events: &mut self.events,
            };
            self.fold
                .push(shard_round(node, faults, now.raw(), inbox, io));
        }
        debug_assert!(
            due.next().is_none(),
            "message addressed past the last shard"
        );
        self.fold.close(self.events.drain(..));
        self.now = now.next();
    }

    /// Finalizes the run into a [`RunReport`], reported under the
    /// policy's kind (`BDS`/`FDS` for the coloring policies, the zoo kind
    /// otherwise).
    pub fn finish(self) -> RunReport {
        let plane = PlaneTotals {
            sent: self.net.sent_count(),
            max_message_bytes: self.net.max_message_bytes(),
            dropped: self.net.dropped_count(),
            duplicated: self.net.duplicated_count(),
        };
        let shards = self.nodes.iter().zip(&self.faults);
        let kind = self.policy.kind();
        self.fold.finish(kind, self.generated, shards, plane).0
    }
}
