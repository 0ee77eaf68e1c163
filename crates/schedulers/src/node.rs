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
//! Both record events in `(round, deciding shard, index)` order and fold
//! the per-shard [`ProtocolNode::sample`]s through the same
//! [`ProtocolNode::observe`], so fault-free runs produce byte-identical
//! reports on either transport.

use crate::metrics::{MetricsCollector, RunReport};
use crate::scheduler::Scheduler;
use cluster::ShardMetric;
use sharding_core::{AccountMap, Round, ShardId, Transaction, TxnId};
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

impl CommitEvent {
    /// Records the decision into the run's metrics and commit log.
    pub fn record(&self, collector: &mut MetricsCollector, log: &mut Vec<(Round, TxnId)>) {
        if self.committed {
            collector.record_commit(self.generated, self.commit_round, self.home);
            log.push((self.commit_round, self.txn));
        } else {
            collector.record_abort();
        }
    }
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
}

/// The largest `(epochs, max epoch length)` over `nodes`.
pub fn epoch_stats<'a, N: ProtocolNode + 'a>(
    nodes: impl IntoIterator<Item = &'a N>,
    rounds: u64,
) -> (u64, u64) {
    nodes.into_iter().fold((0, 0), |(e, l), n| {
        let (ne, nl) = n.epoch_stats(rounds);
        (e.max(ne), l.max(nl))
    })
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
    ledgers: Vec<ShardLedger>,
    chains: Vec<LocalChain>,
    policy: Box<dyn Scheduler>,
    collector: MetricsCollector,
    committed_log: Vec<(Round, TxnId)>,
    events: Vec<CommitEvent>,
    samples: Vec<N::Sample>,
    generated: u64,
    pending: u64,
    now: Round,
}

impl<N: ProtocolNode> NodeSim<N> {
    /// One node per shard of `metric`, ledgers seeded from `map`.
    pub(crate) fn from_nodes(
        metric: &dyn ShardMetric,
        map: &AccountMap,
        initial_balance: u64,
        nodes: Vec<N>,
        policy: Box<dyn Scheduler>,
    ) -> Self {
        let s = metric.shards();
        assert_eq!(nodes.len(), s, "one node per shard");
        let mut net = Network::new(metric);
        net.set_sizer(N::msg_bytes);
        NodeSim {
            net,
            nodes,
            ledgers: (0..s)
                .map(|i| ShardLedger::new(ShardId(i as u32), map, initial_balance))
                .collect(),
            chains: (0..s).map(|i| LocalChain::new(ShardId(i as u32))).collect(),
            policy,
            collector: MetricsCollector::new(s),
            committed_log: Vec::new(),
            events: Vec::new(),
            samples: Vec::with_capacity(s),
            generated: 0,
            pending: 0,
            now: Round::ZERO,
        }
    }

    /// Current round.
    pub fn now(&self) -> Round {
        self.now
    }

    /// Total pending transactions after the last round.
    pub fn total_pending(&self) -> u64 {
        self.pending
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
        &self.committed_log
    }

    /// Turns the metrics plane on (percentile histogram, per-shard
    /// utilization, epoch timeline). Off by default; enabling it changes
    /// nothing about scheduling decisions or legacy report bytes.
    pub fn enable_metrics(&mut self) {
        self.collector.enable_metrics();
    }

    /// Executes one round: injects `new_txns` at their home shards, runs
    /// every node's round on the messages due for it, then records the
    /// round's decisions and samples.
    pub fn step(&mut self, new_txns: Vec<Transaction>) {
        let now = self.now;
        self.generated += new_txns.len() as u64;
        for t in new_txns {
            self.nodes[t.home.index()].inject(t);
        }
        // Due messages come sorted by (destination, sender, seq): each
        // node takes the run addressed to it, each message moved once.
        let mut due = self.net.deliver_due(now).into_iter();
        self.samples.clear();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let id = ShardId(i as u32);
            let n = due.as_slice().iter().take_while(|e| e.to == id).count();
            let inbox = due.by_ref().take(n).map(|e| (e.from, e.payload));
            node.on_round(
                now.raw(),
                inbox,
                ShardIo {
                    ledger: &mut self.ledgers[i],
                    chain: &mut self.chains[i],
                    policy: self.policy.as_mut(),
                    out: &mut SimOutbox {
                        net: &mut self.net,
                        from: id,
                        now,
                    },
                    events: &mut self.events,
                },
            );
            self.samples.push(node.sample(now.raw()));
        }
        debug_assert!(
            due.next().is_none(),
            "message addressed past the last shard"
        );
        for e in self.events.drain(..) {
            e.record(&mut self.collector, &mut self.committed_log);
        }
        // The simulator is fault-free: no flips, no crashes.
        self.pending = N::observe(&mut self.collector, &self.samples, 0, 0);
        self.now = now.next();
    }

    /// Finalizes the run into a [`RunReport`], reported under the
    /// policy's kind (`BDS`/`FDS` for the coloring policies, the zoo kind
    /// otherwise).
    pub fn finish(self) -> RunReport {
        let rounds = self.now.raw();
        let (epochs, max_epoch_len) = epoch_stats(&self.nodes, rounds);
        self.collector.finish(
            self.policy.kind(),
            rounds,
            self.generated,
            self.pending,
            epochs,
            max_epoch_len,
            self.net.sent_count(),
            self.net.max_message_bytes(),
        )
    }
}
