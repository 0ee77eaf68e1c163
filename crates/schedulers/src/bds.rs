//! **Algorithm 1 — Basic Distributed Scheduler (BDS)** for the uniform
//! communication model (Section 5 of the paper).
//!
//! Time is divided into epochs. Each epoch has a leader shard (rotating:
//! `S_(epoch mod s)`), and three phases:
//!
//! 1. **Knowledge sharing** — every home shard sends all transactions
//!    pending at the epoch start to the leader.
//! 2. **Graph coloring** — the leader builds the conflict graph `G` of the
//!    received transactions and colors it (greedy, ≤ Δ+1 colors), then
//!    broadcasts the epoch plan — per-shard color assignments plus the
//!    color count — to every shard, since without shared memory the
//!    epoch length must be learned from a message (epochs with nothing
//!    to schedule broadcast nothing; shards advance after the two
//!    coordination gaps).
//! 3. **Schedule and commit** — color class `z` runs a four-round protocol
//!    starting at its designated offset: home shards split transactions
//!    into subtransactions and send them to destination shards (round 1);
//!    destinations validate and vote (round 2); homes confirm commit/abort
//!    (round 3); destinations append to their local blockchains (round 4).
//!
//! The epoch ends after `2 + 4·C` phase-gaps (`C` = number of colors). In
//! the uniform model the phase gap is one round, exactly the paper's
//! timing; on a non-uniform metric the implementation stretches every
//! phase to the diameter `D`, preserving correctness (BDS is only
//! *analyzed* for the uniform model, but running it elsewhere is useful
//! for the ablation benches).
//!
//! The protocol is written once, as the per-shard [`BdsNode`]. [`BdsSim`]
//! steps one node per shard over [`simnet::Network`], so message counts
//! and delivery timing are measured, not assumed; the networked engine in
//! `runtime` runs the same nodes concurrently (see [`crate::node`]).

use crate::metrics::{MetricsCollector, RunReport, SchedulerKind};
use crate::node::{CommitEvent, NodeSim, Outbox, ProtocolNode, ShardIo, VoteTally};
use crate::scheduler::{ColoringPolicy, Scheduler};
use adversary::AdversaryConfig;
use cluster::{ShardMetric, UniformMetric};
use conflict::ColoringStrategy;
use sharding_core::txn::SubTransaction;
use sharding_core::{
    AccountId, AccountMap, ReshardPlan, Round, ShardId, SystemConfig, Transaction, TxnId,
};
use simnet::{FaultPlan, ShardLedger};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunables of the BDS run (the algorithm itself has no free parameters;
/// these select implementation variants for ablations).
#[derive(Debug, Clone, Copy)]
pub struct BdsConfig {
    /// Coloring algorithm used by the leader (paper: greedy).
    pub coloring: ColoringStrategy,
    /// Rotate the leader every epoch (paper: yes). Off = fixed `S_0`,
    /// used by the leader-rotation ablation.
    pub rotate_leader: bool,
    /// Initial balance of every account.
    pub initial_balance: u64,
}

impl Default for BdsConfig {
    fn default() -> Self {
        BdsConfig {
            coloring: ColoringStrategy::Greedy,
            rotate_leader: true,
            initial_balance: 1_000_000,
        }
    }
}

/// Messages of the BDS protocol.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Phase 1: home shard → leader, all pending transactions.
    TxnInfo(Vec<Transaction>),
    /// Phase 2: leader → **every** shard, that shard's color assignments
    /// (possibly empty) plus the epoch's color count. Broadcast because
    /// without shared memory every shard must learn the epoch length from
    /// a message. Empty epochs broadcast nothing; shards advance by the
    /// two-gap timeout instead.
    ColorAssign {
        /// `(txn, color)` for the receiving home shard.
        assignments: Vec<(TxnId, u32)>,
        /// Total colors in this epoch (fixes the epoch length).
        num_colors: u32,
    },
    /// Phase 3 round 1: home → destination, subtransaction to validate.
    SubTxn(SubTransaction),
    /// Phase 3 round 2: destination → home, commit/abort vote.
    Vote {
        /// The voted transaction.
        txn: TxnId,
        /// The destination's validity verdict.
        commit: bool,
    },
    /// Phase 3 round 3: home → destination, final decision.
    Decision {
        /// The decided transaction.
        txn: TxnId,
        /// Commit (`true`) or abort.
        commit: bool,
    },
    /// Migration boundary: leader → **every** shard, announcing that the
    /// pre-agreed reshard plan's next table version is now live. The plan
    /// itself is configuration (like the fault plan), so only the version
    /// index travels; the broadcast is the measured activation signal.
    TableUpdate {
        /// Index into the reshard plan's version sequence.
        version: u32,
    },
    /// Migration boundary: old owner → new owner, the account balances
    /// whose vnodes changed hands under the new table.
    Handoff {
        /// `(account, balance)` pairs surrendered to the receiver.
        accounts: Vec<(AccountId, u64)>,
    },
}

/// Per-transaction state at its home shard during the epoch it is
/// scheduled in.
#[derive(Debug)]
struct EpochEntry {
    txn: Transaction,
    votes: VoteTally,
    decided: bool,
}

/// One shard of the BDS epoch host: its home queue and epoch set, its
/// parked subtransactions as a destination, and — in the epochs it
/// leads — the leader's buffer and plan broadcast. The epoch-planning
/// step is the [`Scheduler`] handed in through [`ShardIo`], so the same
/// node hosts BDS proper and every zoo policy.
pub struct BdsNode {
    id: ShardId,
    shards: usize,
    rotate_leader: bool,
    /// Phase gap: 1 in the uniform model, metric diameter otherwise.
    gap: u64,
    /// Checks the end-of-epoch invariant that only holds without faults.
    fault_free: bool,
    /// Pre-agreed reshard schedule (configuration, like the fault plan)
    /// and this node's current version index. Every node advances at the
    /// same absolute rollover rounds, so none needs another's table.
    reshard: Option<Arc<ReshardPlan>>,
    rv: usize,
    /// Newly generated transactions waiting for the next epoch (the
    /// paper's "pending transactions queue").
    injection: Vec<Transaction>,
    /// Transactions being processed in the current epoch. Decided entries
    /// are retired at the epoch boundary, so the map holds one epoch's
    /// worth of transactions, not the whole run's.
    epoch_txns: BTreeMap<TxnId, EpochEntry>,
    /// Per color: the transactions to dispatch when that color's
    /// round-group starts, filled by the `ColorAssign` handler.
    color_groups: Vec<Vec<TxnId>>,
    /// Subtransactions parked here as a destination, awaiting the
    /// decision.
    parked: BTreeMap<TxnId, SubTransaction>,
    /// Subtransactions committed this round, appended as one block at the
    /// end of the round (the paper's multiple-transactions-per-block
    /// extension).
    append_buf: Vec<SubTransaction>,
    /// Transactions buffered here as the epoch leader before planning.
    leader_buffer: Vec<Transaction>,
    now: u64,
    epoch: u64,
    epoch_start: u64,
    /// Known end of the current epoch: set when this shard plans as the
    /// leader, or from the broadcast plan on arrival. `None` until then;
    /// the two-gap timeout covers plan-free (empty) epochs.
    next_epoch_at: Option<u64>,
    /// Undecided transactions in `epoch_txns`.
    undecided: u64,
    max_epoch_len: u64,
}

/// What a [`BdsNode`] reports at the end of a round.
#[derive(Debug, Clone, Copy)]
pub struct BdsSample {
    /// Queued plus undecided transactions homed here.
    pub pending: u64,
    /// The node's epoch.
    pub epoch: u64,
    /// Active shards under the node's reshard table.
    pub active: u64,
}

impl BdsNode {
    /// One node per shard of `metric`. `fault_free` enables the
    /// invariant checks that only hold when no message is lost.
    pub fn system(bcfg: &BdsConfig, metric: &dyn ShardMetric, fault_free: bool) -> Vec<BdsNode> {
        let shards = metric.shards();
        (0..shards as u32)
            .map(|i| BdsNode {
                id: ShardId(i),
                shards,
                rotate_leader: bcfg.rotate_leader,
                gap: metric.diameter().max(1),
                fault_free,
                reshard: None,
                rv: 0,
                injection: Vec::new(),
                epoch_txns: BTreeMap::new(),
                color_groups: Vec::new(),
                parked: BTreeMap::new(),
                append_buf: Vec::new(),
                leader_buffer: Vec::new(),
                now: 0,
                epoch: 0,
                epoch_start: 0,
                next_epoch_at: None,
                undecided: 0,
                max_epoch_len: 0,
            })
            .collect()
    }

    /// Arms a live-migration schedule on every node of a system (before
    /// the first round), which must be provisioned for the plan's `s_max`.
    pub fn arm_reshard(nodes: &mut [BdsNode], plan: ReshardPlan) {
        assert_eq!(
            plan.s_max,
            nodes.len(),
            "system must be provisioned for the plan's s_max"
        );
        let plan = Arc::new(plan);
        for node in nodes {
            node.reshard = Some(Arc::clone(&plan));
        }
    }

    /// The leader shard of the node's current epoch.
    pub fn leader(&self) -> ShardId {
        if self.rotate_leader {
            ShardId((self.epoch % self.shards as u64) as u32)
        } else {
            ShardId(0)
        }
    }

    /// The node's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Active (vnode-owning) shards under the node's current table: the
    /// reshard version's active-set size, or every shard for static runs.
    pub fn active_shards(&self) -> u64 {
        self.reshard.as_ref().map_or(self.shards as u64, |p| {
            p.versions[self.rv].active.len() as u64
        })
    }

    /// Steps the reshard plan through every version whose activation
    /// round has passed. Per advanced version the epoch leader broadcasts
    /// the activation signal, then this node hands off its departing
    /// account balances (ascending destination).
    fn advance_reshard<O: Outbox<Msg>>(
        &mut self,
        round: u64,
        ledger: &mut ShardLedger,
        out: &mut O,
    ) {
        let Some(plan) = self.reshard.clone() else {
            return;
        };
        while self.rv + 1 < plan.versions.len() && plan.versions[self.rv + 1].at <= round {
            let old = self.rv;
            self.rv += 1;
            if self.id == self.leader() {
                for h in 0..self.shards {
                    out.send(
                        ShardId(h as u32),
                        Msg::TableUpdate {
                            version: self.rv as u32,
                        },
                    );
                }
            }
            let mut batches: BTreeMap<ShardId, Vec<(AccountId, u64)>> = BTreeMap::new();
            for (account, from, to) in plan.moves(old) {
                if from != self.id {
                    continue;
                }
                let balance = ledger
                    .remove_account(account)
                    .expect("migrating account owned by its old shard");
                batches.entry(to).or_default().push((account, balance));
            }
            for (to, accounts) in batches {
                out.send(to, Msg::Handoff { accounts });
            }
        }
    }

    /// Phase 1: drain the pending queue into the epoch set and forward it
    /// to the leader.
    fn phase1_send_pending<O: Outbox<Msg>>(&mut self, out: &mut O) {
        let mut drained = std::mem::take(&mut self.injection);
        // Under a reshard plan, rebuild each transaction's shard grouping
        // against the *current* table: the source may have grouped under
        // an older version (its version switches at event rounds, the
        // engine's at migration epoch boundaries). Homes stay as
        // assigned — accesses are account-based, so conflict coloring is
        // placement-independent.
        if let Some(plan) = &self.reshard {
            let map = &plan.versions[self.rv].map;
            for t in &mut drained {
                *t = t.regrouped(map);
            }
        }
        self.undecided += drained.len() as u64;
        out.send(self.leader(), Msg::TxnInfo(drained.clone()));
        for t in drained {
            self.epoch_txns.insert(
                t.id,
                EpochEntry {
                    txn: t,
                    votes: VoteTally::default(),
                    decided: false,
                },
            );
        }
    }

    /// Phase 2 (at the leader): plan the epoch via the policy (BDS
    /// proper: build the conflict graph and color it), broadcast the plan
    /// (per-shard assignments + slot count) to every shard, and fix the
    /// epoch length.
    fn phase2_plan<O: Outbox<Msg>>(&mut self, policy: &mut dyn Scheduler, out: &mut O) {
        let txns = std::mem::take(&mut self.leader_buffer);
        let mut num_colors = 0;
        if !txns.is_empty() {
            let plan = policy.plan_epoch(self.epoch, &txns);
            debug_assert!(
                plan.is_safe_for(&txns),
                "{} violated the epoch-plan safety contract",
                policy.kind()
            );
            num_colors = plan.num_slots;
            // Group assignments by home shard, then broadcast in shard
            // order: shards with no scheduled transactions still need the
            // color count to know when the epoch ends.
            let mut per_home = vec![Vec::new(); self.shards];
            for (v, t) in txns.iter().enumerate() {
                per_home[t.home.index()].push((t.id, plan.slot(v)));
            }
            for (h, assignments) in per_home.into_iter().enumerate() {
                out.send(
                    ShardId(h as u32),
                    Msg::ColorAssign {
                        assignments,
                        num_colors,
                    },
                );
            }
        }
        // Epoch length: 2 phase-gaps + 4 phase-gaps per color (paper:
        // 2 + 4(Δ+1) rounds in the uniform model). An empty epoch is just
        // the two coordination gaps.
        self.next_epoch_at = Some(self.epoch_start + self.gap * (2 + 4 * num_colors as u64));
    }

    /// Phase 3: at round `epoch_start + gap·(2 + 4z)` send the
    /// subtransactions of the color-`z` transactions, taken from the
    /// per-color dispatch index built when the assignments arrived.
    fn phase3_dispatch<O: Outbox<Msg>>(&mut self, out: &mut O) {
        let elapsed = self.now - self.epoch_start;
        if elapsed < 2 * self.gap {
            return;
        }
        let offset = elapsed - 2 * self.gap;
        if !offset.is_multiple_of(4 * self.gap) {
            return;
        }
        let z = (offset / (4 * self.gap)) as usize;
        let Some(group) = self.color_groups.get_mut(z) else {
            return;
        };
        for txn in std::mem::take(group) {
            let Some(entry) = self.epoch_txns.get(&txn) else {
                continue;
            };
            if entry.decided {
                continue;
            }
            for sub in &entry.txn.subs {
                out.send(sub.dest, Msg::SubTxn(sub.clone()));
            }
        }
    }

    fn handle<O: Outbox<Msg>>(&mut self, from: ShardId, msg: Msg, io: &mut ShardIo<'_, O>) {
        match msg {
            Msg::TxnInfo(txns) => self.leader_buffer.extend(txns),
            Msg::ColorAssign {
                assignments,
                num_colors,
            } => {
                debug_assert!(num_colors > 0, "empty epochs broadcast no plan");
                self.next_epoch_at =
                    Some(self.epoch_start + self.gap * (2 + 4 * num_colors as u64));
                for (txn, color) in assignments {
                    if self.epoch_txns.contains_key(&txn) {
                        let z = color as usize;
                        if self.color_groups.len() <= z {
                            self.color_groups.resize_with(z + 1, Vec::new);
                        }
                        self.color_groups[z].push(txn);
                    }
                }
            }
            Msg::SubTxn(sub) => {
                let commit = io.ledger.check(&sub);
                let txn = sub.txn;
                self.parked.insert(txn, sub);
                // The vote goes back to the transaction's home shard.
                io.out.send(from, Msg::Vote { txn, commit });
            }
            Msg::Vote { txn, commit } => {
                let Some(e) = self.epoch_txns.get_mut(&txn) else {
                    return;
                };
                if e.votes.record(from, commit) < e.txn.shard_count() || e.decided {
                    return;
                }
                e.decided = true;
                self.undecided -= 1;
                let commit_all = e.votes.all_commit();
                for dest in e.txn.shards() {
                    io.out.send(
                        dest,
                        Msg::Decision {
                            txn,
                            commit: commit_all,
                        },
                    );
                }
                // The commit lands when the decision reaches the first
                // destination.
                let commit_round = self.now + io.out.delay(e.txn.subs[0].dest);
                io.events.push(CommitEvent {
                    round: self.now,
                    generated: e.txn.generated,
                    commit_round: Round(commit_round),
                    txn,
                    home: self.id,
                    committed: commit_all,
                });
            }
            Msg::Decision { txn, commit } => {
                if let Some(sub) = self.parked.remove(&txn) {
                    if commit {
                        io.ledger.apply(&sub);
                        self.append_buf.push(sub);
                    }
                }
            }
            Msg::TableUpdate { version } => {
                // The plan is pre-agreed configuration and rollovers are
                // simultaneous absolute rounds, so the recipient already
                // switched when the signal arrives; cross-check only.
                debug_assert_eq!(
                    version as usize, self.rv,
                    "table-update version does not match the live table"
                );
            }
            Msg::Handoff { accounts } => {
                for (account, balance) in accounts {
                    io.ledger.absorb(account, balance);
                }
            }
        }
    }
}

impl ProtocolNode for BdsNode {
    type Msg = Msg;
    type Sample = BdsSample;

    fn msg_bytes(m: &Msg) -> usize {
        match m {
            Msg::TxnInfo(txns) => 16 + txns.iter().map(|t| t.approx_bytes()).sum::<usize>(),
            Msg::ColorAssign { assignments, .. } => 8 + 12 * assignments.len(),
            Msg::SubTxn(sub) => sub.approx_bytes(),
            Msg::Vote { .. } | Msg::Decision { .. } => 17,
            Msg::TableUpdate { .. } => 12,
            Msg::Handoff { accounts } => 8 + 16 * accounts.len(),
        }
    }

    fn inject(&mut self, txn: Transaction) {
        self.injection.push(txn);
    }

    fn on_round<O: Outbox<Msg>>(
        &mut self,
        round: u64,
        inbox: impl IntoIterator<Item = (ShardId, Msg)>,
        mut io: ShardIo<'_, O>,
    ) {
        self.now = round;
        // 1. Delivery runs *before* the epoch transition: rollover
        //    knowledge can only come from messages delivered this round
        //    (a plan crossing the full diameter lands exactly at the
        //    earliest possible rollover).
        for (from, msg) in inbox {
            self.handle(from, msg, &mut io);
        }

        // 2. Epoch rollover: the plan fixed the end, or the epoch was
        //    empty (no plan broadcast) and the two coordination gaps have
        //    passed.
        let rollover = self.next_epoch_at == Some(round)
            || (self.next_epoch_at.is_none() && round == self.epoch_start + 2 * self.gap);
        if rollover {
            self.max_epoch_len = self.max_epoch_len.max(round - self.epoch_start);
            self.epoch += 1;
            self.epoch_start = round;
            self.next_epoch_at = None;
            // Retire the finished epoch's state. The epoch length
            // `2 + 4·C` gaps covers every color group's full vote
            // round-trip, so without faults every entry is decided by now.
            debug_assert!(
                !self.fault_free || self.epoch_txns.values().all(|e| e.decided),
                "undecided entry survived its epoch without faults"
            );
            self.epoch_txns.retain(|_, e| !e.decided);
            for g in &mut self.color_groups {
                g.clear();
            }
            // Migration epoch boundary: switch tables before phase 1 so
            // the new epoch schedules under the new placement. Fault-free
            // epochs end with the network quiescent, so ownership moves
            // cannot race in-flight subtransactions.
            self.advance_reshard(round, io.ledger, io.out);
        }

        // 3. Phase 1: forward pending transactions to the epoch leader.
        if round == self.epoch_start && !self.injection.is_empty() {
            self.phase1_send_pending(io.out);
        }

        // 4. Phase 2 (leader only), once all phase-1 messages are in.
        if round == self.epoch_start + self.gap
            && self.next_epoch_at.is_none()
            && self.id == self.leader()
        {
            self.phase2_plan(io.policy, io.out);
        }

        // 5. Phase 3: dispatch the color group designated for this round.
        self.phase3_dispatch(io.out);

        // 6. Seal this round's commits into one block.
        if !self.append_buf.is_empty() {
            let batch = std::mem::take(&mut self.append_buf);
            io.chain.append_block(batch, Round(round));
        }
    }

    fn sample(&self, _round: u64) -> BdsSample {
        BdsSample {
            pending: self.injection.len() as u64 + self.undecided,
            epoch: self.epoch,
            active: self.active_shards(),
        }
    }

    fn observe(
        collector: &mut MetricsCollector,
        samples: &[BdsSample],
        byz: u64,
        crashed: u64,
    ) -> u64 {
        let total_pending: u64 = samples.iter().map(|s| s.pending).sum();
        collector.sample_pending(total_pending);
        // Without faults every shard observes the same epoch and table at
        // the same absolute round (both are learned from broadcasts), so
        // `max` is the system's single view; under faults it reports the
        // furthest live view.
        let epoch = samples.iter().map(|s| s.epoch).max().unwrap_or(0);
        let active = samples.iter().map(|s| s.active).max().unwrap_or(0);
        collector
            .sink
            .on_round(epoch, total_pending, byz, crashed, active);
        total_pending
    }

    fn epoch_stats(&self, _rounds: u64) -> (u64, u64) {
        (self.epoch, self.max_epoch_len)
    }

    fn arm_faults(&mut self, plan: &FaultPlan) {
        self.fault_free = plan.is_inert();
    }
}

/// The BDS simulator: one [`BdsNode`] per shard, stepped in shard order
/// over one [`simnet::Network`]. Drive it with [`NodeSim::step`] once per
/// round.
pub type BdsSim = NodeSim<BdsNode>;

impl NodeSim<BdsNode> {
    /// Creates a BDS simulation over the uniform metric.
    pub fn new(sys: &SystemConfig, map: &AccountMap, bcfg: BdsConfig) -> Self {
        Self::with_metric(sys, map, bcfg, &UniformMetric::new(sys.shards))
    }

    /// Creates a BDS simulation over an arbitrary metric (phases stretch
    /// to the metric diameter).
    pub fn with_metric(
        sys: &SystemConfig,
        map: &AccountMap,
        bcfg: BdsConfig,
        metric: &dyn ShardMetric,
    ) -> Self {
        let policy = ColoringPolicy::new(SchedulerKind::Bds, bcfg.coloring, sys.accounts);
        Self::with_policy(sys, map, bcfg, metric, Box::new(policy))
    }

    /// Creates the epoch host around an arbitrary epoch-planning
    /// [`Scheduler`]. The whole BDS machinery (leader rotation, plan
    /// broadcast, per-color four-round commit protocol) is reused; only
    /// the phase-2 planning step runs `policy`, and the final report
    /// carries `policy.kind()`. This is how the scheduler-zoo kinds run
    /// — see [`SchedulerKind::epoch_policy`].
    pub fn with_policy(
        sys: &SystemConfig,
        map: &AccountMap,
        bcfg: BdsConfig,
        metric: &dyn ShardMetric,
        policy: Box<dyn Scheduler>,
    ) -> Self {
        let nodes = BdsNode::system(&bcfg, metric, true);
        NodeSim::from_nodes(sys, metric, map, bcfg.initial_balance, nodes, policy)
    }

    /// Arms a live-migration schedule. Must be called before the first
    /// step; the system must be provisioned for the plan's `s_max` and
    /// the account map used at construction must match the plan's
    /// version-0 placement (the scenario executor guarantees both).
    pub fn set_reshard(&mut self, plan: ReshardPlan) {
        assert_eq!(self.now(), Round::ZERO, "reshard plan armed after round 0");
        BdsNode::arm_reshard(&mut self.nodes, plan);
    }

    /// Active (vnode-owning) shards right now: the current reshard
    /// version's active-set size, or the full provisioned count for
    /// static runs.
    pub fn active_shards(&self) -> u64 {
        self.nodes[0].active_shards()
    }

    /// Table-independent loss/duplication audit over the local chains
    /// and the commit log: `(lost, double_committed)` — both must be 0
    /// after any reshard schedule.
    pub fn reshard_audit(&self) -> (u64, u64) {
        simnet::reshard_audit(self.chains(), self.committed_log())
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.nodes[0].epoch()
    }

    /// The leader shard of the current epoch.
    pub fn leader(&self) -> ShardId {
        self.nodes[0].leader()
    }
}

/// Runs BDS for `rounds` rounds against the given adversary on the uniform
/// metric (the paper's Figure 2 setting).
pub fn run_bds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
) -> RunReport {
    run_bds_with_metric(
        sys,
        map,
        adv,
        rounds,
        &UniformMetric::new(sys.shards),
        BdsConfig::default(),
    )
}

/// Runs BDS with an explicit metric and configuration.
pub fn run_bds_with_metric(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
) -> RunReport {
    let sim = BdsSim::with_metric(sys, map, bcfg, metric);
    crate::driver::drive(sim, sys, map, adv, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::small_system as small_sys;
    use adversary::{Adversary, StrategyKind};
    use sharding_core::stats::StabilityVerdict;

    #[test]
    fn empty_run_is_stable_and_cheap() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        for _ in 0..100 {
            sim.step(Vec::new());
        }
        let r = sim.finish();
        assert_eq!(r.committed, 0);
        assert_eq!(r.generated, 0);
        assert_eq!(r.pending_at_end, 0);
        // Empty epochs are 2 rounds each: ~50 epochs in 100 rounds.
        assert!(r.epochs >= 45, "epochs: {}", r.epochs);
    }

    #[test]
    fn single_txn_commits_with_correct_latency() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        // Inject one transaction at round 0.
        let t = Transaction::writing_shards(
            TxnId(0),
            ShardId(1),
            Round::ZERO,
            &map,
            &[ShardId(2), ShardId(3)],
        )
        .unwrap();
        sim.step(vec![t]);
        for _ in 0..12 {
            sim.step(Vec::new());
        }
        let chains_with_blocks: Vec<u32> = sim
            .chains()
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c.shard().raw())
            .collect();
        assert_eq!(
            chains_with_blocks,
            vec![2, 3],
            "subtxns landed at both destinations"
        );
        let r = sim.finish();
        assert_eq!(r.committed, 1);
        // Injected during epoch 0's phase 1 round ⇒ scheduled in epoch 0:
        // phase 1 send round 0 (arrives 1), leader colors round 1
        // (assignments arrive 2), color-0 group: subtxns sent round 2,
        // votes round 3, decision round 4, destinations append round 5.
        // Latency = 5 − 0 = 5, matching the paper's 2 + 4·(Δ+1) epoch of
        // 6 rounds for Δ = 0.
        assert_eq!(r.max_latency, 5, "uniform-model single-txn latency");
    }

    #[test]
    fn conflicting_txns_commit_in_different_rounds() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        // Three transactions all writing shard 2's account: mutual
        // conflict forces three distinct colors.
        let txns: Vec<Transaction> = (0..3)
            .map(|i| {
                Transaction::writing_shards(
                    TxnId(i),
                    ShardId(i as u32),
                    Round::ZERO,
                    &map,
                    &[ShardId(2)],
                )
                .unwrap()
            })
            .collect();
        sim.step(txns);
        for _ in 0..30 {
            sim.step(Vec::new());
        }
        let log = sim.committed_log().to_vec();
        assert_eq!(log.len(), 3);
        let mut rounds: Vec<u64> = log.iter().map(|(r, _)| r.raw()).collect();
        rounds.sort_unstable();
        rounds.dedup();
        assert_eq!(rounds.len(), 3, "conflicting commits serialized: {log:?}");
        assert!(sim.chains().iter().all(simnet::LocalChain::verify));
        let r = sim.finish();
        assert_eq!(r.committed, 3);
    }

    #[test]
    fn chains_verify_and_ledger_consistent_after_run() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 11,
            ..Default::default()
        };
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        let mut a = Adversary::new(&sys, &map, adv);
        for r in 0..2000u64 {
            sim.step(a.generate(Round(r)));
        }
        for c in sim.chains() {
            assert!(c.verify(), "chain of {} verifies", c.shard());
        }
        // Every committed transaction must appear in the chain of each of
        // its destination shards exactly once; total appended blocks equal
        // committed subtransactions.
        let blocks: usize = sim.chains().iter().map(|c| c.sub_count()).sum();
        let r = sim.finish();
        assert!(r.committed > 0);
        assert!(blocks > 0);
        assert_eq!(r.aborted, 0, "write-only workload never aborts");
    }

    #[test]
    fn stable_at_low_rate_unstable_well_above_threshold() {
        let (sys, map) = small_sys();
        // Low rate: stable.
        let low = AdversaryConfig {
            rho: 0.04,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 3,
            ..Default::default()
        };
        let r = run_bds(&sys, &map, &low, Round(4000));
        assert_eq!(r.verdict, StabilityVerdict::Stable, "{}", r.summary());
        assert!(r.resolution_rate() > 0.9);
        // Far above the Theorem 1 threshold 2/(k+1) = 0.5 for k = 3: the
        // physical capacity (1 subtxn/shard/round) cannot keep up when the
        // adversary saturates.
        let high = AdversaryConfig {
            rho: 0.9,
            burstiness: 8,
            strategy: StrategyKind::HotShard,
            seed: 3,
            ..Default::default()
        };
        let r = run_bds(&sys, &map, &high, Round(4000));
        assert_eq!(r.verdict, StabilityVerdict::Unstable, "{}", r.summary());
    }

    #[test]
    fn deterministic_runs() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.1,
            burstiness: 3,
            strategy: StrategyKind::SingleBurst { burst_round: 40 },
            seed: 21,
            ..Default::default()
        };
        let a = run_bds(&sys, &map, &adv, Round(600));
        let b = run_bds(&sys, &map, &adv, Round(600));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.max_latency, b.max_latency);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.queue_series.samples(), b.queue_series.samples());
    }

    #[test]
    fn leader_rotates_each_epoch() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        assert_eq!(sim.leader(), ShardId(0));
        // Drive a few empty epochs (2 rounds each).
        for _ in 0..6 {
            sim.step(Vec::new());
        }
        assert!(sim.epoch() >= 2);
        assert_eq!(sim.leader(), ShardId((sim.epoch() % 8) as u32));
        let fixed = BdsConfig {
            rotate_leader: false,
            ..BdsConfig::default()
        };
        let mut sim2 = BdsSim::new(&sys, &map, fixed);
        for _ in 0..6 {
            sim2.step(Vec::new());
        }
        assert_eq!(sim2.leader(), ShardId(0));
    }

    #[test]
    fn epoch_length_respects_lemma1_bound() {
        let (sys, map) = small_sys();
        let b = 3u64;
        let rho = sharding_core::bounds::bds_rate_bound(sys.k_max, sys.shards);
        let adv = AdversaryConfig {
            rho,
            burstiness: b,
            strategy: StrategyKind::SingleBurst { burst_round: 10 },
            seed: 7,
            ..Default::default()
        };
        let r = run_bds(&sys, &map, &adv, Round(3000));
        let tau = sharding_core::bounds::bds_epoch_bound(b, sys.k_max, sys.shards);
        assert!(
            r.max_epoch_len <= tau,
            "max epoch {} exceeds Lemma 1 bound {tau}",
            r.max_epoch_len
        );
        // Queue bound of Theorem 2.
        let qb = sharding_core::bounds::bds_queue_bound(b, sys.shards);
        assert!(r.max_total_pending <= qb, "{} > {qb}", r.max_total_pending);
        // Latency bound of Theorem 2.
        let lb = sharding_core::bounds::bds_latency_bound(b, sys.k_max, sys.shards);
        assert!(r.max_latency <= lb, "{} > {lb}", r.max_latency);
    }

    #[test]
    fn commits_in_same_round_never_conflict() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.08,
            burstiness: 5,
            strategy: StrategyKind::UniformRandom,
            seed: 13,
            ..Default::default()
        };
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        let mut a = Adversary::new(&sys, &map, adv);
        let mut all: BTreeMap<TxnId, Transaction> = BTreeMap::new();
        for r in 0..1500u64 {
            let batch = a.generate(Round(r));
            for t in &batch {
                all.insert(t.id, t.clone());
            }
            sim.step(batch);
        }
        // Group the commit log by round and check pairwise non-conflict.
        let mut by_round: BTreeMap<Round, Vec<TxnId>> = BTreeMap::new();
        for (r, t) in sim.committed_log() {
            by_round.entry(*r).or_default().push(*t);
        }
        for (round, txns) in by_round {
            for i in 0..txns.len() {
                for j in (i + 1)..txns.len() {
                    assert!(
                        !all[&txns[i]].conflicts_with(&all[&txns[j]]),
                        "{} and {} conflict but both committed at {round}",
                        txns[i],
                        txns[j]
                    );
                }
            }
        }
    }

    fn reshard_setup(
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
        let src_sys = SystemConfig {
            shards: initial,
            ..cfg
        };
        let map = plan.versions[0].map.clone();
        (sys, src_sys, map, plan)
    }

    #[test]
    fn live_scale_out_commits_without_loss() {
        use adversary::{ReshardSource, RoundSource};
        let (sys, src_sys, map, plan) = reshard_setup(4, &[(2, 60)]);
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        sim.set_reshard(plan.clone());
        let adv = AdversaryConfig {
            rho: 0.10,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 17,
            ..Default::default()
        };
        let mut src = ReshardSource::new(Adversary::new(&src_sys, &map, adv), plan);
        for r in 0..400u64 {
            sim.step(src.next_round(Round(r)));
        }
        for c in sim.chains() {
            assert!(c.verify(), "chain of {} verifies", c.shard());
        }
        assert_eq!(sim.reshard_audit(), (0, 0), "no commit lost or doubled");
        assert_eq!(sim.active_shards(), 6, "the +2 event activated");
        let joined: usize = sim.chains()[4..].iter().map(|c| c.sub_count()).sum();
        assert!(joined > 0, "joined shards commit after the migration");
        let r = sim.finish();
        assert!(r.committed > 0);
    }

    #[test]
    fn live_scale_in_commits_without_loss() {
        use adversary::{ReshardSource, RoundSource};
        let (sys, src_sys, map, plan) = reshard_setup(6, &[(-2, 60)]);
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        sim.set_reshard(plan.clone());
        let adv = AdversaryConfig {
            rho: 0.10,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 23,
            ..Default::default()
        };
        let mut src = ReshardSource::new(Adversary::new(&src_sys, &map, adv), plan);
        for r in 0..400u64 {
            sim.step(src.next_round(Round(r)));
        }
        assert_eq!(sim.reshard_audit(), (0, 0));
        assert_eq!(sim.active_shards(), 4, "the -2 event activated");
        // Departed shards surrendered every account they owned.
        assert_eq!(sim.ledgers()[4].total(), 0);
        assert_eq!(sim.ledgers()[5].total(), 0);
        let r = sim.finish();
        assert!(r.committed > 0);
    }

    #[test]
    fn handoffs_conserve_total_balance() {
        let (sys, _, map, plan) = reshard_setup(4, &[(2, 5), (-3, 9)]);
        let bcfg = BdsConfig::default();
        let mut sim = BdsSim::new(&sys, &map, bcfg);
        sim.set_reshard(plan);
        for _ in 0..60 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.active_shards(), 3);
        let total: u64 = sim.ledgers().iter().map(|l| l.total()).sum();
        assert_eq!(
            total,
            64 * bcfg.initial_balance,
            "every balance survived two migrations"
        );
    }

    #[test]
    fn works_on_nonuniform_metric_with_stretched_phases() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.02,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 2,
            ..Default::default()
        };
        let metric = cluster::LineMetric::new(sys.shards);
        let r = run_bds_with_metric(&sys, &map, &adv, Round(3000), &metric, BdsConfig::default());
        assert!(r.committed > 0);
        assert!(r.resolution_rate() > 0.8, "{}", r.summary());
    }
}
