//! **Algorithm 2 — Fully Distributed Scheduler (FDS)** for the non-uniform
//! communication model (Section 6 of the paper).
//!
//! No central authority: the shard graph is decomposed into the
//! hierarchical sparse cover of [`cluster::Hierarchy`] (layers `0..H1`,
//! sublayers `0..H2`, each cluster with a designated leader). Every
//! transaction `T` is assigned a *home cluster* — the lowest-level cluster
//! containing the whole `x`-neighborhood of its home shard, where `x` is
//! `T`'s worst access distance — and is scheduled by that cluster's leader.
//!
//! **Epochs and rescheduling periods.** Layer `i` has epoch length
//! `E_i = 2^i · E_0` with `E_0 = c·⌈log₂ s⌉`; epochs of all layers are
//! aligned. Rescheduling periods `P_k = 2^k · E_0` likewise. Each epoch of
//! a cluster at layer `i` runs Algorithm 2a:
//!
//! 1. home shards send new transactions to the cluster leader (≤ `d_i`
//!    rounds);
//! 2. the leader colors — only the newly received transactions normally,
//!    or *everything still uncommitted* when the epoch end coincides with
//!    a rescheduling period `P_k, k > i`;
//! 3. subtransactions travel to the destination shards (≤ `d_i` rounds),
//!    which insert them into their schedule queues `sch_qd`, ordered
//!    lexicographically by *height* `(t_end, layer, sublayer, color, id)`.
//!
//! Algorithm 2b runs continuously at the destinations: each round a
//! destination votes for the smallest-height subtransaction it has not
//! yet voted for; the cluster leader collects one vote per destination
//! shard and broadcasts commit/abort confirmations, at which point the
//! destinations append to their local chains.
//!
//! **Implementation note (cross-cluster liveness).** The paper's Step 1
//! ("pick one subtransaction from the head") reads as strictly blocking:
//! a destination would wait for the confirmation of its current head
//! before voting again. With multiple independent cluster leaders, two
//! destinations can then wait on each other's transactions forever when
//! schedule messages race (A votes `T` before `T'` arrives, B votes `T'`
//! before `T` arrives, and each leader waits for the other destination).
//! We resolve this underspecification by *windowed pipelined voting*
//! ([`FdsConfig::pipeline_window`]): a destination keeps up to `W`
//! voted-but-unconfirmed subtransactions outstanding, issuing at most one
//! new vote per round (the one-subtransaction-per-shard-per-round
//! capacity), always for the smallest-height unvoted entry. `W = 1` is
//! the strict blocking reading — measurably throughput-infeasible at the
//! paper's scale (see EXPERIMENTS.md); the default `W = 16` matches the
//! stability range the paper's Figure 3 reports. Priority (height) order
//! still governs which transactions are voted first, so the analysis's
//! per-period accounting is preserved.
//!
//! The protocol is written once, as the per-shard [`FdsNode`]; [`FdsSim`]
//! steps one node per shard over [`simnet::Network`] and the networked
//! engine in `runtime` runs the same nodes concurrently (see
//! [`crate::node`]).

use crate::metrics::{MetricsCollector, RunReport, SchedulerKind};
use crate::node::{CommitEvent, NodeSim, Outbox, ProtocolNode, ShardIo, VoteTally};
use crate::scheduler::{ColoringPolicy, EpochPlan, Scheduler};
use adversary::AdversaryConfig;
use cluster::{ClusterId, Hierarchy, LineMetric, ShardMetric};
use conflict::ColoringStrategy;
use sharding_core::txn::SubTransaction;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::ShardLedger;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Multiplicative hasher for the scheduler's small-integer keys
/// (`TxnId`, `ShardId`). The default SipHash shows up in the FDS
/// per-round profile; these maps are internal (no untrusted keys), so a
/// one-multiply Fibonacci-style mix is plenty. Deterministic — but none
/// of the maps built on it are iterated anyway.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
type FastSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// FDS tunables.
#[derive(Debug, Clone, Copy)]
pub struct FdsConfig {
    /// Epoch scale constant `c` in `E_0 = c·⌈log₂ s⌉`.
    pub epoch_scale: u64,
    /// Sublayers `H2` of the hierarchy (paper simulation: 2).
    pub sublayers: usize,
    /// Enable rescheduling periods (paper: yes; off for the ablation).
    pub reschedule: bool,
    /// Vote pipeline window `W ≥ 1`: the maximum number of voted-but-
    /// unconfirmed subtransactions a destination keeps outstanding. Each
    /// round a destination issues at most one new vote (the capacity
    /// constraint), for its smallest-height unvoted subtransaction, and
    /// only while fewer than `W` votes are outstanding.
    ///
    /// `W = 1` is the strict literal reading of Algorithm 2b step 1
    /// ("pick one subtransaction from the head, wait for confirmation"):
    /// per-destination service is one transaction per `2d+1`-round
    /// round-trip. Unbounded `W` is full pipelining. The default `W = 16`
    /// reproduces the paper's Figure 3 regime — FDS stable up to a rate
    /// slightly above BDS's empirical threshold, then degrading much
    /// faster than BDS through the confirm round-trips. The ablation
    /// benches sweep `W`.
    pub pipeline_window: usize,
    /// Coloring algorithm used by cluster leaders.
    pub coloring: ColoringStrategy,
    /// Initial balance of every account.
    pub initial_balance: u64,
}

impl Default for FdsConfig {
    fn default() -> Self {
        FdsConfig {
            epoch_scale: 1,
            sublayers: 2,
            reschedule: true,
            pipeline_window: 16,
            coloring: ColoringStrategy::Greedy,
            initial_balance: 1_000_000,
        }
    }
}

/// The lexicographic priority of a scheduled transaction:
/// `(t_end, layer, sublayer, color, txn id)`. Lower sorts first and
/// commits first. The trailing id makes heights unique, giving every
/// destination shard the identical total order the paper requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Height {
    /// End round of the epoch in which the transaction was (re)colored.
    pub t_end: u64,
    /// Home-cluster layer.
    pub layer: u32,
    /// Home-cluster sublayer.
    pub sublayer: u32,
    /// Assigned color.
    pub color: u32,
    /// Transaction id tie-break.
    pub txn: TxnId,
}

/// Messages of the FDS protocol.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Home shard → cluster leader: a new transaction to schedule.
    ToLeader {
        /// The transaction.
        txn: Transaction,
    },
    /// Leader → destination: scheduled subtransaction with its height.
    Schedule {
        /// The destination's part of the transaction.
        sub: SubTransaction,
        /// Its priority in the destination's schedule queue.
        height: Height,
        /// The scheduling cluster leader (where the vote goes).
        leader: ShardId,
    },
    /// Destination → leader: validity vote for one subtransaction.
    Vote {
        /// The voted transaction.
        txn: TxnId,
        /// The destination's validity verdict.
        commit: bool,
    },
    /// Leader → destination: final commit/abort confirmation.
    Confirm {
        /// The decided transaction.
        txn: TxnId,
        /// Commit (`true`) or abort.
        commit: bool,
    },
}

/// Per-transaction state at its cluster leader (`sch_ldr` entry).
#[derive(Debug)]
struct LeaderEntry {
    txn: Transaction,
    votes: VoteTally,
}

/// Scheduling state of one cluster leader.
#[derive(Debug, Default)]
struct LeaderState {
    /// Transactions received from home shards, awaiting the next coloring.
    incoming: Vec<Transaction>,
    /// Scheduled but not yet confirmed transactions.
    sch_ldr: BTreeMap<TxnId, LeaderEntry>,
    /// Sorted txn ids of the batch behind `last_plan`.
    last_ids: Vec<TxnId>,
    /// Cached epoch plan of `last_ids`: a rescheduling epoch with no new
    /// arrivals and no confirms recolors exactly the same batch, and the
    /// plan is a pure function of it — reuse instead of re-deriving
    /// the conflict structure.
    last_plan: Option<EpochPlan>,
}

/// Schedule-queue state of one destination shard.
#[derive(Debug, Default)]
struct DestState {
    /// `sch_qd`: height-ordered scheduled subtransactions.
    sch_qd: BTreeMap<Height, SubTransaction>,
    /// Reverse index txn → current height (for updates and removals) and
    /// scheduling leader (vote routing). Lookup-only (never iterated),
    /// so hashed — the schedule order lives exclusively in `sch_qd`.
    queued: FastMap<TxnId, (Height, ShardId)>,
    /// Transactions this destination has already voted for.
    /// Membership-only: hashed.
    voted: FastSet<TxnId>,
}

/// One shard of FDS: its home outbox, the state of every cluster it
/// leads, and its destination schedule queue. Epoch starts, coloring
/// moments and rescheduling alignments are pure functions of the round
/// and the shared hierarchy, so a node needs no knowledge that only a
/// message could carry.
pub struct FdsNode {
    id: ShardId,
    fcfg: FdsConfig,
    e0: u64,
    hierarchy: Arc<Hierarchy>,
    /// Transactions homed here, waiting for their layer's next epoch.
    outbox: Vec<(ClusterId, Transaction)>,
    /// Recycled phase-1 scratch: holds the not-yet-due outbox entries
    /// while the outbox is partitioned at an epoch boundary, then swaps
    /// back in — steady state allocates nothing per round.
    keep_buf: Vec<(ClusterId, Transaction)>,
    /// Clusters this shard leads, created on first arrival.
    leaders: BTreeMap<ClusterId, LeaderState>,
    /// Clusters with work pending (`incoming` or `sch_ldr` non-empty).
    /// `leaders` only ever grows, so the per-round phase-2 scan and the
    /// leader-queue sample walk this set instead. Maintained at the two
    /// transition points: a `ToLeader` arrival activates, the last
    /// confirm deactivates (coloring only moves work between the two
    /// queues). Ordered: clusters color in id order, which fixes this
    /// shard's send order and so the receivers' delivery order.
    active: BTreeSet<ClusterId>,
    /// Recycled phase-2 scratch: the clusters at their coloring moment
    /// this round.
    due_buf: Vec<ClusterId>,
    /// Home cluster of every transaction in some local `sch_ldr` — vote
    /// routing is one lookup. Lookup-only: hashed.
    txn_cluster: FastMap<TxnId, ClusterId>,
    dest: DestState,
    /// Subtransactions confirmed this round, sealed into one block at
    /// the end of the round.
    append_buf: Vec<SubTransaction>,
    /// Memoized [`Hierarchy::home_cluster`] per `(home, x)`: computed at
    /// injection and again at leader arrival, a pure function of the
    /// fixed hierarchy — outer index home shard, inner index `x`.
    home_cluster_cache: Vec<Vec<Option<ClusterId>>>,
    /// Transactions injected here / resolved by clusters led here.
    injected: u64,
    resolved: u64,
    /// Worst access distance among transactions injected here.
    max_access_distance: u64,
    now: u64,
}

/// What an [`FdsNode`] reports at the end of a round.
#[derive(Debug, Clone, Copy)]
pub struct FdsSample {
    /// Queued transactions over the clusters led here.
    pub leader_queue: u64,
    /// Clusters led here with work pending.
    pub leader_active: u64,
    /// Cumulative transactions injected here.
    pub injected: u64,
    /// Cumulative transactions resolved by clusters led here.
    pub resolved: u64,
    /// The layer-0 epoch of the round.
    pub epoch: u64,
}

impl FdsNode {
    /// One node per shard of `metric`, over one shared cluster
    /// hierarchy.
    pub fn system(fcfg: &FdsConfig, metric: &dyn ShardMetric) -> Vec<FdsNode> {
        let hierarchy = Arc::new(Hierarchy::build_with_sublayers(metric, fcfg.sublayers));
        let lg = (usize::BITS - (metric.shards().max(2) - 1).leading_zeros()) as u64; // ceil(log2 s)
        (0..metric.shards() as u32)
            .map(|i| FdsNode {
                id: ShardId(i),
                fcfg: *fcfg,
                // Base epoch length E_0 = c·⌈log₂ s⌉ (at least 1).
                e0: (fcfg.epoch_scale * lg).max(1),
                hierarchy: Arc::clone(&hierarchy),
                outbox: Vec::new(),
                keep_buf: Vec::new(),
                leaders: BTreeMap::new(),
                active: BTreeSet::new(),
                due_buf: Vec::new(),
                txn_cluster: FastMap::default(),
                dest: DestState::default(),
                append_buf: Vec::new(),
                home_cluster_cache: Vec::new(),
                injected: 0,
                resolved: 0,
                max_access_distance: 0,
                now: 0,
            })
            .collect()
    }

    /// Epoch length of layer `i`.
    fn epoch_len(&self, layer: u32) -> u64 {
        self.e0 << layer
    }

    /// The home cluster of `txn`: the lowest cluster containing the whole
    /// `x`-neighborhood of its home, `x` its worst access distance.
    /// Returns the cluster and `x`.
    fn home_cluster(&mut self, txn: &Transaction) -> (ClusterId, u64) {
        let home = txn.home;
        let x = txn
            .shards()
            .map(|d| self.hierarchy.distance(home, d))
            .max()
            .unwrap_or(0);
        if self.home_cluster_cache.len() <= home.index() {
            self.home_cluster_cache
                .resize_with(home.index() + 1, Vec::new);
        }
        let slot = &mut self.home_cluster_cache[home.index()];
        let xi = x as usize;
        if slot.len() <= xi {
            slot.resize(xi + 1, None);
        }
        let cid = *slot[xi].get_or_insert_with(|| self.hierarchy.home_cluster(home, x));
        (cid, x)
    }

    /// Phase 1 of Algorithm 2a: forward outbox entries whose layer's
    /// epoch starts now.
    fn phase1_forward<O: Outbox<Msg>>(&mut self, out: &mut O) {
        let now = self.now;
        // Every layer's epoch length is `e0 << layer`, so every epoch
        // boundary is a multiple of `e0`; on other rounds nothing is due.
        if self.outbox.is_empty() || !now.is_multiple_of(self.e0) {
            return;
        }
        // Partition through the recycled scratch: `pending` (the old
        // outbox) drains into sends + `keep`, then the two vectors swap
        // roles so both capacities survive to the next boundary.
        let mut pending = std::mem::take(&mut self.outbox);
        let mut keep = std::mem::take(&mut self.keep_buf);
        for (cid, txn) in pending.drain(..) {
            if now.is_multiple_of(self.epoch_len(cid.layer)) {
                out.send(self.hierarchy.cluster(cid).leader, Msg::ToLeader { txn });
            } else {
                keep.push((cid, txn));
            }
        }
        self.outbox = keep;
        self.keep_buf = pending;
    }

    /// Phase 2 for every cluster led here that is at its coloring moment.
    fn phase2_color_clusters<O: Outbox<Msg>>(&mut self, policy: &mut dyn Scheduler, out: &mut O) {
        if self.active.is_empty() {
            return;
        }
        let now = self.now;
        let mut due = std::mem::take(&mut self.due_buf);
        due.clear();
        due.extend(
            self.active
                .iter()
                .filter(|cid| {
                    let d_c = self.hierarchy.cluster(**cid).diameter.max(1);
                    let e_i = self.epoch_len(cid.layer);
                    now >= d_c && (now - d_c).is_multiple_of(e_i)
                })
                .copied(),
        );
        for &cid in &due {
            self.color_cluster(cid, policy, out);
        }
        self.due_buf = due;
    }

    /// Phase 2 for one cluster: color new (or all uncommitted, at
    /// rescheduling alignments) transactions and dispatch the scheduled
    /// subtransactions with their heights.
    fn color_cluster<O: Outbox<Msg>>(
        &mut self,
        cid: ClusterId,
        policy: &mut dyn Scheduler,
        out: &mut O,
    ) {
        let d_c = self.hierarchy.cluster(cid).diameter.max(1);
        let e_i = self.epoch_len(cid.layer);
        let t_end = self.now - d_c + e_i;
        // The epoch end aligns with a rescheduling period P_k, k > i, iff
        // t_end is a multiple of 2^{i+1}·E_0.
        let reschedule = self.fcfg.reschedule && t_end.is_multiple_of(e_i * 2);

        let st = self.leaders.get_mut(&cid).expect("cluster state exists");
        let incoming = std::mem::take(&mut st.incoming);
        // Targets: new transactions, plus every still-unconfirmed one when
        // rescheduling.
        let mut targets: Vec<Transaction> = Vec::new();
        if reschedule {
            targets.extend(st.sch_ldr.values().map(|e| e.txn.clone()));
        }
        for t in incoming {
            if let std::collections::btree_map::Entry::Vacant(v) = st.sch_ldr.entry(t.id) {
                v.insert(LeaderEntry {
                    txn: t.clone(),
                    votes: VoteTally::default(),
                });
                self.txn_cluster.insert(t.id, cid);
            }
            targets.push(t);
        }
        if targets.is_empty() {
            return;
        }
        targets.sort_by_key(|t| t.id);
        targets.dedup_by_key(|t| t.id);

        // The coloring is a pure function of the (sorted) batch; a
        // rescheduling epoch with no arrivals and no confirms since the
        // last coloring reuses the cached result instead of rebuilding
        // the conflict structure from the access lists.
        let unchanged = st.last_plan.is_some()
            && st.last_ids.len() == targets.len()
            && st.last_ids.iter().zip(&targets).all(|(id, t)| *id == t.id);
        let plan = if unchanged {
            st.last_plan.clone().expect("checked above")
        } else {
            let p = policy.plan_epoch(t_end, &targets);
            st.last_ids.clear();
            st.last_ids.extend(targets.iter().map(|t| t.id));
            st.last_plan = Some(p.clone());
            p
        };
        for (v, t) in targets.iter().enumerate() {
            let height = Height {
                t_end,
                layer: cid.layer,
                sublayer: cid.sublayer,
                color: plan.slot(v),
                txn: t.id,
            };
            for sub in &t.subs {
                out.send(
                    sub.dest,
                    Msg::Schedule {
                        sub: sub.clone(),
                        height,
                        leader: self.id,
                    },
                );
            }
        }
    }

    /// Algorithm 2b step 1: while fewer than `W` votes are outstanding,
    /// vote for the smallest-height unvoted entry of the schedule queue
    /// (one new vote per round, the capacity constraint).
    fn vote_head<O: Outbox<Msg>>(&mut self, ledger: &ShardLedger, out: &mut O) {
        let dest = &mut self.dest;
        // `voted` holds exactly the outstanding (unconfirmed) votes, a
        // subset of `sch_qd`'s txns: equal sizes mean the whole queue is
        // already voted (including the empty queue).
        if dest.voted.len() >= self.fcfg.pipeline_window.max(1)
            || dest.voted.len() == dest.sch_qd.len()
        {
            return;
        }
        let Some((_, sub)) = dest
            .sch_qd
            .iter()
            .find(|(_, s)| !dest.voted.contains(&s.txn))
        else {
            return;
        };
        let commit = ledger.check(sub);
        let txn = sub.txn;
        dest.voted.insert(txn);
        out.send(dest.queued[&txn].1, Msg::Vote { txn, commit });
    }

    fn handle<O: Outbox<Msg>>(&mut self, from: ShardId, msg: Msg, io: &mut ShardIo<'_, O>) {
        match msg {
            Msg::ToLeader { txn } => {
                let (cid, _) = self.home_cluster(&txn);
                debug_assert_eq!(self.hierarchy.cluster(cid).leader, self.id);
                self.leaders.entry(cid).or_default().incoming.push(txn);
                self.active.insert(cid);
            }
            Msg::Schedule {
                sub,
                height,
                leader,
            } => {
                let dest = &mut self.dest;
                let txn = sub.txn;
                // Update: drop the old queue position if present.
                if let Some((old, _)) = dest.queued.insert(txn, (height, leader)) {
                    dest.sch_qd.remove(&old);
                }
                dest.sch_qd.insert(height, sub);
            }
            Msg::Vote { txn, commit } => {
                // A transaction sits in exactly one cluster's `sch_ldr`
                // (its home cluster). A vote arriving after the
                // confirmation finds no entry and is a no-op.
                let Some(&cid) = self.txn_cluster.get(&txn) else {
                    return;
                };
                debug_assert_eq!(self.hierarchy.cluster(cid).leader, self.id);
                let st = self.leaders.get_mut(&cid).expect("cluster exists");
                let entry = st.sch_ldr.get_mut(&txn).expect("indexed entry exists");
                if entry.votes.record(from, commit) == entry.txn.shard_count() {
                    let all_commit = entry.votes.all_commit();
                    self.confirm(cid, txn, all_commit, io);
                }
            }
            Msg::Confirm { txn, commit } => {
                let dest = &mut self.dest;
                if let Some((h, _)) = dest.queued.remove(&txn) {
                    if let Some(sub) = dest.sch_qd.remove(&h) {
                        // In pipelined mode a vote can go stale between
                        // check and confirm; `try_apply` re-validates
                        // applicability (never fails on write-only
                        // workloads — see the module docs).
                        if commit && io.ledger.try_apply(&sub) {
                            self.append_buf.push(sub);
                        }
                    }
                }
                dest.voted.remove(&txn);
            }
        }
    }

    /// Algorithm 2b steps 2–3 at the cluster leader: all votes collected
    /// — confirm commit or abort to every destination and retire the
    /// transaction.
    fn confirm<O: Outbox<Msg>>(
        &mut self,
        cid: ClusterId,
        txn: TxnId,
        commit: bool,
        io: &mut ShardIo<'_, O>,
    ) {
        let st = self.leaders.get_mut(&cid).expect("cluster exists");
        let entry = st.sch_ldr.remove(&txn).expect("entry exists");
        if st.sch_ldr.is_empty() && st.incoming.is_empty() {
            self.active.remove(&cid);
        }
        self.txn_cluster.remove(&txn);
        let mut worst = 1;
        for dest in entry.txn.shards() {
            worst = worst.max(io.out.delay(dest));
            io.out.send(dest, Msg::Confirm { txn, commit });
        }
        self.resolved += 1;
        io.events.push(CommitEvent {
            round: self.now,
            generated: entry.txn.generated,
            commit_round: Round(self.now + worst),
            txn,
            home: entry.txn.home,
            committed: commit,
        });
    }
}

impl ProtocolNode for FdsNode {
    type Msg = Msg;
    type Sample = FdsSample;

    fn msg_bytes(m: &Msg) -> usize {
        match m {
            Msg::ToLeader { txn } => txn.approx_bytes(),
            Msg::Schedule { sub, .. } => 28 + sub.approx_bytes(),
            Msg::Vote { .. } | Msg::Confirm { .. } => 17,
        }
    }

    fn inject(&mut self, txn: Transaction) {
        self.injected += 1;
        let (cid, x) = self.home_cluster(&txn);
        self.max_access_distance = self.max_access_distance.max(x);
        self.outbox.push((cid, txn));
    }

    fn on_round<O: Outbox<Msg>>(
        &mut self,
        round: u64,
        inbox: impl IntoIterator<Item = (ShardId, Msg)>,
        mut io: ShardIo<'_, O>,
    ) {
        self.now = round;
        // 1. Home side: forward outbox entries whose epoch starts now.
        self.phase1_forward(io.out);
        // 2. Delivery.
        for (from, msg) in inbox {
            self.handle(from, msg, &mut io);
        }
        // 3. Leader side: clusters at their coloring moment.
        self.phase2_color_clusters(io.policy, io.out);
        // 4. Destination side: vote for the next unvoted head.
        self.vote_head(io.ledger, io.out);
        // 5. Seal this round's commits into one block.
        if !self.append_buf.is_empty() {
            let batch = std::mem::take(&mut self.append_buf);
            io.chain.append_block(batch, Round(round));
        }
    }

    fn sample(&self, round: u64) -> FdsSample {
        let (queue, active) = self.active.iter().fold((0u64, 0u64), |(t, n), cid| {
            let st = &self.leaders[cid];
            (t + (st.sch_ldr.len() + st.incoming.len()) as u64, n + 1)
        });
        FdsSample {
            leader_queue: queue,
            leader_active: active,
            injected: self.injected,
            resolved: self.resolved,
            epoch: round / self.e0,
        }
    }

    fn observe(
        collector: &mut MetricsCollector,
        samples: &[FdsSample],
        byz: u64,
        crashed: u64,
    ) -> u64 {
        let sum = |f: fn(&FdsSample) -> u64| samples.iter().map(f).sum::<u64>();
        // The Figure 3 left panel plots the average pending *scheduled*
        // transactions at cluster leaders: mean queue over active leaders.
        let leader_avg = sum(|s| s.leader_queue) as f64 / sum(|s| s.leader_active).max(1) as f64;
        let outstanding = sum(|s| s.injected).saturating_sub(sum(|s| s.resolved));
        collector.sample_queue_value(leader_avg, outstanding);
        // The timeline's epoch is the layer-0 epoch, matching the report's
        // `epochs` quantity.
        let epoch = samples.first().map_or(0, |s| s.epoch);
        collector
            .sink
            .on_round(epoch, outstanding, byz, crashed, samples.len() as u64);
        outstanding
    }

    fn epoch_stats(&self, rounds: u64) -> (u64, u64) {
        let top_epoch = self.e0 << (self.hierarchy.num_layers() as u64 - 1);
        (rounds / self.e0, top_epoch)
    }
}

/// The FDS simulator: one [`FdsNode`] per shard, stepped in shard order
/// over one [`simnet::Network`]. Drive with [`NodeSim::step`] once per
/// round.
pub type FdsSim = NodeSim<FdsNode>;

impl NodeSim<FdsNode> {
    /// Creates an FDS simulation over `metric`.
    pub fn new(
        sys: &SystemConfig,
        map: &AccountMap,
        fcfg: FdsConfig,
        metric: &dyn ShardMetric,
    ) -> Self {
        let nodes = FdsNode::system(&fcfg, metric);
        // Every cluster leader plans through the same coloring code path
        // BDS's leader uses.
        let policy = Box::new(ColoringPolicy::new(
            SchedulerKind::Fds,
            fcfg.coloring,
            sys.accounts,
        ));
        NodeSim::from_nodes(sys, metric, map, fcfg.initial_balance, nodes, policy)
    }

    /// The cluster hierarchy in use.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.nodes[0].hierarchy
    }

    /// Worst access distance `d` seen so far (for Theorem 3 comparisons).
    pub fn max_access_distance(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.max_access_distance)
            .max()
            .unwrap_or(0)
    }
}

/// Runs FDS for `rounds` rounds against the given adversary over `metric`.
pub fn run_fds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    fcfg: FdsConfig,
) -> RunReport {
    let sim = FdsSim::new(sys, map, fcfg, metric);
    crate::driver::drive(sim, sys, map, adv, rounds)
}

/// Runs FDS on the paper's Figure 3 topology: shards on a line.
pub fn run_fds_line(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
) -> RunReport {
    run_fds(
        sys,
        map,
        adv,
        rounds,
        &LineMetric::new(sys.shards),
        FdsConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::small_system as small_sys;
    use adversary::{Adversary, StrategyKind};
    use sharding_core::stats::StabilityVerdict;

    #[test]
    fn single_txn_commits() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let t = Transaction::writing_shards(
            TxnId(0),
            ShardId(2),
            Round::ZERO,
            &map,
            &[ShardId(1), ShardId(3)],
        )
        .unwrap();
        sim.step(vec![t]);
        for _ in 0..200 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.committed_log().len(), 1);
        assert_eq!(sim.total_pending(), 0);
        let with_blocks: Vec<u32> = sim
            .chains()
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c.shard().raw())
            .collect();
        assert_eq!(with_blocks, vec![1, 3]);
        for c in sim.chains() {
            assert!(c.verify());
        }
    }

    #[test]
    fn local_txn_lands_in_low_layer_cluster() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        // A transaction touching only its home shard: x = 0 → layer 0.
        let cid = sim.hierarchy().home_cluster(ShardId(4), 0);
        assert_eq!(cid.layer, 0);
        // A transaction spanning the whole line → top layer.
        let cid = sim.hierarchy().home_cluster(ShardId(0), 7);
        assert_eq!(cid.layer as usize, sim.hierarchy().num_layers() - 1);
    }

    #[test]
    fn steady_low_rate_is_stable_and_commits_everything() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.02,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 5,
            ..Default::default()
        };
        let r = run_fds_line(&sys, &map, &adv, Round(6000));
        assert!(r.committed > 0, "{}", r.summary());
        assert!(r.resolution_rate() > 0.95, "{}", r.summary());
        assert_eq!(r.verdict, StabilityVerdict::Stable, "{}", r.summary());
        assert_eq!(r.aborted, 0);
    }

    #[test]
    fn deterministic_runs() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 3,
            strategy: StrategyKind::SingleBurst { burst_round: 64 },
            seed: 9,
            ..Default::default()
        };
        let a = run_fds_line(&sys, &map, &adv, Round(1500));
        let b = run_fds_line(&sys, &map, &adv, Round(1500));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.max_latency, b.max_latency);
    }

    #[test]
    fn conflicting_commits_serialize_at_shared_destination() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        // Three same-home transactions writing the same account.
        let txns: Vec<Transaction> = (0..3)
            .map(|i| {
                Transaction::writing_shards(TxnId(i), ShardId(4), Round::ZERO, &map, &[ShardId(4)])
                    .unwrap()
            })
            .collect();
        sim.step(txns);
        for _ in 0..400 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.committed_log().len(), 3);
        // They all landed in shard 4's chain, in height (id) order.
        let order: Vec<TxnId> = sim.chains()[4].committed_txns().collect();
        assert_eq!(order, vec![TxnId(0), TxnId(1), TxnId(2)]);
    }

    #[test]
    fn burst_drains_without_reschedule_disabled_comparison() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.02,
            burstiness: 8,
            strategy: StrategyKind::SingleBurst { burst_round: 32 },
            seed: 4,
            ..Default::default()
        };
        let metric = LineMetric::new(sys.shards);
        let on = run_fds(&sys, &map, &adv, Round(6000), &metric, FdsConfig::default());
        let off = run_fds(
            &sys,
            &map,
            &adv,
            Round(6000),
            &metric,
            FdsConfig {
                reschedule: false,
                ..FdsConfig::default()
            },
        );
        // Both must make progress; rescheduling must not hurt resolution.
        assert!(on.resolution_rate() > 0.9, "{}", on.summary());
        assert!(off.resolution_rate() > 0.0);
        assert!(on.resolution_rate() >= off.resolution_rate() - 0.05);
    }

    #[test]
    fn fds_on_uniform_metric_also_works() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.03,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 2,
            ..Default::default()
        };
        let metric = cluster::UniformMetric::new(sys.shards);
        let r = run_fds(&sys, &map, &adv, Round(4000), &metric, FdsConfig::default());
        assert!(r.resolution_rate() > 0.9, "{}", r.summary());
    }

    #[test]
    fn ledger_conservation_under_writes() {
        // Adversarial workload only adds +1 units; total balance increase
        // must equal the number of committed actions.
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.04,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 6,
            ..Default::default()
        };
        let metric = LineMetric::new(sys.shards);
        let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let mut a = Adversary::new(&sys, &map, adv);
        for r in 0..3000u64 {
            sim.step(a.generate(Round(r)));
        }
        let total: u64 = sim.ledgers().iter().map(|l| l.total()).sum();
        let baseline = sys.accounts as u64 * FdsConfig::default().initial_balance;
        let appended: usize = sim.chains().iter().map(|c| c.sub_count()).sum();
        assert_eq!(
            total - baseline,
            appended as u64,
            "each committed subtxn adds exactly 1"
        );
    }
}
