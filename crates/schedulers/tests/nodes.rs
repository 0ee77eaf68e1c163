//! The per-shard protocol nodes, driven directly through a recording
//! outbox on a miniature transport that can duplicate or drop any
//! message. Both engines run these nodes, so the rules pinned here —
//! one vote per voting shard, one commit per transaction, unchanged wire
//! sizes — hold for the simulator and the networked engine alike.

use cluster::UniformMetric;
use conflict::ColoringStrategy;
use schedulers::testkit::small_system as system;
use schedulers::{bds, fds};
use schedulers::{
    BdsConfig, BdsNode, ColoringPolicy, CommitEvent, FdsConfig, FdsNode, Outbox, ProtocolNode,
    SchedulerKind, ShardIo,
};
use sharding_core::{AccountId, AccountMap, Round, ShardId, Transaction, TxnId};
use simnet::{LocalChain, ShardLedger};

const SHARDS: usize = 8;

/// Two transactions that both write shard 2's account.
fn txns(map: &AccountMap) -> Vec<Transaction> {
    let t = |id, home, dests: &[u32]| {
        let dests: Vec<ShardId> = dests.iter().map(|&d| ShardId(d)).collect();
        Transaction::writing_shards(TxnId(id), ShardId(home), Round::ZERO, map, &dests).unwrap()
    };
    vec![t(0, 0, &[1, 2]), t(1, 3, &[2, 3])]
}

/// Records every send; every destination is one round away.
struct Recorder<M>(Vec<(ShardId, M)>);

impl<M> Outbox<M> for Recorder<M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.0.push((to, msg));
    }

    fn delay(&self, _to: ShardId) -> u64 {
        1
    }
}

/// Runs `nodes` for `rounds` rounds on a transport where every message
/// takes one round and arrives `copies(from, msg)` times. Returns the
/// decisions and the chains.
fn run<N: ProtocolNode>(
    mut nodes: Vec<N>,
    kind: SchedulerKind,
    rounds: u64,
    copies: impl Fn(ShardId, &N::Msg) -> usize,
) -> (Vec<CommitEvent>, Vec<LocalChain>) {
    let (sys, map) = system();
    let ids = || (0..SHARDS as u32).map(ShardId);
    let mut ledgers: Vec<ShardLedger> = ids().map(|id| ShardLedger::new(id, &map, 100)).collect();
    let mut chains: Vec<LocalChain> = ids().map(LocalChain::new).collect();
    let mut policy = ColoringPolicy::new(kind, ColoringStrategy::Greedy, sys.accounts);
    let mut events = Vec::new();
    for t in txns(&map) {
        nodes[t.home.index()].inject(t);
    }
    let mut in_flight: Vec<(ShardId, ShardId, N::Msg)> = Vec::new();
    for round in 0..rounds {
        let mut next = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let id = ShardId(i as u32);
            // In flight in send order, so a stable sort by sender keeps
            // each sender's own order: the transports' inbox contract.
            let mut inbox: Vec<(ShardId, N::Msg)> = in_flight
                .iter()
                .filter(|m| m.1 == id)
                .map(|(from, _, msg)| (*from, msg.clone()))
                .collect();
            inbox.sort_by_key(|m| m.0);
            let mut out = Recorder(Vec::new());
            let io = ShardIo {
                ledger: &mut ledgers[i],
                chain: &mut chains[i],
                policy: &mut policy,
                out: &mut out,
                events: &mut events,
            };
            node.on_round(round, inbox, io);
            for (to, msg) in out.0 {
                for _ in 0..copies(id, &msg) {
                    next.push((id, to, msg.clone()));
                }
            }
        }
        in_flight = next;
    }
    (events, chains)
}

/// Without the invariant checks that only hold when nothing is lost.
fn bds_nodes() -> Vec<BdsNode> {
    BdsNode::system(&BdsConfig::default(), &UniformMetric::new(SHARDS), false)
}

fn fds_nodes() -> Vec<FdsNode> {
    FdsNode::system(&FdsConfig::default(), &UniformMetric::new(SHARDS))
}

/// Every transaction decided once, as a commit, and appended exactly
/// once to each destination's chain.
fn assert_committed_once(events: &[CommitEvent], chains: &[LocalChain]) {
    let (_, map) = system();
    let mut decided: Vec<(TxnId, bool)> = events.iter().map(|e| (e.txn, e.committed)).collect();
    decided.sort();
    assert_eq!(decided, vec![(TxnId(0), true), (TxnId(1), true)]);
    for t in txns(&map) {
        for dest in t.shards() {
            let n = chains[dest.index()]
                .committed_txns()
                .filter(|&id| id == t.id)
                .count();
            assert_eq!(n, 1, "{} appended {n} times at {dest}", t.id);
        }
    }
    assert!(chains.iter().all(LocalChain::verify));
}

#[test]
fn duplicates_decide_and_commit_once() {
    // Every message twice: duplicated votes, and re-votes after
    // duplicated subtransactions or schedules, count once per voter.
    let (events, chains) = run(bds_nodes(), SchedulerKind::Bds, 40, |_, _| 2);
    assert_committed_once(&events, &chains);
    let (events, chains) = run(fds_nodes(), SchedulerKind::Fds, 80, |_, _| 2);
    assert_committed_once(&events, &chains);
}

#[test]
fn duplicated_votes_never_decide_early() {
    // Shard 2 never gets a vote through; the other destinations' votes
    // (and the requests behind them) arrive twice. A count of messages
    // would reach the destination count; a count of voters never does.
    let (events, chains) = run(bds_nodes(), SchedulerKind::Bds, 40, |from, msg| match msg {
        bds::Msg::Vote { .. } if from == ShardId(2) => 0,
        bds::Msg::Vote { .. } | bds::Msg::SubTxn(_) => 2,
        _ => 1,
    });
    assert!(events.is_empty(), "BDS decided without shard 2: {events:?}");
    assert!(chains.iter().all(LocalChain::is_empty));
    let (events, chains) = run(fds_nodes(), SchedulerKind::Fds, 80, |from, msg| match msg {
        fds::Msg::Vote { .. } if from == ShardId(2) => 0,
        fds::Msg::Vote { .. } | fds::Msg::Schedule { .. } => 2,
        _ => 1,
    });
    assert!(events.is_empty(), "FDS decided without shard 2: {events:?}");
    assert!(chains.iter().all(LocalChain::is_empty));
}

#[test]
fn message_sizes_are_unchanged() {
    let (_, map) = system();
    let t = txns(&map).remove(0);
    let sub = t.subs[0].clone();
    let (txn, commit) = (t.id, true);
    let bds = [
        bds::Msg::TxnInfo(vec![t.clone()]),
        bds::Msg::ColorAssign {
            assignments: vec![(TxnId(0), 0), (TxnId(1), 1)],
            num_colors: 2,
        },
        bds::Msg::SubTxn(sub.clone()),
        bds::Msg::Vote { txn, commit },
        bds::Msg::Decision { txn, commit },
        bds::Msg::TableUpdate { version: 1 },
        bds::Msg::Handoff {
            accounts: vec![(AccountId(0), 5), (AccountId(4), 7)],
        },
    ]
    .map(|m| BdsNode::msg_bytes(&m));
    assert_eq!(bds, [96, 32, 28, 17, 17, 12, 40]);
    let height = fds::Height {
        t_end: 8,
        layer: 1,
        sublayer: 0,
        color: 2,
        txn,
    };
    let fds = [
        fds::Msg::ToLeader { txn: t },
        fds::Msg::Schedule {
            sub,
            height,
            leader: ShardId(1),
        },
        fds::Msg::Vote { txn, commit },
        fds::Msg::Confirm { txn, commit },
    ]
    .map(|m| FdsNode::msg_bytes(&m));
    assert_eq!(fds, [80, 56, 17, 17]);
}
