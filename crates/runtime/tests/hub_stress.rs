//! Seeded concurrency stress harness for the lock-free message plane.
//!
//! Every test here runs the same experiment twice: once through a real
//! multi-threaded [`NetHub`] — one OS thread per shard, blocking on the
//! [`RoundGate`], with seeded random `yield_now` jitter injected between
//! sends to shake out interleavings — and once through the
//! single-threaded [`simnet::Network`] oracle, which defines the
//! semantics the hub must reproduce. The comparison is total: the full
//! per-destination delivery stream `(round, sender, seq, payload)` in
//! hand-out order, plus the sent/dropped/duplicated counters.
//!
//! Shapes cover several (shards, rounds, capacity) points, including
//! capacity-1 rings where every second push takes the mutexed spill lane
//! — the claim that correctness never depends on ring sizing is only
//! credible if the spill path is actually hammered under concurrency.
//! A wide sparse shape (130 shards, three bitmap words per destination)
//! makes most links appear mid-run, concurrently with their
//! destination's drains. Every shape also checks that the inboxes' ring
//! visits stay within the number of pushes.
//!
//! Seeding: the schedule/jitter seed defaults to a fixed constant and can
//! be overridden with `BLOCKSHARD_STRESS_SEED=<u64>`, which is how CI's
//! stress job runs the suite under more than one seed. Any failure
//! message therefore identifies the exact reproducing universe.

use cluster::{LineMetric, RingMetric, ShardMetric, UniformMetric};
use rand::Rng as _;
use runtime::{NetHub, NetInbox, RoundGate, ShardPort};
use sharding_core::rngutil::{seeded_rng, split_seed};
use sharding_core::{Round, ShardId};
use simnet::{FaultPlan, Network};

/// One delivered message as observed by a destination, in hand-out order.
type Delivery = (u64, u32, u64, u64); // (round, from, seq, payload)

/// `schedule[round][from]` = list of `(to, payload)` sends for that
/// shard's round, generated up front so both executions replay the exact
/// same per-sender streams.
type Schedule = Vec<Vec<Vec<(ShardId, u64)>>>;

fn stress_seed() -> u64 {
    std::env::var("BLOCKSHARD_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xB10C_5EED)
}

/// Builds a pseudorandom all-to-all schedule: each shard sends 0..=3
/// messages per round to random peers, payloads globally unique so a
/// lost, duplicated, or reordered message is attributable.
fn random_schedule(seed: u64, shards: usize, rounds: u64) -> Schedule {
    let mut rng = seeded_rng(split_seed(seed, 0x5c4e));
    let mut payload = 0u64;
    (0..rounds)
        .map(|_| {
            (0..shards)
                .map(|_| {
                    let n = rng.gen_range(0usize..=3);
                    (0..n)
                        .map(|_| {
                            payload += 1;
                            (ShardId(rng.gen_range(0..shards as u32)), payload)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Everybody floods shard 0 every round — maximum fan-in on one consumer.
fn fan_in_schedule(shards: usize, rounds: u64) -> Schedule {
    let mut payload = 0u64;
    (0..rounds)
        .map(|_| {
            (0..shards)
                .map(|_| {
                    payload += 1;
                    vec![(ShardId(0), payload)]
                })
                .collect()
        })
        .collect()
}

/// A sparse schedule over a wide system: each shard sends one message
/// to a random peer with probability 1/4 per round, so most of the
/// `s²` links are first used mid-run, while their destination drains.
/// The `edges` senders send every round, to keep bitmap word edges busy.
fn sparse_schedule(seed: u64, shards: usize, rounds: u64, edges: &[usize]) -> Schedule {
    let mut rng = seeded_rng(split_seed(seed, 0x5a25e));
    let mut payload = 0u64;
    (0..rounds)
        .map(|_| {
            (0..shards)
                .map(|from| {
                    if edges.contains(&from) || rng.gen_range(0u32..4) == 0 {
                        payload += 1;
                        vec![(ShardId(rng.gen_range(0..shards as u32)), payload)]
                    } else {
                        Vec::new()
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs `schedule` through a threaded hub: one thread per shard, round
/// lockstep via [`RoundGate::await_round`], jittered with seeded random
/// yields. Returns each destination's delivery stream plus the hub's
/// counters `(sent, dropped, duplicated, spilled)` and the ring visits
/// summed over every inbox.
fn threaded_run(
    metric: &dyn ShardMetric,
    plan: &FaultPlan,
    schedule: &Schedule,
    capacity: Option<usize>,
    jitter_seed: u64,
) -> (Vec<Vec<Delivery>>, [u64; 5]) {
    let s = metric.shards();
    let rounds = schedule.len() as u64;
    let max_delay = (0..s)
        .flat_map(|a| (0..s).map(move |b| (a, b)))
        .map(|(a, b)| metric.distance(ShardId(a as u32), ShardId(b as u32)))
        .max()
        .unwrap_or(1)
        .max(1);
    // Extra fault-plane duplicates never extend the delay, so running
    // `max_delay` silent rounds past the last send flushes everything.
    let total = rounds + max_delay;
    let hub: NetHub<u64> = match capacity {
        Some(c) => NetHub::with_capacity(metric, |_| 8, c),
        None => NetHub::new(metric, |_| 8),
    }
    .expect("metrics here always have shards");
    let gate = RoundGate::new(s);
    let streams: Vec<parking_lot::Mutex<Vec<Delivery>>> = (0..s)
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    let visits = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|scope| {
        for shard in 0..s {
            let hub = &hub;
            let gate = &gate;
            let streams = &streams;
            let visits = &visits;
            scope.spawn(move || {
                let id = ShardId(shard as u32);
                let mut port = ShardPort::new(hub, id, plan);
                let mut inbox = NetInbox::new(hub, id);
                let mut jitter = seeded_rng(split_seed(jitter_seed, shard as u64));
                let mut seen: Vec<Delivery> = Vec::new();
                let mut buf = Vec::new();
                for round in 0..total {
                    gate.await_round(round);
                    inbox.drain_into(round, &mut buf);
                    for env in buf.drain(..) {
                        seen.push((round, env.from.raw(), env.seq, env.payload));
                    }
                    if let Some(per_shard) = schedule.get(round as usize) {
                        for &(to, payload) in &per_shard[shard] {
                            if jitter.gen_range(0u32..8) == 0 {
                                std::thread::yield_now();
                            }
                            port.send(to, round, payload);
                        }
                    }
                    gate.complete(shard, round);
                }
                *streams[shard].lock() = seen;
                visits.fetch_add(inbox.ring_visits(), std::sync::atomic::Ordering::Relaxed);
            });
        }
    });

    let counters = [
        hub.sent_count(),
        hub.dropped_count(),
        hub.duplicated_count(),
        hub.spilled_count(),
        visits.into_inner(),
    ];
    (
        streams.into_iter().map(|m| m.into_inner()).collect(),
        counters,
    )
}

/// Replays `schedule` through the single-threaded oracle and returns the
/// same observables: per-destination delivery streams and
/// `(sent, dropped, duplicated)`.
fn oracle_run(
    metric: &dyn ShardMetric,
    plan: &FaultPlan,
    schedule: &Schedule,
) -> (Vec<Vec<Delivery>>, [u64; 3]) {
    let s = metric.shards();
    let mut net: Network<u64> = Network::new(metric);
    if !plan.is_inert() {
        net.set_faults(plan.clone());
    }
    for (round, per_shard) in schedule.iter().enumerate() {
        for (from, sends) in per_shard.iter().enumerate() {
            for &(to, payload) in sends {
                net.send(ShardId(from as u32), to, Round(round as u64), payload);
            }
        }
    }
    let mut streams: Vec<Vec<Delivery>> = vec![Vec::new(); s];
    while let Some(round) = net.next_delivery() {
        for env in net.deliver_due(round) {
            streams[env.to.index()].push((round.raw(), env.from.raw(), env.seq, env.payload));
        }
    }
    (
        streams,
        [
            net.sent_count(),
            net.dropped_count(),
            net.duplicated_count(),
        ],
    )
}

/// The full differential: threaded hub vs oracle on every destination's
/// stream and every counter, for one (metric, plan, capacity) shape.
fn assert_hub_matches_oracle(
    metric: &dyn ShardMetric,
    plan: &FaultPlan,
    schedule: &Schedule,
    capacity: Option<usize>,
    label: &str,
) -> [u64; 5] {
    let seed = stress_seed();
    let (hub_streams, hub_counters) =
        threaded_run(metric, plan, schedule, capacity, split_seed(seed, 1));
    let (oracle_streams, oracle_counters) = oracle_run(metric, plan, schedule);
    for (shard, (h, o)) in hub_streams.iter().zip(&oracle_streams).enumerate() {
        assert_eq!(
            h, o,
            "{label} (seed {seed}): destination {shard} delivery stream diverged"
        );
    }
    assert_eq!(hub_counters[0], oracle_counters[0], "{label}: sent");
    assert_eq!(hub_counters[1], oracle_counters[1], "{label}: dropped");
    assert_eq!(hub_counters[2], oracle_counters[2], "{label}: duplicated");
    // Each ring visit consumes a mark, and each send marks at most once:
    // the drain work is bounded by the traffic, not by the link count.
    assert!(
        hub_counters[4] <= hub_counters[0] + hub_counters[2],
        "{label}: {} ring visits for {} sends and {} duplicates",
        hub_counters[4],
        hub_counters[0],
        hub_counters[2]
    );

    // Interleaving-independence: a different jitter universe must
    // observe the byte-identical streams.
    let (again, _) = threaded_run(metric, plan, schedule, capacity, split_seed(seed, 2));
    assert_eq!(
        again, hub_streams,
        "{label} (seed {seed}): delivery depends on thread interleaving"
    );
    hub_counters
}

#[test]
fn uniform_all_to_all_matches_oracle() {
    let metric = UniformMetric::new(8);
    let schedule = random_schedule(stress_seed(), 8, 300);
    assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        None,
        "uniform/8x300",
    );
}

#[test]
fn line_metric_with_capacity_one_forces_and_survives_spill() {
    let metric = LineMetric::new(6);
    let schedule = random_schedule(split_seed(stress_seed(), 7), 6, 200);
    let counters = assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        Some(1),
        "line/6x200/cap1",
    );
    assert!(
        counters[3] > 0,
        "capacity-1 rings must exercise the spill path (spilled = {})",
        counters[3]
    );
}

#[test]
fn fan_in_hammers_one_consumer() {
    let metric = UniformMetric::new(12);
    let schedule = fan_in_schedule(12, 250);
    let counters = assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        Some(2),
        "uniform/12x250/fan-in/cap2",
    );
    assert_eq!(counters[0], 12 * 250, "every scheduled send counted");
}

#[test]
fn fault_plane_counters_survive_concurrency() {
    let metric = RingMetric::new(4);
    let plan = FaultPlan {
        seed: split_seed(stress_seed(), 11),
        drop_prob: 0.08,
        dup_prob: 0.05,
        ..FaultPlan::default()
    };
    let schedule = random_schedule(split_seed(stress_seed(), 13), 4, 400);
    let counters =
        assert_hub_matches_oracle(&metric, &plan, &schedule, Some(4), "ring/4x400/faulty");
    assert!(
        counters[1] > 0 && counters[2] > 0,
        "plan must actually fire: dropped {} duplicated {}",
        counters[1],
        counters[2]
    );
}

#[test]
fn two_shard_long_run_stays_exact() {
    let metric = UniformMetric::new(2);
    let schedule = random_schedule(split_seed(stress_seed(), 17), 2, 1500);
    assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        Some(8),
        "uniform/2x1500/cap8",
    );
}

#[test]
fn wide_sparse_links_appear_mid_run() {
    // 130 shards: three bitmap words per destination, with senders 63/64
    // and 127/128 on the word edges.
    let metric = UniformMetric::new(130);
    let schedule = sparse_schedule(
        split_seed(stress_seed(), 19),
        130,
        40,
        &[0, 63, 64, 127, 128, 129],
    );
    let counters = assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        None,
        "uniform/130x40/sparse",
    );
    let sends: u64 = schedule.iter().flatten().map(|v| v.len() as u64).sum();
    assert_eq!(counters[0], sends, "every scheduled send counted");
}
