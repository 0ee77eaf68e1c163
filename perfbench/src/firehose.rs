//! `firehose`: streaming ingestion at saturation. A Zipf(0.6) stream
//! over 2,000,000 accounts offers 2000 transactions a round to a
//! mempool of 1024 per lane, admitted under ρ = 0.9, b = 64, into BDS
//! on 64 shards, k = 8, one thread.
//!
//! Untraced iterations use `IngestPipeline` as the program composes it;
//! traced ones compose the same stream, mempool and admission buckets
//! from their public parts so each stage gets its own span. The checks
//! require both to produce the same outputs.

use crate::common::{
    hash_log, hash_mempool, hash_report, jobs, secs, variant_seed, Fnv, GenRounds, Iter, Metrics,
    TimedPlan, Unit, Workload,
};
use crate::trace;
use adversary::{IngestPipeline, Mempool, MempoolStats, RoundSource, ShardBudgets, StreamSource};
use scenario::JobSpec;
use schedulers::{BdsConfig, BdsSim};
use sharding_core::{AccountMap, Round, SystemConfig, Transaction};
use simnet::ShardLedger;
use std::time::Instant;

const ROUNDS: u64 = 150;

/// Input variants per seed.
const VARIANTS: usize = 8;

/// Digest of each variant's outputs at seed 42.
const EXPECTED: [u64; VARIANTS] = [
    0x46e1aff8b226c6dd,
    0x1c664fbf0696b58c,
    0xf3a319678917a5de,
    0x4200b0fd72e9a450,
    0x369682a22c2e8653,
    0x1003a738ecacc0aa,
    0x384fe07292320fd6,
    0x7a8441b4ad06254d,
];

pub struct Firehose {
    seed: u64,
}

impl Firehose {
    pub fn new(seed: u64) -> Firehose {
        Firehose { seed }
    }

    fn text(seed: u64) -> String {
        format!(
            "name = firehose\nscheduler = bds\nmetric = uniform\nshards = 64\n\
             accounts = 2000000\nk = 8\nplacement = round-robin\nrounds = {ROUNDS}\n\
             rho = 0.9\nb = 64\nshape = transfers:100\nstream = zipf:0.6\n\
             offered = 2000\nmempool = 1024\nseed = {seed}\n"
        )
    }
}

/// The ingestion plane, whole or in parts.
enum Source {
    Pipeline(IngestPipeline),
    Parts {
        stream: StreamSource,
        pool: Mempool,
        budgets: ShardBudgets,
    },
}

impl Source {
    fn new(spec: &JobSpec, sys: &SystemConfig, map: &AccountMap, traced: bool) -> Source {
        let _g = trace::span("adversary.source_new");
        if !traced {
            return Source::Pipeline(spec.ingest_pipeline(sys, map).expect("mempool job"));
        }
        let stream = StreamSource::new(
            sys,
            map,
            spec.stream.expect("stream job"),
            spec.shape,
            spec.rho,
            spec.b,
            spec.offered_rate(),
            spec.seed,
        );
        let (shards, rho, b) = stream.budget_params();
        Source::Parts {
            stream,
            pool: Mempool::new(shards, spec.mempool.expect("mempool job")),
            budgets: ShardBudgets::new(shards, rho, b),
        }
    }

    /// `IngestPipeline::next_round`, with a span per stage when in parts.
    fn next_round(&mut self, round: Round) -> Vec<Transaction> {
        match self {
            Source::Pipeline(p) => p.next_round(round),
            Source::Parts {
                stream,
                pool,
                budgets,
            } => {
                let offers = {
                    let _g = trace::span("adversary.stream");
                    stream.offer_round(round)
                };
                trace::add("adversary.offered", offers.len() as u64);
                {
                    let _g = trace::span("adversary.mempool_offer");
                    for (fee, txn) in offers {
                        pool.offer(fee, txn);
                    }
                    pool.note_depth();
                }
                let _g = trace::span("adversary.admit");
                budgets.tick();
                pool.drain(budgets, round)
            }
        }
    }

    fn stats(&self) -> (MempoolStats, u64) {
        match self {
            Source::Pipeline(p) => (p.stats().expect("pipeline stats"), p.distinct_accounts()),
            Source::Parts { stream, pool, .. } => (pool.stats(), stream.distinct_accounts()),
        }
    }
}

/// Replays every committed subtransaction into fresh ledgers over the
/// same 2M-account map; they must end equal to the simulator's.
fn replay_ledgers(sim: &BdsSim, map: &AccountMap) -> bool {
    let mut ledgers: Vec<ShardLedger> = {
        let _g = trace::span("simnet.ledger_new");
        sim.ledgers()
            .iter()
            .map(|l| ShardLedger::new(l.shard(), map, BdsConfig::default().initial_balance))
            .collect()
    };
    let _g = trace::span("simnet.ledger_apply");
    let mut subs = 0;
    for (ledger, chain) in ledgers.iter_mut().zip(sim.chains()) {
        for block in chain.blocks() {
            for sub in &block.subs {
                ledger.apply(sub);
                subs += 1;
            }
        }
    }
    trace::add("simnet.subs_applied", subs);
    ledgers.as_slice() == sim.ledgers()
}

impl Workload for Firehose {
    fn variants(&self) -> usize {
        VARIANTS
    }

    fn iterate(&mut self, variant: usize, traced: bool) -> Iter {
        let t = Instant::now();
        let (spec, map, mut source, mut sim) = {
            let _g = trace::span("setup");
            let spec = jobs(&Self::text(variant_seed(self.seed, variant)), "firehose").remove(0);
            let sys = spec.system_config();
            let map = {
                let _g = trace::span("sharding_core.account_map_build");
                spec.account_map()
            };
            let metric = spec.metric.build(sys.shards).expect("valid metric");
            let source = Source::new(&spec, &sys, &map, traced);
            let _g = trace::span("schedulers.sim_new");
            let bcfg = BdsConfig {
                coloring: spec.coloring,
                rotate_leader: spec.rotate_leader,
                ..BdsConfig::default()
            };
            let sim = if traced {
                BdsSim::with_policy(&sys, &map, bcfg, metric.as_ref(), TimedPlan::bds(&spec))
            } else {
                BdsSim::with_metric(&sys, &map, bcfg, metric.as_ref())
            };
            (spec, map, source, sim)
        };
        let setup_s = secs(t);

        let t = Instant::now();
        let mut gen = GenRounds::default();
        {
            let _g = trace::span("rounds");
            for r in 0..spec.rounds {
                let batch = source.next_round(Round(r));
                gen.note(&batch);
                let _g = trace::span("schedulers.step.bds");
                sim.step(batch);
            }
        }
        let rounds_s = secs(t);

        // Outside the timed region: the replay needs the live simulator.
        let ledgers_ok = !traced || replay_ledgers(&sim, &map);
        let log = sim.committed_log().to_vec();
        let t = Instant::now();
        let report = {
            let _g = trace::span("schedulers.finish");
            sim.finish()
        };
        let run_s = rounds_s + secs(t);
        let (stats, distinct) = source.stats();
        trace::max("adversary.admitted", stats.admitted);
        trace::max("adversary.evicted", stats.evicted);
        trace::max("adversary.deferred", stats.deferred);
        trace::max("adversary.mempool_depth_max", stats.depth_max);
        trace::max("adversary.distinct_accounts", distinct);
        let mut h = Fnv::new();
        hash_report(&mut h, &report);
        hash_log(&mut h, &log);
        hash_mempool(&mut h, &stats, distinct);
        let mut unit =
            Unit::from_report("firehose".into(), &report, gen.latencies(&log), h.finish());
        unit.ok = ledgers_ok;
        // Every offered transaction was generated by the adversary: the
        // ones the mempool evicts or never admits count as failed.
        unit.generated = spec.rounds * spec.offered_rate();
        Iter {
            setup_s,
            run_s,
            rounds: spec.rounds,
            units: vec![unit],
        }
    }

    fn expected(&self) -> &'static [u64] {
        &EXPECTED
    }

    fn layers(&mut self, tr: &trace::Trace, iters: &[Iter], out: &mut Metrics) {
        let rounds: u64 = iters.iter().map(|i| i.rounds).sum();
        let us = |name: &str| tr.total_ns(name) as f64 / 1e3 / rounds as f64;
        out.put(
            "adversary.stream_us_per_round",
            us("adversary.stream"),
            "us",
        );
        out.put(
            "adversary.mempool_offer_us_per_round",
            us("adversary.mempool_offer"),
            "us",
        );
        out.put("adversary.admit_us_per_round", us("adversary.admit"), "us");
        let offered = tr.sum("adversary.offered") / iters.len() as u64;
        let admitted = tr.max("adversary.admitted");
        out.put("adversary.offered", offered as f64, "count");
        out.put("adversary.admitted", admitted as f64, "count");
        out.put(
            "adversary.evicted",
            tr.max("adversary.evicted") as f64,
            "count",
        );
        out.put(
            "adversary.deferred",
            tr.max("adversary.deferred") as f64,
            "count",
        );
        out.put(
            "adversary.admit_ratio",
            admitted as f64 / offered.max(1) as f64,
            "ratio",
        );
        out.put(
            "adversary.distinct_accounts",
            tr.max("adversary.distinct_accounts") as f64,
            "count",
        );
        out.put(
            "adversary.mempool_depth_max",
            tr.max("adversary.mempool_depth_max") as f64,
            "count",
        );
        out.put(
            "sharding_core.account_map_build_ms",
            tr.median_ms("sharding_core.account_map_build"),
            "ms",
        );
        out.put(
            "simnet.ledger_apply_ns_per_sub",
            tr.total_ns("simnet.ledger_apply") as f64 / tr.sum("simnet.subs_applied").max(1) as f64,
            "ns",
        );
        let covered = tr.total_ns("adversary.stream")
            + tr.total_ns("adversary.mempool_offer")
            + tr.total_ns("adversary.admit")
            + tr.total_ns("schedulers.step.bds");
        out.put(
            "trace.coverage.firehose",
            covered as f64 / tr.total_ns("rounds").max(1) as f64,
            "ratio",
        );
    }
}
