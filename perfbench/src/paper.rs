//! `paper_sweep`: the paper's Section 7 grid cells through the
//! simulators, one thread. BDS on the uniform metric and FDS on the
//! line, s = 64, k = 8, one account per shard, `count-burst:auto`, at
//! (ρ, b) = (0.10, 1000) and (0.27, 3000), 8000 rounds each.

use crate::common::{
    hash_log, hash_report, jobs, secs, variant_seed, Fnv, GenRounds, Iter, Metrics, TimedPlan,
    Unit, Workload,
};
use crate::stats;
use crate::trace;
use adversary::Adversary;
use cluster::Hierarchy;
use scenario::JobSpec;
use schedulers::{BdsConfig, BdsSim, FdsConfig, FdsSim, RunReport, SchedulerKind};
use sharding_core::{Round, Transaction, TxnId};
use std::time::Instant;

/// `(scheduler, metric, ρ, b)` of each cell.
const CELLS: [(&str, &str, f64, u64); 4] = [
    ("bds", "uniform", 0.10, 1000),
    ("bds", "uniform", 0.27, 3000),
    ("fds", "line", 0.10, 1000),
    ("fds", "line", 0.27, 3000),
];

/// `(generated, committed, pending)` of each cell at seed 42: the
/// matching rows of `scenarios/fig2_quick.scenario` and
/// `scenarios/fig3_quick.scenario`.
const FIG_ROWS: [(u64, u64, u64); 4] = [
    (12377, 12293, 84),
    (33720, 23148, 10572),
    (12377, 11971, 406),
    (33720, 26598, 7122),
];

/// Input variants per seed.
const VARIANTS: usize = 2;

/// Digest of each variant's outputs at seed 42.
const EXPECTED: [u64; VARIANTS] = [0x097197cda9762c72, 0x3a13e200acdf70ff];

pub struct PaperSweep {
    seed: u64,
}

impl PaperSweep {
    pub fn new(seed: u64) -> PaperSweep {
        PaperSweep { seed }
    }
}

fn cell_text(seed: u64, (sched, metric, rho, b): (&str, &str, f64, u64)) -> String {
    format!(
        "name = paper-sweep\nscheduler = {sched}\nmetric = {metric}\nshards = 64\n\
         accounts = 64\nk = 8\nplacement = random:1\nrounds = 8000\n\
         strategy = count-burst:auto\nseed = {seed}\nrho = {rho}\nb = {b}\n"
    )
}

enum Sim {
    Bds(Box<BdsSim>),
    Fds(Box<FdsSim>),
}

impl Sim {
    fn step(&mut self, batch: Vec<Transaction>) {
        match self {
            Sim::Bds(s) => {
                let _g = trace::span("schedulers.step.bds");
                s.step(batch)
            }
            Sim::Fds(s) => {
                let _g = trace::span("schedulers.step.fds");
                s.step(batch)
            }
        }
    }

    fn finish(self) -> (RunReport, Vec<(Round, TxnId)>) {
        let _g = trace::span("schedulers.finish");
        match self {
            Sim::Bds(s) => {
                let log = s.committed_log().to_vec();
                (s.finish(), log)
            }
            Sim::Fds(s) => {
                let log = s.committed_log().to_vec();
                (s.finish(), log)
            }
        }
    }
}

/// A cell ready to run its first round.
struct Cell {
    spec: JobSpec,
    adversary: Adversary,
    sim: Sim,
}

fn setup_cell(spec: JobSpec, traced: bool) -> Cell {
    let sys = spec.system_config();
    let map = spec.account_map();
    let metric = spec.metric.build(sys.shards).expect("valid metric");
    let adversary = Adversary::new(&sys, &map, spec.adversary_config());
    let _g = trace::span("schedulers.sim_new");
    let sim = match spec.scheduler {
        SchedulerKind::Bds => {
            let bcfg = BdsConfig {
                coloring: spec.coloring,
                rotate_leader: spec.rotate_leader,
                ..BdsConfig::default()
            };
            Sim::Bds(Box::new(if traced {
                BdsSim::with_policy(&sys, &map, bcfg, metric.as_ref(), TimedPlan::bds(&spec))
            } else {
                BdsSim::with_metric(&sys, &map, bcfg, metric.as_ref())
            }))
        }
        _ => {
            if traced {
                // The hierarchy FdsSim::new builds, timed on its own.
                let _g = trace::span("cluster.hierarchy_build");
                std::hint::black_box(Hierarchy::build_with_sublayers(
                    metric.as_ref(),
                    spec.sublayers,
                ));
            }
            let fcfg = FdsConfig {
                epoch_scale: spec.epoch_scale,
                sublayers: spec.sublayers,
                reschedule: spec.reschedule,
                pipeline_window: spec.pipeline_window,
                coloring: spec.coloring,
                ..FdsConfig::default()
            };
            Sim::Fds(Box::new(FdsSim::new(&sys, &map, fcfg, metric.as_ref())))
        }
    };
    Cell {
        spec,
        adversary,
        sim,
    }
}

impl Workload for PaperSweep {
    fn variants(&self) -> usize {
        VARIANTS
    }

    fn iterate(&mut self, variant: usize, traced: bool) -> Iter {
        let seed = variant_seed(self.seed, variant);
        let t = Instant::now();
        let cells: Vec<Cell> = {
            let _g = trace::span("setup");
            CELLS
                .iter()
                .map(|&c| {
                    let spec = jobs(&cell_text(seed, c), "paper_sweep").remove(0);
                    setup_cell(spec, traced)
                })
                .collect()
        };
        let setup_s = secs(t);

        let t = Instant::now();
        let mut runs = Vec::with_capacity(cells.len());
        let mut rounds = 0;
        for mut cell in cells {
            let mut gen = GenRounds::default();
            {
                let _g = trace::span("rounds");
                for r in 0..cell.spec.rounds {
                    let batch = {
                        let _g = trace::span("adversary.generate");
                        cell.adversary.generate(Round(r))
                    };
                    gen.note(&batch);
                    cell.sim.step(batch);
                }
            }
            rounds += cell.spec.rounds;
            runs.push((cell.spec, gen, cell.sim.finish()));
        }
        let run_s = secs(t);

        let units = runs
            .into_iter()
            .enumerate()
            .map(|(i, (spec, gen, (report, log)))| {
                let mut h = Fnv::new();
                hash_report(&mut h, &report);
                hash_log(&mut h, &log);
                let name = format!("{} rho={} b={}", report.scheduler, spec.rho, spec.b);
                let mut unit = Unit::from_report(name, &report, gen.latencies(&log), h.finish());
                if seed == crate::DEFAULT_SEED {
                    let row = (report.generated, report.committed, report.pending_at_end);
                    unit.ok = row == FIG_ROWS[i];
                }
                unit
            })
            .collect();
        Iter {
            setup_s,
            run_s,
            rounds,
            units,
        }
    }

    fn expected(&self) -> &'static [u64] {
        &EXPECTED
    }

    fn layers(&mut self, tr: &trace::Trace, iters: &[Iter], out: &mut Metrics) {
        let rounds: u64 = iters.iter().map(|i| i.rounds).sum();
        let bds_rounds = rounds / 2;
        let us = |ns: u64, per: u64| ns as f64 / 1e3 / per as f64;

        out.put(
            "adversary.generate_us_per_round",
            us(tr.total_ns("adversary.generate"), rounds),
            "us",
        );

        let plan_ns = tr.total_ns("conflict.plan");
        let epochs = tr.sum("conflict.epochs");
        out.put("conflict.plan_us_per_round", us(plan_ns, bds_rounds), "us");
        out.put(
            "conflict.plan_ns_per_txn",
            plan_ns as f64 / tr.sum("conflict.txns").max(1) as f64,
            "ns",
        );
        out.put(
            "conflict.epochs",
            epochs as f64 / iters.len() as f64,
            "count",
        );
        out.put(
            "conflict.batch_max",
            tr.max("conflict.batch_max") as f64,
            "count",
        );
        out.put(
            "conflict.colors_mean",
            tr.sum("conflict.colors") as f64 / epochs.max(1) as f64,
            "count",
        );
        out.put(
            "conflict.colors_max",
            tr.max("conflict.colors_max") as f64,
            "count",
        );

        for (kind, span) in [
            ("bds", "schedulers.step.bds"),
            ("fds", "schedulers.step.fds"),
        ] {
            let steps: Vec<f64> = tr
                .durations(span)
                .into_iter()
                .map(|ns| ns as f64 / 1e3)
                .collect();
            let (p50, p99) = step_percentiles(&steps);
            out.put(format!("schedulers.step_us_p50.{kind}"), p50, "us");
            out.put(format!("schedulers.step_us_p99.{kind}"), p99, "us");
        }
        let step_self = tr.self_ns("schedulers.step.bds") + tr.self_ns("schedulers.step.fds");
        out.put(
            "schedulers.step_self_us_per_round",
            us(step_self, rounds),
            "us",
        );
        out.put(
            "schedulers.finish_ms",
            tr.median_ms("schedulers.finish"),
            "ms",
        );
        out.put(
            "cluster.hierarchy_build_ms",
            tr.median_ms("cluster.hierarchy_build"),
            "ms",
        );

        // Host-independent counts of one iteration.
        let first = iters.first().expect("at least one traced iteration");
        let committed: u64 = first.units.iter().map(|u| u.committed).sum();
        let messages: u64 = first.units.iter().map(|u| u.messages).sum();
        out.put(
            "schedulers.msgs_per_commit",
            messages as f64 / committed.max(1) as f64,
            "count",
        );
        out.put(
            "schedulers.max_message_bytes",
            first
                .units
                .iter()
                .map(|u| u.max_message_bytes)
                .max()
                .unwrap_or(0) as f64,
            "bytes",
        );

        let covered = tr.total_ns("adversary.generate")
            + tr.total_ns("schedulers.step.bds")
            + tr.total_ns("schedulers.step.fds");
        out.put(
            "trace.coverage.paper_sweep",
            covered as f64 / tr.total_ns("rounds").max(1) as f64,
            "ratio",
        );
    }
}

/// Median and p99 of per-round step times; p99 is NaN unless at least
/// ten samples lie beyond it (the 8000-round cells always give that).
fn step_percentiles(steps: &[f64]) -> (f64, f64) {
    let p99 = stats::percentile_if_supported(steps, 99.0).unwrap_or(f64::NAN);
    (stats::median(steps), p99)
}
