//! `stress_campaign`: the six campaign members at nightly length
//! (`scenario::campaign::run_campaign`, `Family::Full`, 18 jobs, one job
//! thread), followed by the report writer. The members are frozen
//! copies under `perfbench/campaign/`; the workload seed replaces each
//! member's adversary seed.
//!
//! Untraced iterations call `run_campaign`; traced ones run the same
//! steps (load, plan, run, report) member by member, each in its own
//! span. The checks require both to produce the same outputs.

use crate::common::{
    hash_mempool, hash_report, secs, variant_seed, Fnv, Iter, Metrics, Unit, Workload,
};
use crate::trace;
use scenario::campaign::{run_campaign, CampaignOpts, Family, CAMPAIGN_SCENARIOS};
use scenario::{report, run_jobs, JobOutcome, Scenario};
use std::path::PathBuf;
use std::time::Instant;

/// Span name of each member's jobs, in [`CAMPAIGN_SCENARIOS`] order.
const JOB_SPANS: [&str; 6] = [
    "scenario.job.flash_crowd",
    "scenario.job.gray_partition",
    "scenario.job.rolling_crash",
    "scenario.job.byz_ramp",
    "scenario.job.combined_stress",
    "scenario.job.reshard_churn",
];

/// Input variants per seed.
const VARIANTS: usize = 16;

/// Digest of each variant's outputs at seed 42.
const EXPECTED: [u64; VARIANTS] = [
    0xbc4bbd35b37599cf,
    0x42ae42b833ffcc40,
    0x2535ded2f750f957,
    0x11aed9832ab22aa2,
    0x24eb725c9b205730,
    0xf2e337be7fe74ef0,
    0x2d83916d217a2b63,
    0x87532252a6e19566,
    0xb5f954ae1e87f4d5,
    0x7fe3601bbbe5b392,
    0xe1187f5943abdfc5,
    0x90cc307c1c2d0582,
    0xe5ba0817c9319426,
    0x215323da7437c057,
    0xd411ff65f92c2e3e,
    0x8a31a5eac7cdb03a,
];

pub struct Campaign {
    seed: u64,
    opts: CampaignOpts,
}

impl Campaign {
    pub fn new(seed: u64) -> Campaign {
        Campaign {
            seed,
            opts: CampaignOpts {
                threads: 1,
                scenarios_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/campaign")),
                quiet: true,
                write: false,
                ..CampaignOpts::default()
            },
        }
    }

    /// Loads and plans every member: what `run_campaign` does before
    /// its first round.
    fn plan(&self) -> Vec<Vec<scenario::JobSpec>> {
        CAMPAIGN_SCENARIOS
            .iter()
            .map(|m| {
                let path = self.opts.scenarios_dir.join(format!("{m}.scenario"));
                let s = Scenario::load(&path).unwrap_or_else(|e| panic!("{e}"));
                let mut sets = Family::Full.sets();
                sets.extend(self.opts.sets.iter().cloned());
                s.jobs_with(&sets).unwrap_or_else(|e| panic!("{e}"))
            })
            .collect()
    }
}

/// The report files `run_campaign` would write, concatenated.
fn report_text(members: &[Vec<JobOutcome>]) -> String {
    let _g = trace::span("scenario.report");
    let mut text = String::new();
    for outcomes in members {
        text += &report::csv_string(outcomes);
        text += &report::jsonl_string(outcomes);
        text += &report::metrics_jsonl_string(outcomes).unwrap_or_default();
    }
    text
}

impl Workload for Campaign {
    fn variants(&self) -> usize {
        VARIANTS
    }

    fn iterate(&mut self, variant: usize, traced: bool) -> Iter {
        let seed = variant_seed(self.seed, variant).to_string();
        self.opts.sets = vec![("seed".to_string(), seed)];
        let t = Instant::now();
        let planned = {
            let _g = trace::span("scenario.parse_plan");
            self.plan()
        };
        let setup_s = secs(t);

        let t = Instant::now();
        let members: Vec<Vec<JobOutcome>> = if traced {
            planned
                .iter()
                .zip(JOB_SPANS)
                .map(|(jobs, span)| {
                    let _g = trace::span(span);
                    run_jobs(jobs, self.opts.threads, false)
                })
                .collect()
        } else {
            run_campaign(Family::Full, &self.opts)
                .unwrap_or_else(|e| panic!("campaign failed: {e}"))
                .into_iter()
                .map(|m| m.outcomes)
                .collect()
        };
        let text = report_text(&members);
        let run_s = secs(t);

        let mut units = Vec::new();
        let mut rounds = 0;
        for outcome in members.iter().flatten() {
            let r = &outcome.report;
            rounds += outcome.spec.rounds;
            let mut h = Fnv::new();
            hash_report(&mut h, r);
            if let Some(m) = &outcome.mempool {
                hash_mempool(&mut h, m, 0);
            }
            if let Some((lost, dup)) = outcome.reshard {
                h.u64(lost).u64(dup);
            }
            let mut unit = Unit::from_report(
                format!("{} job {}", outcome.spec.scenario, outcome.spec.index),
                r,
                Vec::new(),
                h.finish(),
            );
            unit.ok = outcome.reshard.is_none_or(|audit| audit == (0, 0));
            unit.hist = r.metrics.as_ref().map(|m| m.hist.clone());
            for (name, v) in [
                ("simnet.dropped", r.faults.dropped),
                ("simnet.duplicated", r.faults.duplicated),
                ("simnet.byz_flips", r.faults.byz_flips),
                ("simnet.crashes", r.faults.crashes),
            ] {
                trace::add(name, v);
            }
            units.push(unit);
        }
        let mut h = Fnv::new();
        h.bytes(text.as_bytes());
        units.push(Unit {
            name: "report text".into(),
            digest: h.finish(),
            ok: true,
            generated: 0,
            committed: 0,
            avg_queue: f64::NAN,
            max_pending: 0,
            messages: 0,
            max_message_bytes: 0,
            latencies: Vec::new(),
            hist: None,
        });
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
        let n = iters.len() as u64;
        out.put(
            "scenario.parse_plan_ms",
            tr.median_ms("scenario.parse_plan"),
            "ms",
        );
        for (member, span) in CAMPAIGN_SCENARIOS.iter().zip(JOB_SPANS) {
            out.put(
                format!("scenario.job_ms.{member}"),
                tr.median_ms(span),
                "ms",
            );
        }
        out.put("scenario.report_ms", tr.median_ms("scenario.report"), "ms");
        for name in [
            "simnet.dropped",
            "simnet.duplicated",
            "simnet.byz_flips",
            "simnet.crashes",
        ] {
            out.put(name, (tr.sum(name) / n) as f64, "count");
        }
    }
}
