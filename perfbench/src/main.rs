//! The repository benchmark. Drives the workspace crates from outside,
//! through their public functions, on one of four workloads:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` records spans around each layer call and reports the
//! per-layer metrics. Either way every iteration's deterministic outputs
//! are checked; the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `README.md` beside
//! this crate records why each workload and metric exists.

mod campaign;
mod common;
mod firehose;
mod net;
mod paper;
mod stats;
mod trace;

use common::{Iter, Metrics, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose outputs are recorded in the workloads.
pub const DEFAULT_SEED: u64 = 42;

const WORKLOADS: [&str; 4] = ["paper_sweep", "net_wide", "firehose", "stress_campaign"];

/// Fewest timed iterations per run, whatever `--seconds` says.
const MIN_ITERS: usize = 5;

/// Fewest traced (and as many untraced) iterations of the selected
/// workload in a traced run.
const MIN_TRACED: usize = 2;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| bad(&format!("one of {}", WORKLOADS.join(", "))))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn make(workload: &str, seed: u64, workers: usize) -> Box<dyn Workload> {
    match workload {
        "paper_sweep" => Box::new(paper::PaperSweep::new(seed)),
        "net_wide" => Box::new(net::NetWide::new(seed, workers)),
        "firehose" => Box::new(firehose::Firehose::new(seed)),
        "stress_campaign" => Box::new(campaign::Campaign::new(seed)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Compares every iteration's units with the first iteration of the
/// same input variant and, at the default seed, with the recorded
/// digests.
struct Checker {
    workload: &'static str,
    expected: Option<&'static [u64]>,
    first: BTreeMap<usize, Vec<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: &'static str, w: &dyn Workload, seed: u64) -> Checker {
        Checker {
            workload,
            expected: (seed == DEFAULT_SEED).then(|| w.expected()),
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, variant: usize, it: &Iter) {
        let digests: Vec<u64> = it.units.iter().map(|u| u.digest).collect();
        let mut h = common::Fnv::new();
        for &d in &digests {
            h.u64(d);
        }
        let combined = h.finish();
        let first = self.first.entry(variant).or_insert_with(|| {
            eprintln!(
                "{} variant {variant} digest: {combined:#018x}",
                self.workload
            );
            digests.clone()
        });
        let recorded = self.expected.is_none_or(|e| e[variant] == combined);
        for (i, u) in it.units.iter().enumerate() {
            self.attempted += 1;
            let mut why = Vec::new();
            if !u.ok {
                why.push("its own check failed");
            }
            if first.get(i) != Some(&u.digest) || first.len() != digests.len() {
                why.push("differs from the variant's first iteration");
            }
            if !recorded {
                why.push("the variant differs from its recorded default-seed output");
            }
            if !why.is_empty() {
                self.failed += 1;
                eprintln!(
                    "FAILED {} variant {variant} `{}`: {}",
                    self.workload,
                    u.name,
                    why.join("; ")
                );
            }
        }
    }
}

/// One untraced warm-up iteration, then untraced iterations cycling
/// through the input variants until `seconds` have passed, every
/// variant ran and at least [`MIN_ITERS`] iterations ran.
fn run_timed(w: &mut dyn Workload, seconds: f64, checker: &mut Checker) -> Vec<Iter> {
    checker.check(0, &w.iterate(0, false));
    let t = Instant::now();
    let mut iters = Vec::new();
    while iters.len() < MIN_ITERS.max(w.variants()) || common::secs(t) < seconds {
        let variant = iters.len() % w.variants();
        let it = w.iterate(variant, false);
        checker.check(variant, &it);
        iters.push(it);
    }
    iters
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A timing's median with its quartiles and sample count, for the
/// human-readable table.
fn describe(xs: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(xs);
    let tail = stats::tail(xs).map_or(String::new(), |(p, v)| format!(" p{p}={v:.6}"));
    format!("n={} q1={q1:.6} q3={q3:.6}{tail}", xs.len())
}

/// The end-to-end metrics of an untraced run whose first `variants`
/// iterations ran each input variant once.
fn end_to_end(iters: &[Iter], variants: usize, out: &mut Metrics, notes: &mut Vec<String>) {
    let setup: Vec<f64> = iters.iter().map(|i| i.setup_s).collect();
    out.put("setup_s", stats::median(&setup), "s");
    notes.push(format!("setup_s: {}", describe(&setup)));
    let rate: Vec<f64> = iters.iter().map(|i| i.rounds as f64 / i.run_s).collect();
    out.put("rounds_per_s", stats::median(&rate), "1/s");
    notes.push(format!("rounds_per_s: {}", describe(&rate)));
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");

    // Deterministic outputs, over one run of each variant.
    let units: Vec<_> = iters[..variants]
        .iter()
        .flat_map(|i| &i.units)
        .filter(|u| u.generated > 0)
        .collect();
    let generated: u64 = units.iter().map(|u| u.generated).sum();
    let committed: u64 = units.iter().map(|u| u.committed).sum();
    out.put(
        "fail_frac",
        (generated - committed) as f64 / generated as f64,
        "ratio",
    );
    // Each unit's percentile comes from its commit log where it exposes
    // one (exact), else from its metrics plane (the campaign's jobs).
    // Across units the geometric mean, so one saturated unit does not
    // outweigh the others.
    let geomean = |q: f64| {
        let logs: f64 = units
            .iter()
            .map(|u| {
                let v = if u.latencies.is_empty() {
                    u.hist
                        .as_ref()
                        .map_or(0, |h| h.quantile_ppm((q * 1e6) as u32)) as f64
                } else {
                    stats::quantile_sorted(&u.latencies, q)
                };
                v.max(1.0).ln()
            })
            .sum();
        (logs / units.len() as f64).exp()
    };
    let (p50, p99) = (geomean(0.50), geomean(0.99));
    out.put("lat_p50_rounds", p50, "rounds");
    out.put("lat_p99_rounds", p99, "rounds");
    out.put(
        "avg_queue",
        units.iter().map(|u| u.avg_queue).sum::<f64>() / units.len() as f64,
        "txns",
    );
    out.put(
        "max_pending",
        units.iter().map(|u| u.max_pending as f64).sum::<f64>() / units.len() as f64,
        "txns",
    );
}

/// Where spans are written: beside the build outputs.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    dir.join("perfbench")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

/// A traced run: the selected workload alternates untraced and traced
/// iterations for `seconds` (their ratio is the tracing overhead); every
/// other workload runs one traced iteration, so each per-layer metric is
/// measured in every traced run.
fn traced(args: &Args, workers: usize, checkers: &mut Vec<Checker>, out: &mut Metrics) {
    let mut spans = Vec::new();
    for name in WORKLOADS {
        let mut w = make(name, args.seed, workers);
        let mut checker = Checker::new(name, w.as_ref(), args.seed);
        trace::start();
        let mut plain = Vec::new();
        let mut iters = Vec::new();
        let t = Instant::now();
        loop {
            let variant = iters.len() % w.variants();
            if name == args.workload {
                trace::enable(false);
                let it = w.iterate(variant, false);
                checker.check(variant, &it);
                plain.push(it.run_s);
                trace::enable(true);
            }
            trace::set_iter(iters.len() as u32);
            let it = w.iterate(variant, true);
            checker.check(variant, &it);
            iters.push(it);
            if name != args.workload
                || (iters.len() >= MIN_TRACED && common::secs(t) >= args.seconds)
            {
                break;
            }
        }
        let tr = trace::finish();
        w.layers(&tr, &iters, out);
        if name == args.workload {
            let traced_s: Vec<f64> = iters.iter().map(|i| i.run_s).collect();
            out.put(
                "trace.overhead_frac",
                stats::median(&traced_s) / stats::median(&plain) - 1.0,
                "ratio",
            );
        }
        spans.push((name, tr));
        checkers.push(checker);
    }
    let path = spans_path(args.workload, args.seed);
    let written =
        std::fs::create_dir_all(path.parent().expect("file in a directory")).and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for (name, tr) in &spans {
                tr.write_jsonl(&mut f, name)?;
            }
            std::io::Write::flush(&mut f)
        });
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} workers={workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut out = Metrics::default();
    let mut notes = Vec::new();
    let mut checkers = Vec::new();
    if args.trace {
        traced(&args, workers, &mut checkers, &mut out);
    } else {
        let mut w = make(args.workload, args.seed, workers);
        let mut checker = Checker::new(args.workload, w.as_ref(), args.seed);
        let iters = run_timed(w.as_mut(), args.seconds, &mut checker);
        end_to_end(&iters, w.variants(), &mut out, &mut notes);
        checkers.push(checker);
    }

    let attempted: u64 = checkers.iter().map(|c| c.attempted).sum();
    let failed: u64 = checkers.iter().map(|c| c.failed).sum();
    for (name, value, unit) in &out.0 {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    for note in &notes {
        println!("  {note}");
    }
    let metrics: Vec<String> = out
        .0
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
}
