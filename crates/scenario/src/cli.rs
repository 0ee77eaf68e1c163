//! The `blockshard` command-line interface (clap-style, hand-rolled —
//! the workspace is offline) plus the small argument parser shared by
//! the figure-wrapper binaries in `bench`.

use crate::bench;
use crate::campaign;
use crate::exec::{run_jobs, JobOutcome};
use crate::parse::Scenario;
use crate::report;
use std::path::{Path, PathBuf};

const USAGE: &str = "blockshard — declarative scenario driver

USAGE:
    blockshard run <FILE>... [OPTIONS]     execute scenarios, write reports
    blockshard plan <FILE>                 print the expanded job list
    blockshard check <FILE>...             parse + validate only
    blockshard list [DIR]                  list scenario files (default scenarios/)
    blockshard bench [FILTER...] [OPTIONS] run the performance fixtures
    blockshard campaign <FAMILY> [OPTIONS] run a named scenario family
    blockshard help                        this text

OPTIONS (run):
    --threads N      worker threads (default: min(cores, jobs))
    --out DIR        report directory (default: results/)
    --rounds N       override rounds for every job (grid axes still win)
    --set KEY=VALUE  override any base key (repeatable; grid axes still win)
    --quiet          no per-job progress on stderr
    --no-write       print the summary but write no report files

OPTIONS (bench):
    --quick               CI-size fixtures (fewer rounds and repeats)
    --repeats N           timed iterations per fixture (default 5; quick 3)
    --warmup N            untimed warmup iterations (default 1)
    --out FILE            write the machine-readable report (BENCH_*.json)
    --scenarios DIR       scenario directory (default scenarios/)
    --baseline FILE       compare against a previous BENCH_*.json
    --max-regression X    fail when any fixture is >X times slower than
                          the baseline (default 2.0; needs --baseline)
    FILTER                only fixtures whose name contains a FILTER

OPTIONS (campaign):
    FAMILY           quick (the checked-in 200-round CI shape, golden-
                     diffed) or full (the nightly long-round shape)
    --threads N      worker threads (default: min(cores, jobs))
    --out DIR        report directory (default: results/)
    --rounds N       override rounds for every member (beats the family)
    --set KEY=VALUE  override any base key (repeatable)
    --scenarios DIR  member scenario directory (default scenarios/)
    --timed          re-run each member's first job as a timed probe
    --quiet          no per-job progress on stderr
    --no-write       print the summary but write no report files

Reports land in <out>/<scenario-name>.csv and .jsonl (campaign members
with a `metrics = full` job also write <name>.metrics.jsonl, the
per-epoch timeline). See the scenario crate rustdoc or README.md for
the scenario file grammar.";

/// Worker-thread default: available cores, capped by the job count.
pub fn default_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, jobs.max(1))
}

/// Arguments shared by the figure-wrapper binaries (`fig2`, `table_t1`,
/// `ablations`): quick/full scenario selection plus engine overrides.
#[derive(Debug, Clone)]
pub struct BinArgs {
    /// Run the paper-scale variant of the scenario.
    pub full: bool,
    /// Explicit `--rounds` override, when given.
    pub rounds: Option<u64>,
    /// Output directory for reports/CSVs.
    pub out: PathBuf,
    /// Worker threads (`0` = pick a default per plan size).
    pub threads: usize,
}

impl BinArgs {
    /// Parses `std::env::args`; on bad input prints the error and exits
    /// with status 2.
    pub fn parse() -> BinArgs {
        or_exit(BinArgs::parse_from(std::env::args().skip(1)))
    }

    /// Parses `args` (without the program name); unknown flags are
    /// ignored.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<BinArgs, String> {
        fn value<'a>(
            it: &mut impl Iterator<Item = &'a String>,
            flag: &str,
        ) -> Result<&'a String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        fn int<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag} takes an integer, got `{v}`"))
        }
        let args: Vec<String> = args.into_iter().collect();
        let mut out = BinArgs {
            full: args.iter().any(|a| a == "--full"),
            rounds: None,
            out: PathBuf::from("results"),
            threads: 0,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--rounds" => out.rounds = Some(int(value(&mut it, a)?, a)?),
                "--out" => out.out = PathBuf::from(value(&mut it, a)?),
                "--threads" => out.threads = int(value(&mut it, a)?, a)?,
                _ => {}
            }
        }
        Ok(out)
    }

    /// The engine overrides this argument set implies. Binaries whose
    /// scenario file has no `_full` variant honor `--full` by overriding
    /// rounds to the paper's 25 000 (explicit `--rounds` still wins).
    pub fn sets(&self) -> Vec<(String, String)> {
        match (self.rounds, self.full) {
            (Some(r), _) => vec![("rounds".to_string(), r.to_string())],
            (None, true) => vec![("rounds".to_string(), "25000".to_string())],
            (None, false) => Vec::new(),
        }
    }

    /// Loads `scenarios/<base>_full.scenario` or `<base>_quick.scenario`
    /// per `--full`, exiting with a readable error if missing.
    pub fn load_variant(&self, base: &str) -> Scenario {
        let suffix = if self.full { "full" } else { "quick" };
        load_or_exit(Path::new(&format!("scenarios/{base}_{suffix}.scenario")))
    }

    /// Runs a scenario through the engine with this argument set.
    pub fn execute(&self, scenario: &Scenario) -> Vec<JobOutcome> {
        let jobs = or_exit(scenario.jobs_with(&self.sets()));
        let threads = if self.threads == 0 {
            default_threads(jobs.len())
        } else {
            self.threads
        };
        run_jobs(&jobs, threads, true)
    }
}

/// Loads a scenario file or exits with a readable error (binary helper).
pub fn load_or_exit(path: &Path) -> Scenario {
    or_exit(Scenario::load(path))
}

/// Unwraps `result`, or prints the error and exits with status 2
/// (binary helper).
pub fn or_exit<T>(result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Prints `msg` with the usage text; returns the usage-error status.
fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg}\n\n{USAGE}");
    2
}

/// The value after `flag`, parsed as `T` (`what` names the form).
fn flag_value<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: `{v}` is not {what}"))
}

/// The value after `--threads`, which must be at least 1.
fn threads_value<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<usize, String> {
    match flag_value(it, "--threads", "an integer")? {
        0 => Err("--threads must be >= 1".into()),
        n => Ok(n),
    }
}

/// The override after `--set KEY=VALUE`, or after `--rounds N` (sugar
/// for `--set rounds=N`).
fn override_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<(String, String), String> {
    if flag == "--rounds" {
        let rounds: u64 = flag_value(it, flag, "an integer")?;
        return Ok(("rounds".to_string(), rounds.to_string()));
    }
    let v = it.next().ok_or("--set takes KEY=VALUE")?;
    let (k, val) = v
        .split_once('=')
        .ok_or_else(|| format!("--set: `{v}` is not KEY=VALUE"))?;
    Ok((k.trim().to_string(), val.trim().to_string()))
}

#[derive(Debug)]
struct RunFlags {
    files: Vec<PathBuf>,
    threads: usize,
    out: PathBuf,
    sets: Vec<(String, String)>,
    quiet: bool,
    write: bool,
}

fn parse_run_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        files: Vec::new(),
        threads: 0,
        out: PathBuf::from("results"),
        sets: Vec::new(),
        quiet: false,
        write: true,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => flags.threads = threads_value(&mut it)?,
            "--out" => flags.out = flag_value(&mut it, a, "a path")?,
            "--rounds" | "--set" => flags.sets.push(override_value(&mut it, a)?),
            "--quiet" => flags.quiet = true,
            "--no-write" => flags.write = false,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => flags.files.push(PathBuf::from(file)),
        }
    }
    if flags.files.is_empty() {
        return Err("no scenario files given".into());
    }
    Ok(flags)
}

fn cmd_run(args: &[String]) -> i32 {
    let flags = match parse_run_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    for file in &flags.files {
        let planned = Scenario::load(file).and_then(|s| s.jobs_with(&flags.sets).map(|j| (s, j)));
        let (scenario, jobs) = match planned {
            Ok(planned) => planned,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let threads = if flags.threads == 0 {
            default_threads(jobs.len())
        } else {
            flags.threads
        };
        if !flags.quiet {
            eprintln!(
                "scenario `{}`: {} job(s) on {} thread(s)",
                scenario.name,
                jobs.len(),
                threads.clamp(1, jobs.len())
            );
        }
        let outcomes = run_jobs(&jobs, threads, !flags.quiet);
        println!("# {}", scenario.name);
        if !scenario.description.is_empty() {
            println!("# {}", scenario.description);
        }
        print!("{}", report::summary_table(&outcomes));
        if flags.write {
            let csv = flags.out.join(format!("{}.csv", scenario.name));
            let jsonl = flags.out.join(format!("{}.jsonl", scenario.name));
            if let Err(e) = report::write_report(&csv, &report::csv_string(&outcomes))
                .and_then(|()| report::write_report(&jsonl, &report::jsonl_string(&outcomes)))
            {
                eprintln!("error: writing reports: {e}");
                return 1;
            }
            if let Some(timeline) = report::metrics_jsonl_string(&outcomes) {
                let path = flags.out.join(format!("{}.metrics.jsonl", scenario.name));
                if let Err(e) = report::write_report(&path, &timeline) {
                    eprintln!("error: writing {}: {e}", path.display());
                    return 1;
                }
            }
            println!("reports: {} + {}", csv.display(), jsonl.display());
        }
    }
    0
}

fn cmd_plan(args: &[String]) -> i32 {
    let [file] = args else {
        return usage_error("plan takes exactly one scenario file");
    };
    match Scenario::load(Path::new(file)).and_then(|s| s.jobs().map(|j| (s, j))) {
        Ok((scenario, jobs)) => {
            print!("{}", scenario.plan_string(&jobs));
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn cmd_check(args: &[String]) -> i32 {
    if args.is_empty() {
        return usage_error("check takes scenario files");
    }
    let mut status = 0;
    for file in args {
        match Scenario::load(Path::new(file)).and_then(|s| s.jobs().map(|j| (s, j))) {
            Ok((s, jobs)) => println!("ok: {file}: `{}`, {} job(s)", s.name, jobs.len()),
            Err(e) => {
                println!("FAIL: {e}");
                status = 1;
            }
        }
    }
    status
}

fn cmd_list(args: &[String]) -> i32 {
    let dir = args.first().map(String::as_str).unwrap_or("scenarios");
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot read `{dir}`: {e}");
            return 2;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    paths.sort();
    for p in paths {
        match Scenario::load(&p).and_then(|s| s.jobs().map(|j| (s, j))) {
            Ok((s, jobs)) => println!(
                "{:<42} {:<18} {:>4} job(s)  {}",
                p.display(),
                s.name,
                jobs.len(),
                s.description
            ),
            Err(e) => println!("{:<42} INVALID: {e}", p.display()),
        }
    }
    0
}

#[derive(Debug)]
struct BenchFlags {
    opts: bench::BenchOpts,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    max_regression: f64,
}

fn parse_bench_flags(args: &[String]) -> Result<BenchFlags, String> {
    // --quick shrinks rounds *and* the repeat default, so resolve it
    // before the flag loop (explicit --repeats still wins).
    let quick = args.iter().any(|a| a == "--quick");
    let mut flags = BenchFlags {
        opts: if quick {
            bench::BenchOpts::quick()
        } else {
            bench::BenchOpts::full()
        },
        out: None,
        baseline: None,
        max_regression: 2.0,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--repeats" => {
                flags.opts.repeats = flag_value(&mut it, a, "an integer")?;
                if flags.opts.repeats == 0 {
                    return Err("--repeats must be >= 1".into());
                }
            }
            "--warmup" => flags.opts.warmup = flag_value(&mut it, a, "an integer")?,
            "--out" => flags.out = Some(flag_value(&mut it, a, "a path")?),
            "--scenarios" => flags.opts.scenarios_dir = flag_value(&mut it, a, "a path")?,
            "--baseline" => flags.baseline = Some(flag_value(&mut it, a, "a path")?),
            "--max-regression" => {
                flags.max_regression = flag_value(&mut it, a, "a number")?;
                if flags.max_regression <= 1.0 || flags.max_regression.is_nan() {
                    return Err("--max-regression must be > 1".into());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            filter => flags.opts.filter.push(filter.to_string()),
        }
    }
    Ok(flags)
}

fn cmd_bench(args: &[String]) -> i32 {
    let flags = match parse_bench_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    eprintln!(
        "bench: {} mode, {} repeat(s) after {} warmup(s)",
        if flags.opts.quick { "quick" } else { "full" },
        flags.opts.repeats,
        flags.opts.warmup,
    );
    let results = match bench::run_fixtures(&flags.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if results.is_empty() {
        eprintln!("error: no fixture matches the given filter(s)");
        return 2;
    }
    print!("{}", bench::summary_table(&results));
    if let Some(out) = &flags.out {
        let json = bench::render_json(&results, &flags.opts, &bench::git_sha());
        if let Err(e) = bench::write_bench_file(out, &json) {
            eprintln!("error: writing {}: {e}", out.display());
            return 1;
        }
        println!("bench report: {}", out.display());
    }
    if let Some(path) = &flags.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading baseline {}: {e}", path.display());
                return 2;
            }
        };
        let baseline = match bench::parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let comparisons = bench::compare(&results, &baseline);
        let (table, failures) = bench::regression_report(&comparisons, flags.max_regression);
        print!("{table}");
        if !failures.is_empty() {
            eprintln!(
                "error: {} fixture(s) regressed more than {:.2}x vs {}: {}",
                failures.len(),
                flags.max_regression,
                path.display(),
                failures.join(", "),
            );
            return 1;
        }
    }
    0
}

fn parse_campaign_flags(
    args: &[String],
) -> Result<(campaign::Family, campaign::CampaignOpts), String> {
    let mut family: Option<campaign::Family> = None;
    let mut opts = campaign::CampaignOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => opts.threads = threads_value(&mut it)?,
            "--out" => opts.out = flag_value(&mut it, a, "a path")?,
            "--scenarios" => opts.scenarios_dir = flag_value(&mut it, a, "a path")?,
            "--rounds" | "--set" => opts.sets.push(override_value(&mut it, a)?),
            "--timed" => opts.timed = true,
            "--quiet" => opts.quiet = true,
            "--no-write" => opts.write = false,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name => {
                if family.is_some() {
                    return Err(format!("campaign takes one family, got extra `{name}`"));
                }
                family = Some(name.parse()?);
            }
        }
    }
    let family = family.ok_or("campaign takes a family (quick or full)")?;
    Ok((family, opts))
}

fn cmd_campaign(args: &[String]) -> i32 {
    let (family, opts) = match parse_campaign_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let results = match campaign::run_campaign(family, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!("# campaign {}", family.name());
    print!("{}", campaign::summary_table(&results));
    if let Some(probes) = results
        .iter()
        .map(|r| r.probe_ns_per_round.map(|ns| (r.name.clone(), ns)))
        .collect::<Option<Vec<_>>>()
    {
        for (name, ns) in probes {
            eprintln!("probe: {name}: {:.0} ns/round (median)", ns);
        }
    }
    if opts.write {
        println!(
            "reports: {}/<scenario>.csv + .jsonl (+ .metrics.jsonl for metrics = full)",
            opts.out.display()
        );
    }
    0
}

/// CLI entry point; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            i32::from(args.is_empty())
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_flags_parse() {
        let args: Vec<String> = [
            "a.scenario",
            "--threads",
            "3",
            "--rounds",
            "500",
            "--set",
            "rho=0.2",
            "--quiet",
            "b.scenario",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = parse_run_flags(&args).unwrap();
        assert_eq!(f.files.len(), 2);
        assert_eq!(f.threads, 3);
        assert!(f.quiet);
        assert_eq!(
            f.sets,
            vec![
                ("rounds".to_string(), "500".to_string()),
                ("rho".to_string(), "0.2".to_string())
            ]
        );
    }

    #[test]
    fn bin_args_full_implies_paper_rounds() {
        let base = BinArgs {
            full: false,
            rounds: None,
            out: PathBuf::from("results"),
            threads: 0,
        };
        assert!(base.sets().is_empty());
        let full = BinArgs {
            full: true,
            ..base.clone()
        };
        assert_eq!(
            full.sets(),
            vec![("rounds".to_string(), "25000".to_string())]
        );
        let explicit = BinArgs {
            full: true,
            rounds: Some(300),
            ..base
        };
        assert_eq!(
            explicit.sets(),
            vec![("rounds".to_string(), "300".to_string())],
            "explicit --rounds beats --full"
        );
    }

    #[test]
    fn bench_flags_parse() {
        let args: Vec<String> = [
            "--quick",
            "bds",
            "--repeats",
            "7",
            "--out",
            "BENCH_x.json",
            "--baseline",
            "BENCH_baseline.json",
            "--max-regression",
            "1.5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = parse_bench_flags(&args).unwrap();
        assert!(f.opts.quick);
        assert_eq!(f.opts.repeats, 7, "explicit --repeats beats --quick");
        assert_eq!(f.opts.filter, vec!["bds".to_string()]);
        assert_eq!(f.out, Some(PathBuf::from("BENCH_x.json")));
        assert_eq!(f.baseline, Some(PathBuf::from("BENCH_baseline.json")));
        assert!((f.max_regression - 1.5).abs() < 1e-12);

        let quick_default = parse_bench_flags(&["--quick".to_string()]).unwrap();
        assert_eq!(quick_default.opts.repeats, 3);
        assert_eq!(parse_bench_flags(&[]).unwrap().opts.repeats, 5);
    }

    #[test]
    fn bench_flags_reject_bad_input() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_bench_flags(&args).unwrap_err()
        };
        assert!(bad(&["--wat"]).contains("unknown flag"));
        assert!(bad(&["--repeats", "0"]).contains(">= 1"));
        assert!(bad(&["--max-regression", "0.5"]).contains("> 1"));
        assert!(bad(&["--baseline"]).contains("takes a value"));
    }

    #[test]
    fn campaign_flags_parse() {
        let args: Vec<String> = [
            "quick",
            "--threads",
            "2",
            "--out",
            "camp",
            "--set",
            "seed=7",
            "--timed",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (family, opts) = parse_campaign_flags(&args).unwrap();
        assert_eq!(family, campaign::Family::Quick);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.out, PathBuf::from("camp"));
        assert_eq!(opts.sets, vec![("seed".to_string(), "7".to_string())]);
        assert!(opts.timed);
        assert!(opts.quiet);
        assert!(opts.write);
    }

    #[test]
    fn campaign_flags_reject_bad_input() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_campaign_flags(&args).unwrap_err()
        };
        assert!(bad(&[]).contains("takes a family"));
        assert!(bad(&["nightly"]).contains("unknown campaign family"));
        assert!(bad(&["quick", "full"]).contains("one family"));
        assert!(bad(&["quick", "--wat"]).contains("unknown flag"));
        assert!(bad(&["quick", "--threads", "0"]).contains(">= 1"));
    }

    #[test]
    fn run_flags_reject_bad_input() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_run_flags(&args).unwrap_err()
        };
        assert!(bad(&[]).contains("no scenario files"));
        assert!(bad(&["a", "--wat"]).contains("unknown flag"));
        assert!(bad(&["a", "--threads", "x"]).contains("not an integer"));
        assert!(bad(&["a", "--set", "nope"]).contains("KEY=VALUE"));
    }
}
