//! Report serialization: CSV, JSON-lines, and the stdout summary table.
//!
//! All three renderings are deterministic functions of the outcome list
//! (itself ordered by job index), so report files are byte-identical
//! across worker counts and runs.

use crate::exec::JobOutcome;
use std::io::Write as _;
use std::path::Path;

/// The CSV header row (no trailing newline).
///
/// Deliberately **without** an `engine` column: the engine changes how a
/// job executes, never what it measures, and the headline guarantee is
/// that `engine = net` reports are byte-identical to `engine = sim` — a
/// column recording the engine would break exactly that equality. The
/// four trailing fault columns are all zero for fault-free runs.
pub const CSV_HEADER: &str = "scenario,job,scheduler,metric,shards,accounts,k,rounds,rho,b,\
strategy,shape,seed,coloring,generated,committed,aborted,pending_at_end,avg_queue_per_shard,\
avg_latency,max_latency,max_total_pending,epochs,max_epoch_len,messages,max_message_bytes,\
verdict,order_violations,crashes,dropped_msgs,duplicated_msgs,byz_flips,\
mempool_depth_max,admitted,deferred,evicted,lat_p50,lat_p99,lat_p999,util_min_shard,\
reshard_lost,reshard_dup";

/// One CSV data row (no trailing newline).
pub fn csv_row(o: &JobOutcome) -> String {
    let s = &o.spec;
    let r = &o.report;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{:.2},{},{},{},{},{},{},{:?},{},{},{},{},{},{},{},{}",
        s.scenario,
        s.index,
        s.scheduler,
        s.metric,
        s.shards,
        s.accounts,
        s.k,
        s.rounds,
        s.rho,
        s.b,
        s.strategy,
        s.shape,
        s.seed,
        s.coloring,
        r.generated,
        r.committed,
        r.aborted,
        r.pending_at_end,
        r.avg_queue_per_shard,
        r.avg_latency,
        r.max_latency,
        r.max_total_pending,
        r.epochs,
        r.max_epoch_len,
        r.messages,
        r.max_message_bytes,
        r.verdict,
        match o.violations {
            Some(v) => v.to_string(),
            None => String::new(),
        },
        r.faults.crashes,
        r.faults.dropped,
        r.faults.duplicated,
        r.faults.byz_flips,
        // The four ingestion-plane columns render empty (not zero) for
        // jobs without a mempool, so legacy rows stay visually distinct
        // from a firehose run that genuinely admitted everything.
        match &o.mempool {
            Some(m) => format!("{},{},{},{}", m.depth_max, m.admitted, m.deferred, m.evicted),
            None => ",,,".to_string(),
        },
        // Same convention for the four metrics-plane columns: empty for
        // jobs that ran with `metrics = off`, never a fake zero.
        match &r.metrics {
            Some(m) => format!(
                "{},{},{},{:.4}",
                m.lat_p50(),
                m.lat_p99(),
                m.lat_p999(),
                m.util_min_shard()
            ),
            None => ",,,".to_string(),
        },
        // And for the two migration-audit columns: static jobs render
        // empty, a reshard job that truly lost nothing renders 0,0.
        match o.reshard {
            Some((lost, dup)) => format!("{lost},{dup}"),
            None => ",".to_string(),
        },
    )
}

/// The whole CSV document.
pub fn csv_string(outcomes: &[JobOutcome]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for o in outcomes {
        out.push_str(&csv_row(o));
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One JSON object per outcome (no trailing newline). Hand-rolled — the
/// workspace is offline and the schema is flat.
pub fn json_line(o: &JobOutcome) -> String {
    let s = &o.spec;
    let r = &o.report;
    let mut fields = vec![
        format!("\"scenario\":\"{}\"", json_escape(&s.scenario)),
        format!("\"job\":{}", s.index),
        format!("\"scheduler\":\"{}\"", s.scheduler),
        format!("\"metric\":\"{}\"", s.metric),
        format!("\"shards\":{}", s.shards),
        format!("\"accounts\":{}", s.accounts),
        format!("\"k\":{}", s.k),
        format!("\"rounds\":{}", s.rounds),
        format!("\"rho\":{}", s.rho),
        format!("\"b\":{}", s.b),
        format!("\"strategy\":\"{}\"", s.strategy),
        format!("\"shape\":\"{}\"", s.shape),
        format!("\"seed\":{}", s.seed),
        format!("\"coloring\":\"{}\"", s.coloring),
        format!("\"generated\":{}", r.generated),
        format!("\"committed\":{}", r.committed),
        format!("\"aborted\":{}", r.aborted),
        format!("\"pending_at_end\":{}", r.pending_at_end),
        format!("\"avg_queue_per_shard\":{:.4}", r.avg_queue_per_shard),
        format!("\"avg_latency\":{:.2}", r.avg_latency),
        format!("\"max_latency\":{}", r.max_latency),
        format!("\"max_total_pending\":{}", r.max_total_pending),
        format!("\"epochs\":{}", r.epochs),
        format!("\"max_epoch_len\":{}", r.max_epoch_len),
        format!("\"messages\":{}", r.messages),
        format!("\"max_message_bytes\":{}", r.max_message_bytes),
        format!("\"verdict\":\"{:?}\"", r.verdict),
        format!("\"crashes\":{}", r.faults.crashes),
        format!("\"dropped_msgs\":{}", r.faults.dropped),
        format!("\"duplicated_msgs\":{}", r.faults.duplicated),
        format!("\"byz_flips\":{}", r.faults.byz_flips),
    ];
    if let Some(v) = o.violations {
        fields.push(format!("\"order_violations\":{v}"));
    }
    if let Some(m) = &o.mempool {
        fields.push(format!("\"mempool_depth_max\":{}", m.depth_max));
        fields.push(format!("\"admitted\":{}", m.admitted));
        fields.push(format!("\"deferred\":{}", m.deferred));
        fields.push(format!("\"evicted\":{}", m.evicted));
    }
    if let Some(m) = &r.metrics {
        fields.push(format!("\"lat_p50\":{}", m.lat_p50()));
        fields.push(format!("\"lat_p99\":{}", m.lat_p99()));
        fields.push(format!("\"lat_p999\":{}", m.lat_p999()));
        fields.push(format!("\"util_min_shard\":{:.4}", m.util_min_shard()));
    }
    if let Some((lost, dup)) = o.reshard {
        fields.push(format!("\"reshard_lost\":{lost}"));
        fields.push(format!("\"reshard_dup\":{dup}"));
    }
    format!("{{{}}}", fields.join(","))
}

/// The whole JSON-lines document.
pub fn jsonl_string(outcomes: &[JobOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&json_line(o));
        out.push('\n');
    }
    out
}

/// The per-epoch timeline document for `metrics = full` jobs: one JSON
/// object per `(job, epoch)`, in job then epoch order. Jobs that ran at
/// `off`/`summary` contribute no lines; an all-`off` run yields `None`
/// (no file should be written at all).
pub fn metrics_jsonl_string(outcomes: &[JobOutcome]) -> Option<String> {
    let mut out = String::new();
    let mut any = false;
    for o in outcomes {
        if o.spec.metrics != metrics::MetricsMode::Full {
            continue;
        }
        let Some(m) = &o.report.metrics else { continue };
        any = true;
        for row in &m.timeline {
            out.push_str(&format!(
                "{{\"scenario\":\"{}\",\"job\":{},\"epoch\":{},\"start_round\":{},\
                 \"rounds\":{},\"commits\":{},\"aborts\":{},\"pending_max\":{},\
                 \"pending_sum\":{},\"byz_flips\":{},\"crashed_shards_max\":{},\
                 \"active_shards\":{}}}\n",
                json_escape(&o.spec.scenario),
                o.spec.index,
                row.epoch,
                row.start_round,
                row.rounds,
                row.commits,
                row.aborts,
                row.pending_max,
                row.pending_sum,
                row.byz_flips,
                row.crashed_shards_max,
                row.active_shards,
            ));
        }
    }
    any.then_some(out)
}

/// Writes `content` to `path`, creating parent directories.
pub fn write_report(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())
}

/// A fixed-width human summary table for stdout: one row per job,
/// labeled by the grid overrides that produced it.
pub fn summary_table(outcomes: &[JobOutcome]) -> String {
    let label_w = outcomes
        .iter()
        .map(|o| o.spec.label().len())
        .max()
        .unwrap_or(6)
        .max(6);
    let mut out = format!(
        "{:>4} {:<label_w$} {:>6} {:>9} {:>9} {:>9} {:>11} {:>11} {:>10}\n",
        "job",
        "sweep",
        "sched",
        "generated",
        "committed",
        "pending",
        "avg queue",
        "avg lat",
        "verdict",
    );
    for o in outcomes {
        let r = &o.report;
        out.push_str(&format!(
            "{:>4} {:<label_w$} {:>6} {:>9} {:>9} {:>9} {:>11.2} {:>11.1} {:>10}\n",
            o.spec.index,
            o.spec.label(),
            o.spec.scheduler.to_string(),
            r.generated,
            r.committed,
            r.pending_at_end,
            r.avg_queue_per_shard,
            r.avg_latency,
            format!("{:?}", r.verdict),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_jobs;
    use crate::parse::Scenario;

    fn outcomes() -> Vec<JobOutcome> {
        let text = "
name = report-tiny
scheduler = fcfs
shards = 4
accounts = 8
k = 2
rounds = 80
rho = 0.2
b = 3

[grid]
seed = 1, 2
";
        let jobs = Scenario::parse_str(text, "<t>").unwrap().jobs().unwrap();
        run_jobs(&jobs, 2, false)
    }

    #[test]
    fn csv_shape() {
        let out = outcomes();
        let csv = csv_string(&out);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, CSV_HEADER);
        let cols = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let out = outcomes();
        let jsonl = jsonl_string(&out);
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"scheduler\":\"FCFS\""));
        }
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summary_lists_every_job() {
        let out = outcomes();
        let table = summary_table(&out);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("seed=2"));
    }
}
