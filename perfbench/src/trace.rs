//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the recorder started), the span that was open when it began
//! (its parent), and the iteration it belongs to. Spans stay in memory
//! and are written out once, when the benchmark ends. Counters record
//! work done at the same boundaries (transactions planned, epochs, …).
//!
//! Recording is off unless [`start`] was called on this thread (and not
//! paused with [`enable`]); a span guard then costs one thread-local
//! read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub iter: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything recorded between [`start`] and [`finish`].
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Summed counters.
    pub sums: BTreeMap<&'static str, u64>,
    /// Maximum counters.
    pub maxes: BTreeMap<&'static str, u64>,
}

struct Recorder {
    on: bool,
    t0: Instant,
    iter: u32,
    open: Vec<u32>,
    trace: Trace,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding anything unfinished).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            on: true,
            t0: Instant::now(),
            iter: 0,
            open: Vec::new(),
            trace: Trace::default(),
        })
    });
}

/// Stops recording and returns what was recorded (empty when off).
pub fn finish() -> Trace {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.trace)
            .unwrap_or_default()
    })
}

/// Pauses (`false`) or resumes (`true`) the current session.
pub fn enable(on: bool) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.on = on;
        }
    });
}

/// The recorder of this thread, when a session is on.
fn with_on(f: impl FnOnce(&mut Recorder)) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| rec.on) {
            f(rec);
        }
    });
}

/// Tags the spans opened from now on with iteration `iter`.
pub fn set_iter(iter: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.iter = iter;
        }
    });
}

/// Closes the span it was returned for when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct Guard(Option<u32>);

/// Opens a span named `name`, a child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut().filter(|rec| rec.on) else {
            return Guard(None);
        };
        let id = rec.trace.spans.len() as u32;
        let start_ns = rec.t0.elapsed().as_nanos() as u64;
        rec.trace.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied().unwrap_or(ROOT),
            iter: rec.iter,
        });
        rec.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.trace.spans[id as usize].end_ns = rec.t0.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
}

/// Adds `v` to counter `name`.
pub fn add(name: &'static str, v: u64) {
    with_on(|rec| *rec.trace.sums.entry(name).or_default() += v);
}

/// Raises counter `name` to at least `v`.
pub fn max(name: &'static str, v: u64) {
    with_on(|rec| {
        let m = rec.trace.maxes.entry(name).or_default();
        *m = (*m).max(v);
    });
}

impl Trace {
    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total time (ns) in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Total self time (ns) of spans named `name`: each span's duration
    /// minus the time its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != ROOT && self.spans[s.parent as usize].name == name {
                *child_ns.entry(s.parent).or_default() += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns() - child_ns.get(&(i as u32)).copied().unwrap_or(0))
            .sum()
    }

    /// Median duration (ms) of the spans named `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .durations(name)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        crate::stats::median(&ms)
    }

    pub fn sum(&self, name: &str) -> u64 {
        self.sums.get(name).copied().unwrap_or(0)
    }

    pub fn max(&self, name: &str) -> u64 {
        self.maxes.get(name).copied().unwrap_or(0)
    }

    /// Writes the spans as JSON lines: `{"id", "name", "start_ns",
    /// "end_ns", "parent", "iter"}` (`parent` is `null` for a root).
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iter
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        };
        let t = Trace {
            spans: vec![
                span("step", 0, 100, ROOT),
                span("plan", 10, 40, 0),
                span("inner", 15, 20, 1),
                span("step", 200, 250, ROOT),
            ],
            ..Trace::default()
        };
        assert_eq!(t.total_ns("step"), 150);
        assert_eq!(t.self_ns("step"), 120);
        assert_eq!(t.self_ns("plan"), 25);
    }

    #[test]
    fn spans_nest_and_record_nothing_when_off() {
        {
            let _g = span("ignored");
        }
        assert!(finish().spans.is_empty());
        start();
        set_iter(3);
        {
            let _outer = span("outer");
            let _inner = span("inner");
            enable(false);
            let _paused = span("paused");
            add("n", 7);
            enable(true);
            add("n", 2);
            max("m", 5);
            max("m", 4);
        }
        let t = finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].iter, 3);
        assert!(t.spans[0].ns() >= t.spans[1].ns());
        assert_eq!((t.sum("n"), t.max("m")), (2, 5));
    }
}
