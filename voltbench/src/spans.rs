//! The benchmark's own spans: recorded in memory around each call the
//! benchmark makes into a layer of the program, written out as JSONL
//! when the run ends. Nothing here reaches inside the program.

use serde::Value;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A wall-clock interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// When it began.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
}

impl Interval {
    /// The interval from `start` until now.
    pub fn since(start: Instant) -> Interval {
        Interval {
            start,
            end: Instant::now(),
        }
    }

    /// Wall duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// One recorded span, in nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one recorder; ids start at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The layer call this span covers, e.g. `analysis.fig11a`.
    pub name: String,
    /// Shared by every span of one unit of work: `workload/iteration`.
    pub trace: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The part of `span` that no child covers, seconds. Children may
/// overlap each other (concurrent requests); covered time counts once.
pub fn self_time(span: &Span, children: &[&Span]) -> f64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    cover.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.end_ns
        .saturating_sub(span.start_ns)
        .saturating_sub(covered) as f64
        * 1e-9
}

/// An in-memory span log. A disabled recorder keeps nothing, so the
/// untraced pass pays one branch per call.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves the id of a span that is about to start, so its
    /// children can name it as their parent before it closes.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id` as running from `start` until now and returns
    /// that interval (which is measured whether or not the recorder is
    /// enabled).
    pub fn close(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        trace: &str,
        start: Instant,
    ) -> Interval {
        let span = Interval::since(start);
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
            self.spans
                .lock()
                .expect("span log lock is never held across a panic")
                .push(Span {
                    id,
                    parent,
                    name: name.to_string(),
                    trace: trace.to_string(),
                    start_ns: ns(span.start),
                    end_ns: ns(span.end),
                });
        }
        span
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        parent: Option<u64>,
        name: &str,
        trace: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Interval) {
        let id = self.open();
        let start = Instant::now();
        let out = f();
        (out, self.close(id, parent, name, trace, start))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock is never held across a panic")
            .clone()
    }

    /// The self time of each span named `name`, seconds.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children: Vec<&Span> =
                    spans.iter().filter(|c| c.parent == Some(s.id)).collect();
                self_time(s, &children)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = Value::Object(vec![
                ("id".into(), Value::U64(s.id)),
                ("parent".into(), s.parent.map_or(Value::Null, Value::U64)),
                ("name".into(), Value::Str(s.name)),
                ("trace".into(), Value::Str(s.trace)),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
            ]);
            let text = serde_json::to_string(&line).map_err(std::io::Error::other)?;
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            trace: "w/0".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span(1, None, 0, 1000);
        // [100, 400) and [300, 500) overlap: together they cover 400 ns.
        // [900, 1200) pokes out of the parent: only 100 ns count.
        let a = span(2, Some(1), 100, 400);
        let b = span(3, Some(1), 300, 500);
        let c = span(4, Some(1), 900, 1200);
        let st = self_time(&parent, &[&a, &b, &c]);
        assert!((st - 500e-9).abs() < 1e-15, "{st}");
        // A child nested inside another adds nothing.
        let inner = span(5, Some(1), 150, 200);
        let st2 = self_time(&parent, &[&a, &inner, &b, &c]);
        assert_eq!(st, st2);
        assert!((self_time(&parent, &[]) - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let rec = Recorder::new(true);
        let outer = rec.open();
        let start = Instant::now();
        let ((), _) = rec.time(Some(outer), "child", "w/0", || ());
        rec.close(outer, None, "outer", "w/0", start);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(outer));
        assert_eq!(rec.self_times("outer").len(), 1);
        let off = Recorder::new(false);
        off.time(None, "x", "w/0", || ());
        assert!(off.spans().is_empty());
    }
}
