//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a crate's public API; nothing inside the program is
//! instrumented. Recording is per thread (the workloads only open spans on
//! the driving thread) and off unless [`start`] armed it, so an untraced
//! run pays one thread-local flag read per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was armed.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// `<crate>.<fn>` of the call the span covers.
    pub name: &'static str,
    /// Optional classification set while the span was open (for example
    /// `steady` or `search` on a PC3D window).
    pub tag: &'static str,
    /// Open time.
    pub start: f64,
    /// Close time.
    pub end: f64,
    /// The iteration the span belongs to.
    pub run: u32,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms the recorder on this thread; spans opened until [`finish`] carry
/// `run` as their run id.
pub fn start(run: u32) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Disarms the recorder and returns every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// An open span; closes when dropped.
#[must_use = "a span closes when the guard is dropped"]
pub struct Guard {
    id: Option<usize>,
}

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let now = rec.origin.elapsed().as_secs_f64();
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            name,
            tag: "",
            start: now,
            end: now,
            run: rec.run,
        });
        rec.open.push(id);
        Some(id)
    });
    Guard { id }
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = enter(name);
    f()
}

impl Guard {
    /// Classifies the span (shown in the dump and the self-time table).
    pub fn tag(&self, tag: &'static str) {
        if let Some(id) = self.id {
            REC.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.spans[id].tag = tag;
                }
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else {
            return;
        };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end = rec.origin.elapsed().as_secs_f64();
                if rec.open.last() == Some(&id) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Total seconds spent in spans called `name` (optionally only those
/// tagged `tag`).
pub fn total(spans: &[Span], name: &str, tag: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
        .fold(0.0, |acc, s| acc + s.secs())
}

/// Per-name totals: `(calls, total seconds, self seconds)`, where self
/// time is a span's duration minus the time its direct children cover.
/// Keys are `name` or `name[tag]`.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut child = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let key = if s.tag.is_empty() {
            s.name.to_string()
        } else {
            format!("{}[{}]", s.name, s.tag)
        };
        let e = out.entry(key).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += s.secs() - child[s.id];
    }
    out
}

/// One JSON object per span, one per line.
pub fn jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}\n",
            s.id, s.run, s.name, s.tag, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        start(7);
        span("a.outer", || {
            let g = enter("b.inner");
            g.tag("x");
            drop(g);
            span("b.inner", || {});
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7 && s.end >= s.start));
        let t = self_times(&spans);
        assert_eq!(t["b.inner[x]"].0, 1);
        assert_eq!(t["b.inner"].0, 1);
        let outer = t["a.outer"];
        assert!(outer.2 <= outer.1 + 1e-12);
        assert_eq!(jsonl(&spans).lines().count(), 3);
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        span("a.outer", || span("b.inner", || {}));
        assert!(finish().is_empty());
    }
}
