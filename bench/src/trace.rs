//! Spans around the calls into each layer, recorded from the benchmark's
//! side, kept in memory and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call: which request it served, the layer it entered, the span
/// that caused it, and when.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a request's root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Switched off it takes no timestamps, which is how
/// the tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> RefCell<Tracer> {
        RefCell::new(Tracer {
            enabled,
            epoch: Instant::now(),
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        })
    }

    /// Spans recorded from now on belong to the next request.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            request: self.request,
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns: now,
            end_ns: now,
        });
    }

    fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }
}

/// Runs `f` inside a span named `name`. The tracer is not borrowed while
/// `f` runs, so `f` may open child spans.
pub fn span<T>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit();
    out
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by name over the spans `keep` accepts. Also the
/// number of those spans per name.
pub fn self_times(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&child_ns).filter(|(s, _)| keep(s)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += s.duration_ns().saturating_sub(*covered);
        e.1 += 1;
    }
    by_name
}

/// Writes the spans as JSON lines: `{request, name, parent, start_ns, end_ns}`.
pub fn write_jsonl(spans: &[Span], w: &mut impl Write) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"request\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 holds a 10..60 (which holds b 20..40) and b 70..90.
        let spans = [
            s("root", None, 0, 100),
            s("a", Some(0), 10, 60),
            s("b", Some(1), 20, 40),
            s("b", Some(0), 70, 90),
        ];
        let t = self_times(&spans, |_| true);
        assert_eq!(t["root"], (100 - 50 - 20, 1));
        assert_eq!(t["a"], (50 - 20, 1));
        assert_eq!(t["b"], (20 + 20, 2));
        let total: u64 = t.values().map(|v| v.0).sum();
        assert_eq!(total, 100, "self times partition the root");
        let only_b = self_times(&spans, |s| s.name == "b");
        assert_eq!(only_b.len(), 1);
        assert_eq!(only_b["b"], (40, 2));
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let tr = Tracer::new(true);
        tr.borrow_mut().next_request();
        let v = span(&tr, "outer", || span(&tr, "inner", || 7));
        assert_eq!(v, 7);
        let spans = &tr.borrow().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].request, 1);

        let off = Tracer::new(false);
        assert_eq!(span(&off, "outer", || 1), 1);
        assert!(off.borrow().spans.is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(&[s("root", None, 0, 5), s("a", Some(0), 1, 2)], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"request\": 1, \"name\": \"root\", \"parent\": null, \"start_ns\": 0, \"end_ns\": 5}\n\
             {\"request\": 1, \"name\": \"a\", \"parent\": 0, \"start_ns\": 1, \"end_ns\": 2}\n"
        );
    }
}
