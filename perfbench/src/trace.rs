//! In-memory span recorder for the traced run.
//!
//! A span records a name, its start and end on a process-relative clock,
//! and its parent (the span that was open when it started). Spans stay in
//! memory until the run ends; [`trace_event_json`] then writes them in the
//! Trace Event Format, the JSON read by chrome://tracing and Perfetto.
//!
//! Recording is off by default. While it is off, [`span`] only calls its
//! closure, so untraced passes time the same code without the recorder.
//! The recorder is thread-local: the benchmark makes every layer call on
//! its main thread (the engine may fan out below that call, unrecorded).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// Payload bytes moved by the wrapped call (0 when not applicable).
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One counter sample: `value` is added to the counter `name`.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub name: String,
    pub ts_ns: u64,
    pub value: f64,
}

struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        enabled: false,
        spans: Vec::new(),
        counts: Vec::new(),
        open: Vec::new(),
    });
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Turns recording on or off. Spans already open still close normally.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Runs `f` with recording off, restoring the previous state after.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = enabled();
    set_enabled(false);
    let out = f();
    set_enabled(was);
    out
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    span_bytes(name, 0, f)
}

/// Runs `f` inside a span named `name` that moves `bytes` payload bytes.
pub fn span_bytes<T>(name: &str, bytes: u64, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        let start_ns = now_ns(r.epoch);
        r.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            bytes,
        });
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = now_ns(r.epoch);
            r.spans[idx].end_ns = end;
            // A panic unwinding through `f` skips this close, so pop back
            // to this span rather than assuming it is on top.
            while let Some(top) = r.open.pop() {
                if top == idx {
                    break;
                }
                r.spans[top].end_ns = end;
            }
        });
    }
    out
}

/// Adds `value` to the counter `name` (only while recording).
pub fn count(name: &str, value: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            let ts_ns = now_ns(r.epoch);
            r.counts.push(Count {
                name: name.to_string(),
                ts_ns,
                value,
            });
        }
    });
}

/// Removes and returns everything recorded so far.
pub fn take() -> (Vec<Span>, Vec<Count>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        (std::mem::take(&mut r.spans), std::mem::take(&mut r.counts))
    })
}

/// Self time of every span: its duration minus the part of it covered by
/// its direct children. Children may nest further or overlap one another;
/// covered time is the union of their intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Self time of each span with this name, in recording order.
    pub self_ns: Vec<u64>,
    /// Payload bytes summed over those spans.
    pub bytes: u64,
}

/// Groups self times (and bytes) by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, NameStats> {
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.self_ns.push(t);
        e.bytes += s.bytes;
    }
    out
}

/// Sums counter samples by name.
pub fn count_totals(counts: &[Count]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for c in counts {
        *out.entry(c.name.clone()).or_insert(0.0) += c.value;
    }
    out
}

/// Escapes `s` as the body of a JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders spans and counters in the Trace Event Format: one complete
/// (`"ph": "X"`) event per span, with its parent index in `args`, and one
/// counter (`"ph": "C"`) event per sample. `other_data` is a JSON object
/// placed under `otherData` (the run's metadata).
pub fn trace_event_json(
    process: &str,
    spans: &[Span],
    counts: &[Count],
    other_data: &str,
) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut events = vec![format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {{\"name\": \"{}\"}}}}",
        json_escape(process)
    )];
    for (i, s) in spans.iter().enumerate() {
        let cat = s.name.split('.').next().unwrap_or("");
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"bytes\": {}}}}}",
            json_escape(&s.name),
            json_escape(cat),
            us(s.start_ns),
            us(s.dur_ns()),
            s.bytes
        ));
    }
    let mut running: BTreeMap<&str, f64> = BTreeMap::new();
    for c in counts {
        let total = running.entry(&c.name).or_insert(0.0);
        *total += c.value;
        events.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"C\", \"ts\": {}, \"pid\": 1, \"args\": {{\"value\": {}}}}}",
            json_escape(&c.name),
            us(c.ts_ns),
            total
        ));
    }
    format!(
        "{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ms\", \"otherData\": {other_data}}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            s("root", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("a.inner", 15, 35, Some(1)),
            s("b", 50, 70, Some(0)),
        ];
        // root: 100 - (30 + 20); a: 30 - 20; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            s("root", 0, 100, None),
            s("x", 10, 50, Some(0)),
            s("y", 30, 60, Some(0)),
            s("z", 40, 45, Some(0)),
        ];
        // Children cover the union [10, 60): 50 ns.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            s("root", 20, 80, None),
            s("k", 0, 30, Some(0)),
            s("k", 70, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60 - 10 - 10);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let _ = take();
        set_enabled(false);
        assert_eq!(span("off", || 7), 7);
        count("off", 1.0);
        set_enabled(true);
        span("outer", || {
            span_bytes("inner", 64, || ());
            count("c", 2.0);
            count("c", 3.0);
        });
        set_enabled(false);
        let (spans, counts) = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("inner", Some(0))
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let stats = by_name(&spans);
        assert_eq!(stats["inner"].bytes, 64);
        assert_eq!(count_totals(&counts)["c"], 5.0);
    }

    #[test]
    fn trace_events_are_valid_json() {
        let spans = vec![s("root", 0, 2000, None), s("a\"b", 500, 1500, Some(0))];
        let counts = vec![Count {
            name: "n".into(),
            ts_ns: 10,
            value: 2.0,
        }];
        let text = trace_event_json("p", &spans, &counts, "{\"seed\": 1}");
        let v = crate::json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].get("name").and_then(|n| n.as_str()), Some("a\"b"));
        assert_eq!(events[2].get("dur").and_then(|d| d.num_text()), Some("1"));
        let parent = events[2].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|p| p.num_text()), Some("0"));
    }
}
