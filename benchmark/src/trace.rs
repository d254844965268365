//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the library's public functions
//! (never inside it), kept in memory, and written out once as Chrome
//! trace-event JSON when the run ends. One client thread records, so the
//! spans of one op nest strictly and a plain stack names each parent.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::Samples;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The op (request) this span belongs to; spans of one op share it.
    pub op: u32,
    /// Counts taken at this boundary (e.g. a request's cache-counter delta).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    name_ids: BTreeMap<String, u32>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            name_ids: BTreeMap::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next op: spans recorded from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> u32 {
        let name = self.name_id(name);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            counts: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records an already-timed interval as a child of the innermost open
    /// span (used for the timed op itself, so that recording costs the op
    /// nothing, and for per-pass timings reported by the pass manager).
    pub fn record(&mut self, name: &str, start: Instant, dur_ns: u64) -> u32 {
        let name = self.name_id(name);
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            counts: Vec::new(),
        });
        self.spans.len() as u32 - 1
    }

    /// Attaches counts to span `id`.
    pub fn counts(&mut self, id: u32, counts: Vec<(&'static str, u64)>) {
        self.spans[id as usize].counts = counts;
    }

    /// Every recorded span, in start order per op.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The name of a span.
    pub fn name_of(&self, span: &Span) -> &str {
        &self.names[span.name as usize]
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one parent never overlap on one thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &mut own[parent as usize];
                *p = p.saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Self-time samples in microseconds, pooled per span name.
    pub fn self_time_pools_us(&self) -> BTreeMap<String, Samples> {
        let mut pools: BTreeMap<String, Samples> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            pools
                .entry(self.name_of(span).to_string())
                .or_default()
                .push(own as f64 / 1e3);
        }
        pools
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut args = vec![
                    ("id".to_string(), Json::Num(id as f64)),
                    ("op".to_string(), Json::Num(f64::from(span.op))),
                ];
                if let Some(parent) = span.parent {
                    args.push(("parent".to_string(), Json::Num(f64::from(parent))));
                }
                for (key, n) in &span.counts {
                    args.push((key.to_string(), Json::Num(*n as f64)));
                }
                Json::obj([
                    ("name", Json::str(self.name_of(span))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(span.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans: `op` [0,100) has children
    /// `a` [10,40) and `b` [50,90); `b` has child `c` [60,70).
    fn fixture() -> Recorder {
        let mut r = Recorder::new();
        let mut put = |name: &str, start: u64, end: u64, parent: Option<u32>| {
            let name = r.name_id(name);
            r.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent,
                op: 1,
                counts: Vec::new(),
            });
        };
        put("op", 0, 100, None);
        put("a", 10, 40, Some(0));
        put("b", 50, 90, Some(0));
        put("c", 60, 70, Some(2));
        r
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = fixture();
        assert_eq!(r.self_times_ns(), vec![30, 30, 30, 10]);
        let total: u64 = r.self_times_ns().iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn nesting_follows_the_stack() {
        let mut r = Recorder::new();
        r.next_op();
        let outer = r.enter("outer");
        r.span("inner", |r| {
            r.record("leaf", Instant::now(), 5);
        });
        r.exit(outer);
        r.next_op();
        r.span("second", |_| ());
        let s = r.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].dur_ns(), 5);
        assert_eq!((s[0].op, s[3].op), (1, 2));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn chrome_trace_carries_parent_op_and_counts() {
        let mut r = fixture();
        r.counts(1, vec![("disk_hits", 3)]);
        let doc = r.to_chrome_trace();
        let events = doc.get("traceEvents").unwrap().elements();
        assert_eq!(events.len(), 4);
        let a = &events[1];
        assert_eq!(a.get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(a.get("dur").and_then(Json::as_f64), Some(0.03));
        let args = a.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("disk_hits").and_then(Json::as_f64), Some(3.0));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
