//! The harness's own span recorder.
//!
//! Spans wrap the calls the benchmark makes *into* a layer (`BamSystem::new`,
//! a batch of 1024 `read`s, `run_tenants`, …); spans inside the crates are a
//! later change. They are kept in memory and written as Chrome trace events
//! when the run ends. With the recorder off, [`Ctx::span`] is one branch
//! around the call, so traced and untraced runs execute the same code.

use std::cell::RefCell;
use std::time::Instant;

use bam_core::BamSystem;

use crate::alloc;
use crate::json::Json;

/// Index of a recorded span; children name their parent with it.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    /// Spans of one repetition (or one batch within it) share this.
    request: u64,
    start_ns: u64,
    end_ns: u64,
    /// Counter deltas over the span, read at its two boundaries.
    counts: Vec<(&'static str, f64)>,
}

/// Counter values read at a span boundary.
struct Boundary {
    allocs: u64,
    alloc_bytes: u64,
    sys: Option<[u64; 8]>,
}

const SYS_COUNTS: [&str; 8] = [
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_writebacks",
    "storage_bytes",
    "journal_appends",
    "ssd_commands",
    "doorbell_writes",
];

impl Boundary {
    fn read(sys: Option<&BamSystem>) -> Self {
        let a = alloc::snapshot();
        Self {
            allocs: a.calls,
            alloc_bytes: a.bytes,
            sys: sys.map(|s| {
                let m = s.metrics();
                [
                    m.cache_hits,
                    m.cache_misses,
                    m.cache_evictions,
                    m.cache_writebacks,
                    m.bytes_read + m.bytes_written,
                    m.journal_appends,
                    s.ssd_stats().iter().map(|d| d.total_commands()).sum(),
                    s.total_doorbell_writes(),
                ]
            }),
        }
    }

    fn since(&self, before: &Boundary) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("allocs", (self.allocs - before.allocs) as f64),
            (
                "alloc_bytes",
                (self.alloc_bytes - before.alloc_bytes) as f64,
            ),
        ];
        if let (Some(now), Some(then)) = (&self.sys, &before.sys) {
            // `reset_metrics` inside a span makes a counter run backwards;
            // report that as zero rather than wrap.
            out.extend(
                SYS_COUNTS
                    .iter()
                    .zip(now.iter().zip(then))
                    .map(|(name, (n, t))| (*name, n.saturating_sub(*t) as f64)),
            );
        }
        out
    }
}

/// In-memory span recorder. Every span is opened by the thread that drives
/// the workload (client threads inside `bam-gpu-sim` are below the layer
/// boundary), so a `RefCell` is enough.
pub struct Tracer {
    spans: Option<RefCell<Vec<Span>>>,
    origin: Instant,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self {
            spans: None,
            origin: Instant::now(),
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self {
            spans: Some(RefCell::new(Vec::new())),
            origin: Instant::now(),
        }
    }

    /// The context top-level spans are opened from.
    pub fn root(&self) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: None,
            request: 0,
        }
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, |s| s.borrow().len())
    }

    /// Renders the spans as a Chrome trace-event document (`ph: "X"`
    /// complete events, microsecond timestamps). Each event's `args` carry
    /// its id, parent, request id, self time (duration minus the time its
    /// children cover) and the counter deltas.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let spans = match &self.spans {
            Some(s) => s.borrow().clone(),
            None => Vec::new(),
        };
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let events = spans.iter().enumerate().map(|(id, s)| {
            let dur = s.end_ns - s.start_ns;
            let mut args = vec![
                ("id".to_string(), Json::Num(id as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request".to_string(), Json::Num(s.request as f64)),
                (
                    "self_us".to_string(),
                    Json::Num(dur.saturating_sub(child_ns[id]) as f64 / 1e3),
                ),
            ];
            args.extend(s.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(dur as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ])
        });
        Json::obj([
            ("traceEvents", Json::Arr(events.collect())),
            ("displayTimeUnit", Json::str("ns")),
        ])
    }
}

/// Where a span is opened: its recorder, parent span and request id.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    request: u64,
}

impl<'a> Ctx<'a> {
    /// The same context under another request id (repetition or batch).
    pub fn request(self, request: u64) -> Self {
        Self { request, ..self }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context its own
    /// spans open from. With `sys`, the system's public counters are read at
    /// both boundaries and their deltas stored on the span.
    pub fn span<R>(
        &self,
        name: &'static str,
        sys: Option<&BamSystem>,
        f: impl FnOnce(Ctx<'a>) -> R,
    ) -> R {
        let Some(spans) = &self.tracer.spans else {
            return f(*self);
        };
        let origin = self.tracer.origin;
        let before = Boundary::read(sys);
        let id = {
            // Not held across `f`, whose own spans borrow it again.
            let mut spans = spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.parent,
                request: self.request,
                start_ns: origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                counts: Vec::new(),
            });
            spans.len() - 1
        };
        let r = f(Self {
            parent: Some(id),
            ..*self
        });
        let end_ns = origin.elapsed().as_nanos() as u64;
        let counts = Boundary::read(sys).since(&before);
        let mut spans = spans.borrow_mut();
        spans[id].end_ns = end_ns;
        spans[id].counts = counts;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_runs_the_call_and_records_nothing() {
        let tr = Tracer::off();
        let v = tr
            .root()
            .span("outer", None, |cx| cx.span("inner", None, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(tr.len(), 0);
        assert_eq!(
            tr.chrome_trace("w").get("traceEvents"),
            Some(&Json::Arr(vec![]))
        );
    }

    #[test]
    fn nested_spans_carry_parent_self_time_and_alloc_deltas() {
        let tr = Tracer::on();
        tr.root().request(3).span("outer", None, |cx| {
            cx.span("inner", None, |_| {
                std::hint::black_box(vec![0u8; 4096]);
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let doc = Json::parse(&tr.chrome_trace("w").render()).expect("trace is valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents is an array");
        };
        assert_eq!(events.len(), 2);
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).cloned();
        let (outer, inner) = (&events[0], &events[1]);
        assert_eq!(outer.get("name"), Some(&Json::str("outer")));
        assert_eq!(arg(outer, "parent"), Some(Json::Null));
        assert_eq!(arg(inner, "parent"), Some(Json::Num(0.0)));
        assert_eq!(arg(inner, "request"), Some(Json::Num(3.0)));
        let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).unwrap();
        let self_us = |e: &Json| arg(e, "self_us").and_then(|v| v.as_f64()).unwrap();
        assert!(dur(inner) >= 5_000.0 && dur(outer) >= dur(inner));
        assert!((self_us(outer) - (dur(outer) - dur(inner))).abs() < 1e-6);
        assert!(arg(inner, "allocs").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    }
}
