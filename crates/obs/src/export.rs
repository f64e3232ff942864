//! Trace and metrics exporters.
//!
//! Both exporters render with pure integer math (no float formatting of
//! computed values beyond `Debug`), so for a fixed event/metric set the
//! output is byte-identical across runs — the property the CI determinism
//! diff leans on.

use crate::span::SpanEvent;

/// Formats virtual nanoseconds as the microsecond decimal Chrome expects,
/// without going through floating point: `12345` ns → `"12.345"`.
fn us_decimal(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders span events as Chrome trace-event JSON (the "JSON Array Format"
/// with complete `"ph":"X"` events), loadable in Perfetto or
/// `chrome://tracing`. Events keep recording order; `track` becomes the
/// thread id so each queue pair / device gets its own row.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"span\":{},\"arg\":{}}}}}",
            e.stage.label(),
            us_decimal(e.start_ns),
            us_decimal(e.end_ns.saturating_sub(e.start_ns)),
            e.track,
            e.span.0,
            e.arg,
        ));
    }
    out.push_str("]}\n");
    out
}

/// Escapes a HELP string or label value per the Prometheus text format:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a label set as `{k="v",...}` (empty string for no labels).
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The conventional counter suffix; appended when a counter name lacks it.
fn counter_name(name: &str) -> String {
    if name.ends_with("_total") {
        name.to_string()
    } else {
        format!("{name}_total")
    }
}

/// Incremental Prometheus text-exposition writer.
///
/// The caller decides the metric families; this type guarantees the
/// format: HELP strings escape `\`, `"`, and newlines; counters carry the
/// conventional `_total` suffix (appended when missing, never doubled);
/// label values escape the same set; and [`finish`](Self::finish) ends
/// the exposition with exactly one trailing newline. Values render via
/// `Debug`, matching the repo's JSON convention that integral floats keep
/// their `.0`.
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} {kind}\n",
            escape(help)
        ));
    }

    /// A monotone counter sample. The name gains a `_total` suffix when it
    /// does not already carry one.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let name = counter_name(name);
        self.header(&name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// A counter family with one labelled sample per entry (`_total`
    /// suffix applied as in [`counter`](Self::counter)).
    pub fn counter_family(&mut self, name: &str, help: &str, samples: &[(&[(&str, &str)], u64)]) {
        let name = counter_name(name);
        self.header(&name, help, "counter");
        for (labels, value) in samples {
            self.out
                .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
        }
    }

    /// A gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.out.push_str(&format!("{name} {value:?}\n"));
    }

    /// A gauge family with one labelled sample per entry.
    pub fn gauge_family(&mut self, name: &str, help: &str, samples: &[(&[(&str, &str)], f64)]) {
        self.header(name, help, "gauge");
        for (labels, value) in samples {
            self.out
                .push_str(&format!("{name}{} {value:?}\n", render_labels(labels)));
        }
    }

    /// The accumulated exposition text, guaranteed to end with exactly one
    /// trailing newline.
    pub fn finish(self) -> String {
        let mut out = self.out;
        while out.ends_with("\n\n") {
            out.pop();
        }
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, Stage};

    #[test]
    fn chrome_trace_renders_complete_events() {
        let events = vec![
            SpanEvent {
                span: SpanId(7),
                stage: Stage::Media,
                start_ns: 1_500,
                end_ns: 12_345,
                track: 3,
                arg: 42,
            },
            SpanEvent {
                span: SpanId(7),
                stage: Stage::Completion,
                start_ns: 12_345,
                end_ns: 12_400,
                track: 3,
                arg: 0,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"name\":\"media\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":10.845"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"span\":7"));
        // Deterministic: same events, same bytes.
        assert_eq!(json, chrome_trace_json(&events));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut w = PromWriter::new();
        w.counter("bam_cache_hits_total", "Cache hits.", 12);
        w.gauge("bam_hit_rate", "Hit rate.", 0.75);
        let text = w.finish();
        assert!(text.contains("# TYPE bam_cache_hits_total counter"));
        assert!(text.contains("bam_cache_hits_total 12\n"));
        assert!(text.contains("bam_hit_rate 0.75\n"));
    }

    #[test]
    fn counters_gain_the_total_suffix_exactly_once() {
        let mut w = PromWriter::new();
        w.counter("bam_reads", "Reads.", 3);
        w.counter("bam_writes_total", "Writes.", 4);
        let text = w.finish();
        assert!(text.contains("# TYPE bam_reads_total counter"));
        assert!(text.contains("bam_reads_total 3\n"));
        // Already-suffixed names are untouched, never doubled.
        assert!(text.contains("bam_writes_total 4\n"));
        assert!(!text.contains("bam_writes_total_total"));
    }

    #[test]
    fn help_strings_escape_backslash_quote_and_newline() {
        let mut w = PromWriter::new();
        w.gauge("bam_g", "line one\nline \"two\" with \\ slash", 1.0);
        let text = w.finish();
        assert!(
            text.contains("# HELP bam_g line one\\nline \\\"two\\\" with \\\\ slash\n"),
            "{text:?}"
        );
        // No raw newline survives inside the HELP line.
        let help_line = text.lines().next().unwrap();
        assert!(help_line.starts_with("# HELP bam_g "));
        assert!(!help_line.contains('\"') || help_line.contains("\\\""));
    }

    #[test]
    fn labelled_families_render_escaped_label_values() {
        let mut w = PromWriter::new();
        let steady: &[(&str, &str)] = &[("tenant", "steady-0"), ("policy", "shared")];
        let odd: &[(&str, &str)] = &[("tenant", "we\"ird\\name")];
        w.gauge_family(
            "bam_slo_burn_rate",
            "Burn rate.",
            &[(steady, 1.5), (odd, 0.0)],
        );
        w.counter_family("bam_slo_violations", "Violations.", &[(steady, 2)]);
        let text = w.finish();
        assert!(text.contains("bam_slo_burn_rate{tenant=\"steady-0\",policy=\"shared\"} 1.5\n"));
        assert!(text.contains("bam_slo_burn_rate{tenant=\"we\\\"ird\\\\name\"} 0.0\n"));
        assert!(
            text.contains("bam_slo_violations_total{tenant=\"steady-0\",policy=\"shared\"} 2\n")
        );
        // One header per family, not per sample.
        assert_eq!(text.matches("# TYPE bam_slo_burn_rate gauge").count(), 1);
    }

    #[test]
    fn finish_guarantees_exactly_one_trailing_newline() {
        assert_eq!(PromWriter::new().finish(), "\n");
        let mut w = PromWriter::new();
        w.counter("bam_x", "X.", 1);
        let text = w.finish();
        assert!(text.ends_with('\n'));
        assert!(!text.ends_with("\n\n"));
    }
}
