//! Bounded trace recorder and Chrome trace-event JSON export.
//!
//! The export format is the Chrome trace-event "JSON object" flavour:
//! a top-level object with a `traceEvents` array of complete (`"ph":
//! "X"`) and counter (`"ph": "C"`) events.  Perfetto and
//! `chrome://tracing` ignore unknown top-level keys, so the document
//! also carries a `metrics` section — the full gauge/counter time
//! series grouped by name — and the ring-buffer drop counts.
//!
//! Timestamps are simulated time.  Chrome traces use microseconds; the
//! writer renders each `u64` nanosecond value as `us.frac` with exactly
//! three decimal digits, so the text is lossless and the validator can
//! compare timestamps in integer nanoseconds.  Events are emitted one
//! per line, sorted by start time with longer spans first on ties, which
//! makes "spans nest" checkable with a single stack pass per track.

use std::collections::VecDeque;

use crate::json::{json_f64, json_string};
use crate::{ArgValue, MetricSample, SpanRecord};

/// Bounded ring buffer of spans and metric samples.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    capacity: usize,
    spans: VecDeque<SpanRecord>,
    metrics: VecDeque<MetricSample>,
    dropped_spans: u64,
    dropped_metrics: u64,
}

impl TraceRecorder {
    /// Creates a recorder retaining at most `capacity` spans and
    /// `capacity` metric samples (minimum 1 each).
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            capacity: capacity.max(1),
            ..TraceRecorder::default()
        }
    }

    /// Stores a span, evicting (and counting) the oldest one when the ring
    /// is full.  Recording never observes or influences simulated time.
    pub fn record_span(&mut self, span: SpanRecord) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped_spans += 1;
        }
        self.spans.push_back(span);
    }

    /// Stores a metric sample, evicting (and counting) the oldest one when
    /// the ring is full.
    pub fn record_metric(&mut self, sample: MetricSample) {
        if self.metrics.len() == self.capacity {
            self.metrics.pop_front();
            self.dropped_metrics += 1;
        }
        self.metrics.push_back(sample);
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> &VecDeque<SpanRecord> {
        &self.spans
    }

    /// Retained metric samples, oldest first.
    pub fn metrics(&self) -> &VecDeque<MetricSample> {
        &self.metrics
    }

    /// Spans evicted because the ring was full.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Metric samples evicted because the ring was full.
    pub fn dropped_metrics(&self) -> u64 {
        self.dropped_metrics
    }

    /// All samples of one metric, in recording order.
    pub fn metric_series(&self, name: &str) -> Vec<(u64, f64)> {
        self.metrics
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.at_ns, s.value))
            .collect()
    }

    /// Removes and returns everything recorded so far (spans and metric
    /// samples, each oldest first), leaving the ring empty but the drop
    /// counters untouched.
    pub fn take_records(&mut self) -> (Vec<SpanRecord>, Vec<MetricSample>) {
        (
            self.spans.drain(..).collect(),
            self.metrics.drain(..).collect(),
        )
    }

    /// Exports the recording as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        // Sort by start time; longer spans first on ties so a batch
        // member emitted after its enclosing span stays inside it when
        // the validator replays the event stream with a nesting stack.
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.dur_ns.cmp(&a.dur_ns))
                .then(a.track.tid().cmp(&b.track.tid()))
        });
        let mut metrics: Vec<&MetricSample> = self.metrics.iter().collect();
        metrics.sort_by_key(|a| a.at_ns);

        let events: Vec<String> = (spans.iter().map(|span| span_event(span)))
            .chain(metrics.iter().map(|sample| counter_event(sample)))
            .map(|event| format!("    {event}"))
            .collect();
        format!(
            "{{\n  \"displayTimeUnit\": \"ms\",\n  \"droppedSpans\": {},\n  \"droppedMetricSamples\": {},\n  \
             \"traceEvents\": [\n{}\n  ],\n  \"metrics\": [\n{}  ]\n}}\n",
            self.dropped_spans,
            self.dropped_metrics,
            events.join(",\n"),
            metric_section(&self.metrics)
        )
    }
}

/// Renders `ns` nanoseconds as microseconds with three decimals — the
/// exact decimal form, so round-tripping through text is lossless.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn json_arg(value: &ArgValue) -> String {
    match value {
        ArgValue::U64(v) => format!("{v}"),
        ArgValue::F64(v) => json_f64(*v),
        ArgValue::Str(v) => json_string(v),
    }
}

fn span_event(span: &SpanRecord) -> String {
    let mut args = format!("\"track\": {}", json_string(span.track.name()));
    for (key, value) in &span.args {
        args.push_str(&format!(", {}: {}", json_string(key), json_arg(value)));
    }
    format!(
        "{{\"name\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{{}}}}}",
        json_string(span.name),
        us(span.start_ns),
        us(span.dur_ns),
        span.track.tid(),
        args
    )
}

/// Counter events get a dedicated `tid` row well clear of the span
/// tracks; Chrome keys counters by `(pid, name)` so one row suffices.
fn counter_event(sample: &MetricSample) -> String {
    format!(
        "{{\"name\": {}, \"ph\": \"C\", \"ts\": {}, \"pid\": 1, \"tid\": 99, \"args\": {{\"value\": {}}}}}",
        json_string(sample.name),
        us(sample.at_ns),
        json_f64(sample.value)
    )
}

fn metric_section(metrics: &VecDeque<MetricSample>) -> String {
    // One series per name, in first-seen order, of its first sample's kind.
    let mut firsts: Vec<&MetricSample> = Vec::new();
    for sample in metrics {
        if !firsts.iter().any(|first| first.name == sample.name) {
            firsts.push(sample);
        }
    }
    let mut out = String::new();
    for (i, first) in firsts.iter().enumerate() {
        let samples: Vec<String> = metrics
            .iter()
            .filter(|s| s.name == first.name)
            .map(|s| format!("[{}, {}]", us(s.at_ns), json_f64(s.value)))
            .collect();
        out.push_str(&format!(
            "    {{\"name\": {}, \"kind\": {}, \"unit_ts\": \"us\", \"samples\": [{}]}}{}\n",
            json_string(first.name),
            json_string(first.kind.name()),
            samples.join(", "),
            if i + 1 == firsts.len() { "" } else { "," }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricKind, Track};

    fn span(start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            track: Track::Server,
            name: "request",
            start_ns,
            dur_ns,
            args: vec![("bytes", ArgValue::U64(4096))],
        }
    }

    #[test]
    fn timestamps_render_as_exact_microseconds() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }

    #[test]
    fn chrome_json_contains_events_and_metric_series() {
        let mut rec = TraceRecorder::new(16);
        rec.record_span(span(1_000, 2_000));
        rec.record_metric(MetricSample {
            name: "queue_depth",
            at_ns: 1_500,
            value: 2.0,
            kind: MetricKind::Gauge,
        });
        let json = rec.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ts\": 1.000, \"dur\": 2.000"));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"name\": \"queue_depth\", \"kind\": \"gauge\""));
        assert!(json.contains("[1.500, 2]"));
    }

    #[test]
    fn tie_breaks_put_longer_span_first() {
        let mut rec = TraceRecorder::new(16);
        rec.record_span(span(1_000, 500)); // inner batch member
        rec.record_span(span(1_000, 2_000)); // enclosing batch span
        let json = rec.to_chrome_json();
        let outer = json.find("\"dur\": 2.000").unwrap();
        let inner = json.find("\"dur\": 0.500").unwrap();
        assert!(outer < inner);
    }
}
