//! Validation of exported Chrome trace-event JSON.
//!
//! CI runs a traced aging run and feeds the exported document through
//! [`validate_chrome_trace`], which checks the three properties the
//! ISSUE pins: the document *parses* as JSON, per-track timestamps are
//! *monotone* non-decreasing, and complete spans *nest* (a span that
//! overlaps an open span on its track must be fully contained in it).
//!
//! The event extraction is deliberately line-based — the exporter emits
//! one event per line: this crate owns both the writer and the reader, so
//! a full JSON data model would be dead weight.  The *syntax* check, by
//! contrast, is a real recursive-descent pass over the whole document,
//! because "loads in Perfetto" is the property we actually promise.

use std::collections::HashMap;

/// Summary of a validated trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Complete (`"ph": "X"`) span events.
    pub span_events: usize,
    /// Counter (`"ph": "C"`) events.
    pub counter_events: usize,
    /// Distinct `tid`s carrying span events.
    pub tracks: usize,
    /// Metric series in the `metrics` section.
    pub metric_series: usize,
}

/// Validates an exported Chrome trace document.  Returns counts on
/// success and a diagnostic naming the first offending event on failure.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    check_json_syntax(json)?;

    let mut per_tid: Vec<(u64, Vec<(u64, u64)>)> = Vec::new();
    let mut span_events = 0usize;
    let mut counter_events = 0usize;
    let mut metric_series = 0usize;
    let mut last_counter_ts: HashMap<&str, u64> = HashMap::new();

    for (lineno, raw) in json.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.contains("\"samples\":") {
            metric_series += 1;
            continue;
        }
        if !line.starts_with('{') || !line.contains("\"ph\":") {
            continue;
        }
        let at = |msg: &str| format!("line {}: {}", lineno + 1, msg);
        let ph = extract_string(line, "ph").ok_or_else(|| at("event without \"ph\""))?;
        let ts = extract_ts_ns(line, "ts").ok_or_else(|| at("event without numeric \"ts\""))?;
        match ph {
            "X" => {
                let dur =
                    extract_ts_ns(line, "dur").ok_or_else(|| at("X event without \"dur\""))?;
                let tid =
                    extract_ts_ns(line, "tid").ok_or_else(|| at("X event without \"tid\""))?;
                span_events += 1;
                match per_tid.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, events)) => events.push((ts, dur)),
                    None => per_tid.push((tid, vec![(ts, dur)])),
                }
            }
            "C" => {
                let name =
                    extract_string(line, "name").ok_or_else(|| at("C event without \"name\""))?;
                if let Some(&prev) = last_counter_ts.get(name) {
                    if ts < prev {
                        return Err(at(&format!(
                            "counter \"{name}\" timestamps not monotone ({ts} ns after {prev} ns)"
                        )));
                    }
                }
                last_counter_ts.insert(name, ts);
                counter_events += 1;
            }
            other => return Err(at(&format!("unsupported event phase {other:?}"))),
        }
    }

    for (tid, events) in &per_tid {
        // Stack of open-span end timestamps; events arrive start-sorted,
        // so nesting reduces to "a span overlapping the innermost open
        // span must end inside it".
        let mut stack: Vec<u64> = Vec::new();
        let mut last_start = 0u64;
        for &(ts, dur) in events {
            if ts < last_start {
                return Err(format!(
                    "tid {tid}: span timestamps not monotone ({ts} ns after {last_start} ns)"
                ));
            }
            last_start = ts;
            while matches!(stack.last(), Some(&end) if ts >= end) {
                stack.pop();
            }
            let end = ts.saturating_add(dur);
            if let Some(&open_end) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "tid {tid}: span [{ts}, {end}] ns overlaps but does not nest in open span ending at {open_end} ns"
                    ));
                }
            }
            stack.push(end);
        }
    }

    Ok(TraceCheck {
        span_events,
        counter_events,
        tracks: per_tid.len(),
        metric_series,
    })
}

/// Extracts the string value of `"key": "..."` from a single-line event.
fn extract_string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": \"");
    let start = line.find(&pattern)? + pattern.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extracts `"key": <number>` as integer nanoseconds.  The exporter
/// renders timestamps as microseconds with exactly three decimals, so
/// parsing the two decimal halves separately is lossless; plain
/// integers (e.g. `tid`) parse with a zero fraction.
fn extract_ts_ns(line: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    let (whole, frac) = match digits.split_once('.') {
        Some((w, f)) => (w, f),
        None => (digits.as_str(), ""),
    };
    let mut ns: u64 = whole.parse::<u64>().ok()?.checked_mul(1000)?;
    if !frac.is_empty() {
        if frac.len() != 3 {
            return None;
        }
        ns = ns.checked_add(frac.parse::<u64>().ok()?)?;
    }
    Some(ns)
}

/// Minimal recursive-descent JSON syntax check (no data model).
fn check_json_syntax(text: &str) -> Result<(), String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!(
            "trailing content at byte {} of {}",
            parser.pos,
            parser.bytes.len()
        ));
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 64;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON syntax error at byte {}: {}", self.pos, msg)
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(&byte) = self.bytes.get(self.pos) {
            self.pos += 1;
            match byte {
                b'"' => return Ok(()),
                b'\\' => {
                    // Escape: consume the escaped byte (good enough for a
                    // syntax check; \uXXXX hex digits are plain bytes).
                    if self.bytes.get(self.pos).is_none() {
                        return Err(self.err("unterminated escape"));
                    }
                    self.pos += 1;
                }
                _ => {}
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut seen_digit = false;
        while let Some(&byte) = self.bytes.get(self.pos) {
            match byte {
                b'0'..=b'9' => {
                    seen_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        if seen_digit {
            Ok(())
        } else {
            self.pos = start;
            Err(self.err("malformed number"))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, Track};

    #[test]
    fn validates_a_real_export() {
        let (obs, trace) = Obs::trace(64);
        // Batch: enclosing span plus two members sharing the start.
        obs.span(
            Track::Server,
            "request",
            1_000,
            5_000,
            &[("n", 2u64.into())],
        );
        obs.span(Track::Server, "request", 1_000, 2_000, &[]);
        obs.span(Track::Server, "request", 7_000, 1_000, &[("q", 0.5.into())]);
        obs.span(
            Track::Disk,
            "write",
            1_100,
            900,
            &[("kind", "write".into())],
        );
        obs.gauge("queue_depth", 2_000, 1.0);
        obs.counter("ops", 8_000, 3.0);
        let json = trace.to_chrome_json();
        let check = validate_chrome_trace(&json).expect("export should validate");
        assert_eq!(check.span_events, 4);
        assert_eq!(check.counter_events, 2);
        assert_eq!(check.tracks, 2);
        assert_eq!(check.metric_series, 2);
    }

    #[test]
    fn rejects_non_monotone_track() {
        let (obs, trace) = Obs::trace(16);
        obs.span(Track::Server, "a", 5_000, 1_000, &[]);
        obs.span(Track::Server, "b", 1_000, 1_000, &[]);
        // The exporter sorts, so hand-build a broken document instead.
        let json = trace
            .to_chrome_json()
            .replacen("\"ts\": 1.000", "\"ts\": 9.000", 1);
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("not monotone"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_overlapping_unnested_spans() {
        let (obs, trace) = Obs::trace(16);
        obs.span(Track::Server, "a", 1_000, 3_000, &[]);
        obs.span(Track::Server, "b", 2_000, 5_000, &[]);
        let err = validate_chrome_trace(&trace.to_chrome_json()).unwrap_err();
        assert!(err.contains("does not nest"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_broken_json() {
        assert!(check_json_syntax("{\"a\": [1, 2}").is_err());
        assert!(check_json_syntax("{\"a\": 1} trailing").is_err());
        assert!(check_json_syntax("{\"a\": \"unterminated}").is_err());
        check_json_syntax("{\"a\": [1, 2.5, -3e4], \"b\": {\"c\": null}}").unwrap();
    }

    #[test]
    fn counter_series_roundtrip_is_lossless() {
        let (obs, trace) = Obs::trace(16);
        for i in 0..5u64 {
            // Timestamps ending in arbitrary nanoseconds survive the
            // microsecond rendering.
            obs.gauge("probe", i * 1_234_567 + 891, i as f64);
        }
        let check = validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(check.counter_events, 5);
    }

    #[test]
    fn ts_extraction_is_integer_nanoseconds() {
        assert_eq!(extract_ts_ns("{\"ts\": 1234.567, ", "ts"), Some(1_234_567));
        assert_eq!(extract_ts_ns("{\"ts\": 0.001, ", "ts"), Some(1));
        assert_eq!(extract_ts_ns("{\"tid\": 2, ", "tid"), Some(2_000));
    }
}
