//! `sim_digest`: a canonical, human-readable text of a rep's *simulated*
//! results (one value per line, floats by bit pattern with the decimal form
//! as a comment) and its FNV-1a hash.  A change that only speeds the
//! simulator up must leave this text identical; the goldens for seed 42 are
//! the same text, so a mismatch diffs legibly.

use std::fmt::Write as _;

use lor_core::lor_alloc::FragmentationSummary;
use lor_core::{AgePoint, LatencySummary, MaintenanceStats};

/// The text under construction.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimText(String);

impl SimText {
    pub fn new() -> Self {
        SimText::default()
    }

    pub fn float(&mut self, name: &str, value: f64) {
        writeln!(self.0, "{name} = {:016x} # {value}", value.to_bits()).expect("String write");
    }

    pub fn int(&mut self, name: &str, value: u64) {
        writeln!(self.0, "{name} = {value}").expect("String write");
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// FNV-1a (64-bit) over the text.
    pub fn digest(&self) -> u64 {
        self.0.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The checkpoints of an aging run.
    pub fn age_points(&mut self, points: &[AgePoint]) {
        for point in points {
            let at = |field: &str| format!("age{:02}.{field}", point.storage_age.round() as u64);
            self.float(&at("storage_age"), point.storage_age);
            self.float(&at("fragments_per_object"), point.fragments_per_object);
            self.float(&at("write_mb_s"), point.write_throughput_mb_s);
            self.float(&at("read_mb_s"), point.read_throughput_mb_s.unwrap_or(0.0));
            self.float(&at("foreground_latency_ms"), point.foreground_latency_ms);
            self.float(&at("latency_p50_ms"), point.latency_p50_ms);
            self.float(&at("latency_p99_ms"), point.latency_p99_ms);
            self.float(&at("queue_depth_mean"), point.queue_depth_mean);
            self.int(&at("queue_depth_max"), point.queue_depth_max);
            self.float(&at("background_time_s"), point.background_time_s);
            self.int(&at("objects"), point.objects);
        }
    }

    pub fn latency(&mut self, class: &str, summary: &LatencySummary) {
        self.int(&format!("{class}.count"), summary.count);
        self.float(&format!("{class}.mean_ms"), summary.mean_ms);
        self.float(&format!("{class}.p50_ms"), summary.p50_ms);
        self.float(&format!("{class}.p95_ms"), summary.p95_ms);
        self.float(&format!("{class}.p99_ms"), summary.p99_ms);
        self.float(&format!("{class}.max_ms"), summary.max_ms);
    }

    pub fn maintenance(&mut self, stats: &MaintenanceStats) {
        self.int("maint.foreground_ops", stats.foreground_ops);
        self.int("maint.ticks", stats.ticks);
        self.int("maint.background_bytes", stats.background_bytes);
        self.int("maint.background_time_ns", stats.background_time.as_nanos());
        for (task, stats) in [
            ("checkpoint", &stats.checkpoint),
            ("ghost_cleanup", &stats.ghost_cleanup),
            ("defrag", &stats.defrag),
        ] {
            self.int(&format!("maint.{task}.runs"), stats.runs);
            self.int(&format!("maint.{task}.io_bytes"), stats.io_bytes);
            self.int(&format!("maint.{task}.busy_ns"), stats.busy.as_nanos());
        }
    }

    pub fn fragmentation(&mut self, prefix: &str, summary: &FragmentationSummary) {
        self.int(&format!("{prefix}.objects"), summary.objects as u64);
        self.int(
            &format!("{prefix}.total_fragments"),
            summary.total_fragments,
        );
        self.float(
            &format!("{prefix}.fragments_per_object"),
            summary.fragments_per_object,
        );
        self.int(&format!("{prefix}.max_fragments"), summary.max_fragments);
    }
}
