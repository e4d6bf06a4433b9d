//! The host-speed reference.  The box this benchmark runs on is a few cores
//! of a shared host whose speed moves by tens of percent on every time scale
//! from 0.1 s to tens of minutes (README, *Measured noise*), so a plain host
//! time says as much about the neighbours as about the program.  The timed
//! reps are therefore cut into segments of well under a second, and between
//! two segments a fixed piece of std-only work — which no change to the repo
//! can speed up or slow down — is timed.  A segment's time is divided by how
//! slow the reference ran around it, relative to a frozen nominal time: wall
//! time by the reference's wall time, CPU time by its CPU time, so that a
//! host that takes the processor away (wall grows, CPU time does not) and a
//! host that runs it slower (both grow) are each divided out of the metric
//! they touch.
//!
//! The reference does what the simulator does most: it looks `String` keys
//! up in a `BTreeMap` that is larger than the L2 cache (`write!` the key,
//! compare strings down the tree, follow the value's pointer, update it), so
//! it slows with the core clock, with a busy sibling thread and — what moves
//! this box most — with a contended memory system.  A register-only integer
//! loop was measured beside it and dropped: in the box's slow periods it kept
//! its speed while the workloads lost a third of theirs.  The reference must
//! allocate nothing after it is built, first thing in the process: one that
//! removed and re-inserted entries had its nodes scattered over the heap the
//! workload was churning and ran up to 1.4× slower late in a `fleet_db` run
//! than early, on a host whose speed had not moved.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::{Duration, Instant};

use crate::host;

/// Entries in the map: about 8 MB.
const ENTRIES: u64 = 60_000;
/// Look-ups before the clocks start.  The workload leaves the caches, the
/// branch predictors and the upper levels of the tree cold, and how cold
/// depends on the workload, not on the host: the first 6,000 look-ups after a
/// segment take 1.2–1.6× as long as the next.
const WARM_OPERATIONS: u64 = 12_000;
/// Look-ups in the timed part of a sample: about 17 ms on the reference box.
const TIMED_OPERATIONS: u64 = 36_000;
/// What one timed look-up costs on the reference box (Xeon @ 2.1 GHz
/// Firecracker guest) at its usual speed, sampled between segments of the
/// workloads.  Frozen: it only fixes the scale of the corrected metrics, so
/// that they read as plain host times on that box.
const NOMINAL_NS_PER_OPERATION: f64 = 470.0;

/// A pause that comes sooner than this after the last sample is skipped and
/// its segment runs on: the full-scale workloads pause every 0.1–0.8 s, the
/// `selftest`-sized ones every few milliseconds, where a sample per pause
/// would take longer than the work.
const MIN_SEGMENT: Duration = Duration::from_millis(50);

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// How slow the host ran during one sample, by each clock: 1.0 is the
/// reference box at its usual speed, 1.2 is 20 % slower.
#[derive(Debug, Clone, Copy, Default)]
struct Slowness {
    wall: f64,
    cpu: f64,
}

pub struct Reference {
    state: u64,
    key: String,
    map: BTreeMap<String, Vec<u64>>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            state: 0x9E37_79B9_7F4A_7C15,
            key: String::with_capacity(16),
            map: (0..ENTRIES)
                .map(|id| (format!("object-{id:08}"), vec![id; 4]))
                .collect(),
        }
    }

    fn look_up(&mut self, operations: u64) {
        for _ in 0..operations {
            let id = xorshift(&mut self.state) % ENTRIES;
            self.key.clear();
            write!(self.key, "object-{id:08}").expect("writing to a String cannot fail");
            let value = self
                .map
                .get_mut(self.key.as_str())
                .expect("every id is in the map");
            let slot = (id % 4) as usize;
            value[slot] = value[slot].rotate_left(7) ^ id;
        }
    }

    fn sample(&mut self) -> Slowness {
        self.look_up(WARM_OPERATIONS);
        let started = Instant::now();
        let cpu_before = host::thread_cpu_ns();
        self.look_up(TIMED_OPERATIONS);
        let cpu_ns = host::thread_cpu_ns().saturating_sub(cpu_before);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let nominal_ns = TIMED_OPERATIONS as f64 * NOMINAL_NS_PER_OPERATION;
        Slowness {
            wall: wall_ns as f64 / nominal_ns,
            cpu: cpu_ns as f64 / nominal_ns,
        }
    }
}

/// What a paced stretch of work took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paced {
    /// Wall time of the segments as measured, the reference samples excluded.
    pub wall_ns: u64,
    /// Process CPU time (all threads) of the segments, samples excluded.
    pub cpu_ns: u64,
    /// Each segment's wall time divided by the reference's wall slowness
    /// around it, summed.
    pub corrected_wall_ns: f64,
    /// Each segment's CPU time divided by the reference's CPU slowness
    /// around it, summed.
    pub corrected_cpu_ns: f64,
    /// Wall time of the reference samples, warm-up included.
    pub reference_ns: u64,
    pub segments: u32,
}

impl Paced {
    /// Time-weighted slowness of the host over the stretch, by the wall clock.
    pub fn wall_slowness(&self) -> f64 {
        self.wall_ns as f64 / self.corrected_wall_ns
    }

    /// The same by the CPU clock.
    pub fn cpu_slowness(&self) -> f64 {
        self.cpu_ns as f64 / self.corrected_cpu_ns
    }
}

/// Times a stretch of work in segments, sampling the reference before the
/// first, between two, and after the last.
pub struct Pacer<'a> {
    reference: &'a mut Reference,
    /// Slowness sampled when the open segment began.
    before: Slowness,
    segment_started: Instant,
    segment_cpu_before: u64,
    paced: Paced,
}

impl<'a> Pacer<'a> {
    pub fn start(reference: &'a mut Reference) -> Self {
        let mut pacer = Pacer {
            reference,
            before: Slowness::default(),
            segment_started: Instant::now(),
            segment_cpu_before: 0,
            paced: Paced::default(),
        };
        pacer.before = pacer.sample();
        pacer.open_segment();
        pacer
    }

    fn sample(&mut self) -> Slowness {
        let started = Instant::now();
        let slowness = self.reference.sample();
        self.paced.reference_ns += started.elapsed().as_nanos() as u64;
        slowness
    }

    fn open_segment(&mut self) {
        self.segment_cpu_before = host::process_cpu_ns();
        self.segment_started = Instant::now();
    }

    /// Ends the open segment, samples the reference and opens the next —
    /// unless the open segment is younger than `MIN_SEGMENT`.
    pub fn pause(&mut self) {
        if self.segment_started.elapsed() >= MIN_SEGMENT {
            self.close_segment();
        }
    }

    fn close_segment(&mut self) {
        let wall_ns = self.segment_started.elapsed().as_nanos() as u64;
        let cpu_ns = host::process_cpu_ns().saturating_sub(self.segment_cpu_before);
        let after = self.sample();
        self.paced.wall_ns += wall_ns;
        self.paced.cpu_ns += cpu_ns;
        self.paced.corrected_wall_ns += wall_ns as f64 / ((self.before.wall + after.wall) / 2.0);
        self.paced.corrected_cpu_ns += cpu_ns as f64 / ((self.before.cpu + after.cpu) / 2.0);
        self.paced.segments += 1;
        self.before = after;
        self.open_segment();
    }

    pub fn finish(mut self) -> Paced {
        self.close_segment();
        self.paced
    }
}
