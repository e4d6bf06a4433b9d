//! Latency attribution: the "anatomy of a p99".
//!
//! A tail-latency number alone says *that* a store got slow, not *why*.
//! This module decomposes each [`Completion`]'s client-observed latency into
//! named components, then aggregates the decomposition over the slowest
//! completions of a run:
//!
//! * **maintenance** — waiting for an overlapping background-maintenance
//!   slice to release the spindle ([`Completion::maint_delay`], attributed
//!   by the request scheduler at dispatch time);
//! * **queueing** — waiting for other clients' foreground operations
//!   (including time spent inside a safe-write batch behind the batch's
//!   earlier members);
//! * **fragmentation seeks** — the share of the disk's positioning time
//!   (seek + rotational latency) incurred because the object was stored in
//!   more than one fragment: with `f` fragments, `(f - 1) / f` of the
//!   positioning work only exists because the layout decayed;
//! * **disk** — the remaining mechanical disk time (first-fragment
//!   positioning, media transfer, controller overhead);
//! * **host** — host-side costs (metadata I/Os, per-page processing, client
//!   chunking).
//!
//! The decomposition is exact by construction: the five components sum to
//! the completion's latency up to floating-point rounding, and
//! [`LatencyAnatomy::attributed_fraction`] reports how much of the latency
//! the named components explain (the acceptance bar for the report-scale
//! anatomy scenario is ≥ 95% on every top-percentile completion; the
//! scheduler's exact integer timeline makes it 100% in practice).

use crate::server::Completion;

/// One completion's latency, decomposed into named components
/// (milliseconds).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencyAnatomy {
    /// Client-observed latency (queue delay included).
    pub total_ms: f64,
    /// Waiting for an overlapping background-maintenance slice.
    pub maintenance_ms: f64,
    /// Waiting for other foreground work (other clients' operations and
    /// earlier members of the same safe-write batch).
    pub queue_ms: f64,
    /// Positioning time incurred because the object had more than one
    /// fragment.
    pub frag_seek_ms: f64,
    /// Remaining mechanical disk time (first-fragment positioning, media
    /// transfer, controller overhead).
    pub disk_ms: f64,
    /// Host-side time (metadata I/Os, per-page processing, chunking).
    pub host_ms: f64,
}

impl LatencyAnatomy {
    /// Decomposes one completion.
    pub fn of(completion: &Completion) -> Self {
        let receipt = &completion.receipt;
        let total_ms = completion.latency().as_millis_f64();
        let maintenance_ms = completion.maint_delay.as_millis_f64();
        // Everything between arrival and the moment this request's own
        // service began that was not maintenance: other clients ahead in
        // the queue, plus earlier members of the same dispatch batch.
        let in_batch = completion
            .finish
            .saturating_sub(completion.start)
            .saturating_sub(receipt.total_time());
        let queue_ms = completion
            .queue_delay()
            .saturating_sub(completion.maint_delay)
            .as_millis_f64()
            + in_batch.as_millis_f64();
        let positioning_ms = (receipt.disk_time.seek + receipt.disk_time.rotation).as_millis_f64();
        let frag_seek_ms = if receipt.fragments > 1 {
            positioning_ms * (receipt.fragments - 1) as f64 / receipt.fragments as f64
        } else {
            0.0
        };
        let disk_ms = receipt.disk_time.total().as_millis_f64() - frag_seek_ms;
        let host_ms = receipt.host_time.as_millis_f64();
        LatencyAnatomy {
            total_ms,
            maintenance_ms,
            queue_ms,
            frag_seek_ms,
            disk_ms,
            host_ms,
        }
    }

    /// Sum of the named components.
    pub fn attributed_ms(&self) -> f64 {
        self.maintenance_ms + self.queue_ms + self.frag_seek_ms + self.disk_ms + self.host_ms
    }

    /// Fraction of the total latency the named components explain (1.0 for
    /// a zero-latency completion; the decomposition is exact, so anything
    /// below 1.0 is floating-point rounding or a store-charged stall the
    /// scheduler could not see).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_ms <= 0.0 {
            return 1.0;
        }
        1.0 - (self.total_ms - self.attributed_ms()).abs() / self.total_ms
    }

    fn add(&mut self, other: &LatencyAnatomy) {
        self.total_ms += other.total_ms;
        self.maintenance_ms += other.maintenance_ms;
        self.queue_ms += other.queue_ms;
        self.frag_seek_ms += other.frag_seek_ms;
        self.disk_ms += other.disk_ms;
        self.host_ms += other.host_ms;
    }

    fn scale(&mut self, factor: f64) {
        self.total_ms *= factor;
        self.maintenance_ms *= factor;
        self.queue_ms *= factor;
        self.frag_seek_ms *= factor;
        self.disk_ms *= factor;
        self.host_ms *= factor;
    }
}

/// The anatomy of a run's latency tail: the per-component decomposition
/// aggregated over the completions at or above a latency percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnatomyReport {
    /// The percentile defining the tail (e.g. `0.99`).
    pub quantile: f64,
    /// Latency (milliseconds) at the percentile — the tail's entry bar.
    pub threshold_ms: f64,
    /// Completions in the tail.
    pub count: u64,
    /// Mean decomposition over the tail's completions.
    pub mean: LatencyAnatomy,
    /// Decomposition of the single worst completion.
    pub worst: LatencyAnatomy,
    /// Smallest attributed fraction over the tail (the acceptance metric:
    /// every tail completion must be ≥ 95% explained).
    pub min_attributed_fraction: f64,
}

impl AnatomyReport {
    /// Builds the report over the completions whose latency is at or above
    /// the `quantile` percentile (nearest-rank).  Returns `None` for an
    /// empty completion set or a quantile outside `[0, 1)`.
    pub fn over_tail(completions: &[Completion], quantile: f64) -> Option<AnatomyReport> {
        if completions.is_empty() || !(0.0..1.0).contains(&quantile) {
            return None;
        }
        let mut latencies: Vec<u64> = completions.iter().map(|c| c.latency().as_nanos()).collect();
        latencies.sort_unstable();
        let rank = ((quantile * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        let threshold = latencies[rank - 1];

        let mut mean = LatencyAnatomy::default();
        let mut worst = LatencyAnatomy::default();
        let mut min_fraction = 1.0f64;
        let mut count = 0u64;
        for completion in completions {
            if completion.latency().as_nanos() < threshold {
                continue;
            }
            let anatomy = LatencyAnatomy::of(completion);
            min_fraction = min_fraction.min(anatomy.attributed_fraction());
            if anatomy.total_ms > worst.total_ms {
                worst = anatomy;
            }
            mean.add(&anatomy);
            count += 1;
        }
        debug_assert!(count > 0, "nearest-rank threshold always matches itself");
        mean.scale(1.0 / count as f64);
        Some(AnatomyReport {
            quantile,
            threshold_ms: threshold as f64 / 1e6,
            count,
            mean,
            worst,
            min_attributed_fraction: min_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ClientId, StoreRequest};
    use crate::store::OpReceipt;
    use crate::workload::{ObjectKey, WorkloadOp};
    use lor_disksim::{ServiceTime, SimDuration};

    fn completion(
        arrival_ms: u64,
        start_ms: u64,
        maint_ms: u64,
        fragments: u64,
        seek_ms: u64,
        transfer_ms: u64,
        host_ms: u64,
    ) -> Completion {
        let receipt = OpReceipt {
            payload_bytes: 1 << 20,
            transferred_bytes: 1 << 20,
            disk_time: ServiceTime {
                seek: SimDuration::from_millis(seek_ms),
                rotation: SimDuration::ZERO,
                transfer: SimDuration::from_millis(transfer_ms),
                overhead: SimDuration::ZERO,
            },
            host_time: SimDuration::from_millis(host_ms),
            fragments,
        };
        let start = SimDuration::from_millis(start_ms);
        Completion {
            request: StoreRequest {
                client: ClientId(0),
                op: WorkloadOp::Get { key: ObjectKey(0) },
                arrival: SimDuration::from_millis(arrival_ms),
            },
            finish: start + receipt.total_time(),
            receipt,
            start,
            maint_delay: SimDuration::from_millis(maint_ms),
        }
    }

    #[test]
    fn decomposition_is_exact_and_splits_fragmentation_seeks() {
        // Arrived at 0, started at 10 (4 ms of that maintenance), 4
        // fragments, 8 ms positioning, 12 ms transfer, 2 ms host.
        let c = completion(0, 10, 4, 4, 8, 12, 2);
        let anatomy = LatencyAnatomy::of(&c);
        assert!((anatomy.total_ms - 32.0).abs() < 1e-9);
        assert!((anatomy.maintenance_ms - 4.0).abs() < 1e-9);
        assert!((anatomy.queue_ms - 6.0).abs() < 1e-9);
        // 3 of 4 fragments exist only because of fragmentation.
        assert!((anatomy.frag_seek_ms - 6.0).abs() < 1e-9);
        assert!((anatomy.disk_ms - 14.0).abs() < 1e-9);
        assert!((anatomy.host_ms - 2.0).abs() < 1e-9);
        assert!((anatomy.attributed_ms() - anatomy.total_ms).abs() < 1e-9);
        assert!(anatomy.attributed_fraction() > 0.999_999);

        // A contiguous object pays no fragmentation tax.
        let clean = LatencyAnatomy::of(&completion(0, 0, 0, 1, 8, 12, 2));
        assert_eq!(clean.frag_seek_ms, 0.0);
        assert!((clean.disk_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tail_report_aggregates_the_slowest_completions() {
        // 100 completions with latencies 1..=100 ms (service time only).
        let completions: Vec<Completion> =
            (1..=100).map(|i| completion(0, 0, 0, 1, 0, i, 0)).collect();
        let report = AnatomyReport::over_tail(&completions, 0.95).unwrap();
        assert_eq!(report.count, 6, "p95 of 100 keeps ranks 95..=100");
        assert!((report.threshold_ms - 95.0).abs() < 1e-9);
        assert!((report.worst.total_ms - 100.0).abs() < 1e-9);
        assert!((report.mean.total_ms - 97.5).abs() < 1e-9);
        assert!(report.min_attributed_fraction > 0.95);

        assert!(AnatomyReport::over_tail(&[], 0.99).is_none());
        assert!(AnatomyReport::over_tail(&completions, 1.0).is_none());
        // Quantile 0 covers everything.
        let whole = AnatomyReport::over_tail(&completions, 0.0).unwrap();
        assert_eq!(whole.count, 100);
    }
}
