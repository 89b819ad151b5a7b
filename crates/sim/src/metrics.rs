//! Periodic interval snapshots of the simulator's cumulative counters.
//!
//! [`SimMetrics`] samples a fixed set of counters every `interval` cycles
//! (default 10k) and stores the per-interval **deltas** as integer rows, so
//! the series is exactly reproducible and reconciles against the end-of-run
//! [`crate::SimStats`] totals by plain summation. Derived rates (IPC,
//! pairing rate, replay rate, mean occupancy, mean wakeup→select delay)
//! are computed at render time from the integer columns.
//!
//! The collector follows the same zero-cost-when-disabled discipline as
//! event tracing: the simulator holds an `Option<Box<SimMetrics>>` and the
//! hot loop only pays an `is_some()` check per cycle when disabled.

use mos_metrics::Series;

/// Snapshot period used when the caller does not pick one.
pub const DEFAULT_INTERVAL: u64 = 10_000;

/// Column names of the interval series, in row order.
pub const COLS: [&str; 9] = [
    "cycles",
    "committed",
    "grouped",
    "replayed_uops",
    "pointer_hits",
    "pointer_evicts",
    "occupancy_integral",
    "delay_sum",
    "delay_count",
];

/// Cumulative counter values at one instant, gathered by the simulator.
/// Rows are deltas between consecutive `Cum`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cum {
    /// Cycles simulated so far.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed instructions grouped into any MOP.
    pub grouped: u64,
    /// Uops pulled back by selective load replay.
    pub replayed_uops: u64,
    /// Fetches that found a stored MOP pointer.
    pub pointer_hits: u64,
    /// Pointers lost to I-cache evictions or the last-arrival filter.
    pub pointer_evicts: u64,
    /// Sum of per-cycle issue-queue occupancy.
    pub occupancy_integral: u64,
    /// Sum of wakeup→select delays over issued entries.
    pub delay_sum: u64,
    /// Issued entries (delay sample count).
    pub delay_count: u64,
}

impl Cum {
    fn delta(&self, prev: &Cum) -> Vec<u64> {
        vec![
            self.cycles - prev.cycles,
            self.committed - prev.committed,
            self.grouped - prev.grouped,
            self.replayed_uops - prev.replayed_uops,
            self.pointer_hits - prev.pointer_hits,
            self.pointer_evicts - prev.pointer_evicts,
            self.occupancy_integral - prev.occupancy_integral,
            self.delay_sum - prev.delay_sum,
            self.delay_count - prev.delay_count,
        ]
    }
}

/// The interval collector owned by the simulator when metrics are on.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    interval: u64,
    next_at: u64,
    last: Cum,
    series: Series,
}

impl SimMetrics {
    /// A collector snapshotting every `interval` cycles (clamped to ≥ 1).
    pub fn new(interval: u64) -> SimMetrics {
        let interval = interval.max(1);
        SimMetrics {
            interval,
            next_at: interval,
            last: Cum::default(),
            series: Series::new(interval, COLS.to_vec()),
        }
    }

    /// `true` when the cycle `now` closes an interval (the simulator
    /// never skips past [`SimMetrics::next_at`], so this fires exactly on
    /// multiples of the interval).
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_at
    }

    /// The cycle that closes the current interval.
    pub fn next_at(&self) -> u64 {
        self.next_at
    }

    /// Close the interval ending at `now` with cumulative values `cum`.
    pub fn sample(&mut self, now: u64, cum: Cum) {
        self.series.push(now, cum.delta(&self.last));
        self.last = cum;
        self.next_at = now + self.interval;
    }

    /// Push the final partial row covering `(last boundary, now]`.
    /// Idempotent: a no-op when no cycle has elapsed since the last row.
    pub fn finish(&mut self, now: u64, cum: Cum) {
        if cum.cycles > self.last.cycles {
            self.series.push(now, cum.delta(&self.last));
            self.last = cum;
            self.next_at = now + self.interval;
        }
    }

    /// Snapshot period in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The interval rows collected so far.
    pub fn series(&self) -> &Series {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(cycles: u64, committed: u64) -> Cum {
        Cum {
            cycles,
            committed,
            ..Cum::default()
        }
    }

    #[test]
    fn rows_are_interval_deltas() {
        let mut m = SimMetrics::new(100);
        assert!(!m.due(99));
        assert!(m.due(100));
        m.sample(100, cum(100, 42));
        m.sample(200, cum(200, 100));
        assert_eq!(m.series().rows[0].vals[1], 42);
        assert_eq!(m.series().rows[1].vals[1], 58, "second row is a delta");
        assert_eq!(m.series().column_total("committed"), Some(100));
    }

    #[test]
    fn finish_is_idempotent() {
        let mut m = SimMetrics::new(100);
        m.sample(100, cum(100, 10));
        m.finish(130, cum(130, 13));
        m.finish(130, cum(130, 13));
        assert_eq!(m.series().rows.len(), 2);
        assert_eq!(m.series().rows[1].end_cycle, 130);
        assert_eq!(m.series().column_total("cycles"), Some(130));
    }
}
