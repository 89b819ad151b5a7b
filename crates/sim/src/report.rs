//! End-of-run reports: one structure combining the [`SimStats`] totals,
//! the interval time series and histograms from [`crate::SimMetrics`],
//! and a host-side self-profile (wall time per phase, simulated cycles
//! per second), rendered as Markdown or JSON by the `mossim report`
//! subcommand and consumed by schema tests.
//!
//! All JSON is hand-rolled (the workspace has no serde) and fully
//! deterministic apart from the wall-clock profile numbers.

use std::fmt::Write as _;

use mos_isa::TraceSource;
use mos_metrics::{Hist, Registry, Series};

use crate::cpistack::CpiStack;
use crate::sim::Simulator;
use crate::stats::SimStats;

/// Identity of the run being reported.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Workload name (benchmark or RV32 program).
    pub bench: String,
    /// Scheduler configuration name (CLI spelling).
    pub sched: String,
    /// Instruction budget requested.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// Metric snapshot interval in cycles (0 when metrics were off).
    pub interval: u64,
}

/// Host-side wall-clock self-profile of one run, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostProfile {
    /// Seconds spent building the workload/trace.
    pub build_seconds: f64,
    /// Seconds spent inside the simulation loop.
    pub sim_seconds: f64,
    /// Seconds spent rendering the report (set by the caller last).
    pub render_seconds: f64,
}

impl HostProfile {
    /// Simulated cycles per wall-clock second of simulation.
    pub fn cycles_per_second(&self, cycles: u64) -> f64 {
        if self.sim_seconds > 0.0 {
            cycles as f64 / self.sim_seconds
        } else {
            0.0
        }
    }
}

/// A complete run report: totals, interval series, histograms, profile.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Run identity.
    pub meta: RunMeta,
    /// End-of-run statistics snapshot.
    pub stats: SimStats,
    /// Interval time series, when metrics were enabled.
    pub series: Option<Series>,
    /// Per-cycle issue-queue occupancy distribution.
    pub occupancy: Option<Hist>,
    /// Wakeup→select delay distribution over issued entries.
    pub wakeup_select_delay: Option<Hist>,
    /// Top-down CPI stack, when slot accounting was enabled.
    pub cpi: Option<CpiStack>,
    /// Host-side wall-time profile.
    pub profile: HostProfile,
}

impl RunReport {
    /// Gather a report from a finished simulator: closes the final
    /// partial metric interval, snapshots the stats and clones the
    /// series/histograms.
    pub fn collect<T: TraceSource>(
        sim: &mut Simulator<T>,
        meta: RunMeta,
        profile: HostProfile,
    ) -> RunReport {
        sim.finish_metrics();
        let stats = sim.snapshot();
        let series = sim.metrics().map(|m| m.series().clone());
        let (occupancy, wakeup_select_delay) = match sim.queue_metrics() {
            Some(q) => (
                Some(q.occupancy.clone()),
                Some(q.wakeup_select_delay.clone()),
            ),
            None => (None, None),
        };
        let cpi = sim.slot_accounting().then(|| {
            CpiStack::from_stats(
                &meta.bench,
                &meta.sched,
                sim.config().sched.issue_width as u64,
                &stats,
            )
        });
        RunReport {
            meta,
            stats,
            series,
            occupancy,
            wakeup_select_delay,
            cpi,
            profile,
        }
    }

    /// The totals section as an ordered metric registry (shared between
    /// the Markdown and JSON renderings).
    pub fn registry(&self) -> Registry {
        let s = &self.stats;
        let mut r = Registry::new();
        r.counter("cycles", s.cycles);
        r.counter("committed", s.committed);
        r.gauge("ipc", s.ipc());
        r.counter("fetched", s.fetched);
        r.counter("wrong_path_fetched", s.wrong_path_fetched);
        r.counter("branches", s.branches);
        r.counter("mispredicts", s.mispredicts);
        r.counter("squashes", s.squashes);
        r.counter("loads", s.loads);
        r.gauge("dl1_miss_rate", s.dl1_miss_rate());
        r.counter("stores", s.stores);
        r.gauge("grouped_frac", s.grouped_frac());
        r.counter("mop_entries_issued", s.mop_entries_issued);
        r.counter("pointer_installs", s.pointers.0);
        r.counter("pointer_hits", s.pointer_hits);
        r.counter("pointer_evictions", s.pointers.1 + s.pointers.2);
        r.counter("issued_entries", s.queue.issued_entries);
        r.counter("issued_uops", s.queue.issued_uops);
        r.counter("load_replay_uops", s.queue.load_replay_uops);
        r.gauge("mean_occupancy", s.queue.mean_occupancy());
        r.counter("events_traced", s.events.total());
        r.counter("events_dropped", s.events.dropped);
        if let Some(h) = &self.occupancy {
            r.hist("occupancy", h.clone());
        }
        if let Some(h) = &self.wakeup_select_delay {
            r.hist("wakeup_select_delay", h.clone());
        }
        r
    }

    /// The full report as one JSON object:
    /// `{"meta":..,"totals":..,"series":..|null,"profile":..}`.
    pub fn to_json(&self) -> String {
        let meta = format!(
            "{{\"bench\":\"{}\",\"sched\":\"{}\",\"insts\":{},\"seed\":{},\"interval\":{}}}",
            self.meta.bench, self.meta.sched, self.meta.insts, self.meta.seed, self.meta.interval
        );
        let series = match &self.series {
            Some(s) => s.to_json(),
            None => "null".into(),
        };
        let cpi = match &self.cpi {
            Some(c) => c.to_json(),
            None => "null".into(),
        };
        let profile = format!(
            "{{\"build_seconds\":{:.6},\"sim_seconds\":{:.6},\"render_seconds\":{:.6},\"cycles_per_second\":{:.1}}}",
            self.profile.build_seconds,
            self.profile.sim_seconds,
            self.profile.render_seconds,
            self.profile.cycles_per_second(self.stats.cycles)
        );
        format!(
            "{{\"meta\":{meta},\"totals\":{},\"cpi\":{cpi},\"series\":{series},\"profile\":{profile}}}",
            self.registry().to_json()
        )
    }

    /// The full report as Markdown: run identity, totals table,
    /// per-interval derived rates, histograms and the host profile.
    pub fn to_markdown(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# mossim run report\n\n`{}` under `{}`, {} requested instructions, seed {}\n",
            self.meta.bench, self.meta.sched, self.meta.insts, self.meta.seed
        );
        out.push_str("## Totals\n\n");
        out.push_str(&self.registry().to_markdown());

        if let Some(cpi) = &self.cpi {
            out.push_str("\n## CPI stack\n\n");
            out.push_str(&cpi.to_markdown());
        }

        if let Some(series) = &self.series {
            let _ = writeln!(
                out,
                "\n## Interval series (every {} cycles)\n",
                series.interval
            );
            out.push_str(
                "| end_cycle | IPC | mean occ | grouped % | replays/1k cyc | ptr hits/1k cyc | mean wake→sel |\n",
            );
            out.push_str("|---|---|---|---|---|---|---|\n");
            let col = |name: &str| series.cols.iter().position(|&c| c == name);
            let (Some(ci), Some(cm), Some(gr), Some(rp), Some(ph), Some(oc), Some(ds), Some(dc)) = (
                col("cycles"),
                col("committed"),
                col("grouped"),
                col("replayed_uops"),
                col("pointer_hits"),
                col("occupancy_integral"),
                col("delay_sum"),
                col("delay_count"),
            ) else {
                out.push_str("\n(unknown series columns)\n");
                return out;
            };
            for row in &series.rows {
                let cyc = row.vals[ci].max(1) as f64;
                let committed = row.vals[cm] as f64;
                let _ = writeln!(
                    out,
                    "| {} | {:.3} | {:.1} | {:.1} | {:.2} | {:.2} | {:.2} |",
                    row.end_cycle,
                    committed / cyc,
                    row.vals[oc] as f64 / cyc,
                    100.0 * row.vals[gr] as f64 / committed.max(1.0),
                    1000.0 * row.vals[rp] as f64 / cyc,
                    1000.0 * row.vals[ph] as f64 / cyc,
                    row.vals[ds] as f64 / (row.vals[dc].max(1) as f64),
                );
            }
        }

        out.push_str("\n## Host profile\n\n");
        let _ = writeln!(
            out,
            "| phase | seconds |\n|---|---|\n| workload build | {:.3} |\n| simulate | {:.3} |\n| render | {:.3} |\n\n{:.0} simulated cycles/second ({} cycles, {} committed)",
            self.profile.build_seconds,
            self.profile.sim_seconds,
            self.profile.render_seconds,
            self.profile.cycles_per_second(s.cycles),
            s.cycles,
            s.committed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use mos_workload::spec2000;

    fn tiny_report(metrics: bool) -> RunReport {
        let trace = spec2000::by_name("gzip").unwrap().trace(42);
        let mut sim = Simulator::new(MachineConfig::base_32(), trace);
        if metrics {
            sim.enable_metrics(100);
        }
        sim.run(2_000);
        RunReport::collect(
            &mut sim,
            RunMeta {
                bench: "gzip".into(),
                sched: "base".into(),
                insts: 2_000,
                seed: 42,
                interval: if metrics { 100 } else { 0 },
            },
            HostProfile::default(),
        )
    }

    #[test]
    fn series_reconciles_with_totals() {
        let r = tiny_report(true);
        let series = r.series.as_ref().expect("metrics on");
        assert_eq!(series.column_total("cycles"), Some(r.stats.cycles));
        assert_eq!(series.column_total("committed"), Some(r.stats.committed));
        assert_eq!(
            series.column_total("replayed_uops"),
            Some(r.stats.queue.load_replay_uops)
        );
        assert_eq!(
            series.column_total("occupancy_integral"),
            Some(r.stats.queue.occupancy_integral)
        );
        let occ = r.occupancy.as_ref().expect("queue metrics on");
        assert_eq!(occ.count(), r.stats.queue.cycles);
        assert_eq!(occ.sum(), r.stats.queue.occupancy_integral);
        let d = r.wakeup_select_delay.as_ref().unwrap();
        assert_eq!(d.count(), r.stats.queue.issued_entries);
    }

    #[test]
    fn renders_json_and_markdown() {
        let r = tiny_report(true);
        let j = r.to_json();
        assert!(j.starts_with("{\"meta\":{\"bench\":\"gzip\""));
        assert!(j.contains("\"totals\":{\"cycles\":"));
        assert!(j.contains("\"series\":{\"interval\":100"));
        assert!(j.contains("\"cycles_per_second\":"));
        let md = r.to_markdown();
        assert!(md.contains("# mossim run report"));
        assert!(md.contains("## Interval series (every 100 cycles)"));
        assert!(md.contains("**occupancy**"));
    }

    #[test]
    fn metrics_off_report_has_null_series() {
        let r = tiny_report(false);
        assert!(r.series.is_none());
        assert!(r.to_json().contains("\"series\":null"));
        assert!(!r.to_markdown().contains("## Interval series"));
    }
}
