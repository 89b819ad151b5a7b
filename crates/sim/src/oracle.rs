//! Online scheduling-invariant oracle.
//!
//! [`InvariantOracle`] is an [`EventSink`] that consumes the simulator's
//! event stream and asserts scheduling *legality* — properties that must
//! hold for every run regardless of heuristics or performance:
//!
//! * **Wakeup before select:** an entry is selected only at or after the
//!   announced `ready_at` of every source tag it waits on.
//! * **Dependency floor:** a consumer is selected no earlier than its
//!   producer's select cycle plus `max(producer latency, wakeup floor)`.
//!   The floor is restated here *independently* of
//!   `SchedulerKind::wakeup_floor()` (2 for the pipelined 2-cycle and
//!   macro-op schedulers, 1 otherwise), so a bug in either the queue's
//!   broadcast arithmetic or the config tables trips the oracle. Grouped
//!   (MOPped) pairs share one entry and their internal edge is not a
//!   tracked source, which is exactly how the paper lets them issue
//!   back-to-back while non-grouped dependent pairs cannot.
//! * **MOP atomicity:** a selected entry's uop list equals the uops
//!   renamed into it (minus squashed tails), never exceeds the configured
//!   MOP size, and only the macro-op scheduler may select multi-uop
//!   entries.
//! * **Replay holds:** an entry pulled back by a load-miss replay is not
//!   re-selected before the missed tag's re-broadcast time.
//! * **In-order commit:** committed uop ids strictly increase, commit
//!   cycles never regress, and every committed uop was issued.
//! * **Pointer lifecycle:** a MOP pointer is installed only after its
//!   detection delay elapsed, fetch only hits installed pointers, and
//!   evictions name installed pointers.
//!
//! The oracle is deliberately *stale-early* about wakeup revocations
//! (collision squashes and scoreboard un-broadcasts are not evented): its
//! recorded `ready_at` is always less than or equal to the queue's
//! effective one, so it can miss a violation in those corners but never
//! reports a false positive.
//!
//! Debug builds attach a panicking oracle to every `Simulator`
//! automatically, turning the whole test suite into a timing-legality
//! suite; `mossim trace --check` attaches a collecting one and reports.

use std::collections::{HashMap, HashSet};

use mos_core::config::{SchedConfig, SchedulerKind};
use mos_core::events::{EventSink, RingSink, TraceEvent};
use mos_core::UopId;

/// How the oracle reacts to a violated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Panic immediately, printing the violation and the event window
    /// (used by the debug-build auto-attach: any test run trips it).
    Panic,
    /// Record the violation and keep checking (used by `mossim trace
    /// --check`).
    Collect,
}

/// One recorded invariant violation: what broke, when, and the trailing
/// event window leading up to it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Cycle of the violating event.
    pub cycle: u64,
    /// What went wrong.
    pub message: String,
    /// The last events before (and including) the violation, one JSON
    /// line each.
    pub window: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: {}\n{}", self.cycle, self.message, self.window)
    }
}

/// Per-tag producer record: when its entry was last selected and with
/// what scheduling latency.
#[derive(Debug, Clone, Copy)]
struct Producer {
    select: u64,
    latency: u32,
}

/// The online invariant checker. Feed it the event stream via
/// [`EventSink::emit`]; read back [`InvariantOracle::violations`] in
/// [`OracleMode::Collect`] mode.
#[derive(Debug)]
pub struct InvariantOracle {
    kind: SchedulerKind,
    max_mop_size: usize,
    mode: OracleMode,
    /// Latest announced wakeup time per tag (stale-early on revocations).
    tag_ready: HashMap<u64, u64>,
    /// Latest select of the entry producing each tag.
    producer: HashMap<u64, Producer>,
    /// Uops renamed into each queue slot, generation-checked (bounded by
    /// queue capacity).
    members: HashMap<usize, (u64, Vec<UopId>)>,
    /// Replay holds per slot: `(generation, earliest legal re-select)`.
    hold: HashMap<usize, (u64, u64)>,
    /// Uops that have been selected at least once.
    issued: HashSet<u64>,
    last_commit: Option<(u64, u64)>,
    /// Scheduled pointer installs per head sidx: pending `visible_at`s.
    ptr_pending: HashMap<u32, Vec<u64>>,
    /// Heads with an installed (fetch-visible) pointer.
    ptr_installed: HashSet<u32>,
    /// Trailing event window for violation reports; it also counts every
    /// event checked.
    window: RingSink,
    last_prune: u64,
    violations: Vec<Violation>,
}

/// Cycle horizon after which always-passing bookkeeping is dropped.
const PRUNE_HORIZON: u64 = 8192;
/// Most violations kept in collect mode (enough to diagnose; bounded).
const MAX_VIOLATIONS: usize = 64;

impl InvariantOracle {
    /// An oracle for runs under `cfg`, reacting to violations per `mode`.
    pub fn new(cfg: &SchedConfig, mode: OracleMode) -> InvariantOracle {
        InvariantOracle {
            kind: cfg.kind,
            max_mop_size: cfg.mop.max_mop_size,
            mode,
            tag_ready: HashMap::new(),
            producer: HashMap::new(),
            members: HashMap::new(),
            hold: HashMap::new(),
            issued: HashSet::new(),
            last_commit: None,
            ptr_pending: HashMap::new(),
            ptr_installed: HashSet::new(),
            window: RingSink::new(48),
            last_prune: 0,
            violations: Vec::new(),
        }
    }

    /// Independent restatement of the scheduling-loop length: 2 cycles for
    /// the pipelined and macro-op schedulers, 1 for everything else. Kept
    /// separate from `SchedulerKind::wakeup_floor()` on purpose — the
    /// oracle must not inherit a bug in the config tables.
    fn floor(&self) -> u64 {
        match self.kind {
            SchedulerKind::TwoCycle | SchedulerKind::MacroOp => 2,
            _ => 1,
        }
    }

    /// Total events checked.
    pub fn events_seen(&self) -> u64 {
        self.window.total_seen()
    }

    /// Violations recorded so far (always empty in panic mode — the first
    /// one aborts the process).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, cycle: u64, message: String) {
        let mut window = String::new();
        for ev in self.window.events() {
            window.push_str("  ");
            window.push_str(&ev.to_json());
            window.push('\n');
        }
        let v = Violation {
            cycle,
            message,
            window,
        };
        match self.mode {
            OracleMode::Panic => panic!(
                "scheduling invariant violated at cycle {}: {}\nlast {} events:\n{}",
                v.cycle,
                v.message,
                self.window.len(),
                v.window
            ),
            OracleMode::Collect => {
                if self.violations.len() < MAX_VIOLATIONS {
                    self.violations.push(v);
                }
            }
        }
    }

    /// Drop bookkeeping whose checks can only pass from now on.
    fn prune(&mut self, now: u64) {
        let keep = now.saturating_sub(PRUNE_HORIZON);
        self.tag_ready.retain(|_, &mut r| r >= keep);
        self.producer.retain(|_, p| p.select >= keep);
        self.ptr_pending.retain(|_, v| {
            v.retain(|&at| at >= keep);
            !v.is_empty()
        });
        if let Some((last_id, _)) = self.last_commit {
            self.issued.retain(|&id| id >= last_id);
        }
        self.last_prune = now;
    }

    fn check(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Rename {
                cycle,
                id,
                entry,
                dst,
                fused,
                ..
            } => {
                // A fresh producer instance invalidates anything known
                // about a reused tag.
                if let Some(d) = dst {
                    self.tag_ready.remove(&d.0);
                    self.producer.remove(&d.0);
                }
                let slot = entry.index();
                if *fused {
                    if self.kind != SchedulerKind::MacroOp {
                        self.violate(
                            *cycle,
                            format!("uop {} fused under non-macro-op scheduler", id.0),
                        );
                    }
                    match self.members.get_mut(&slot) {
                        Some((gen, uops)) if *gen == entry.generation() => {
                            uops.push(*id);
                            if uops.len() > self.max_mop_size {
                                let n = uops.len();
                                self.violate(
                                    *cycle,
                                    format!(
                                        "entry [{slot},{}] grew to {n} uops (max MOP size {})",
                                        entry.generation(),
                                        self.max_mop_size
                                    ),
                                );
                            }
                        }
                        _ => self.violate(
                            *cycle,
                            format!(
                                "uop {} fused into unknown entry [{slot},{}]",
                                id.0,
                                entry.generation()
                            ),
                        ),
                    }
                } else {
                    self.members.insert(slot, (entry.generation(), vec![*id]));
                    self.hold.remove(&slot);
                }
            }
            TraceEvent::Wakeup { tag, ready_at, .. } => {
                self.tag_ready.insert(tag.0, *ready_at);
            }
            TraceEvent::Select {
                cycle,
                entry,
                uops,
                srcs,
                dst,
                latency,
                ..
            } => {
                let c = *cycle;
                let slot = entry.index();
                // MOP atomicity: the selected uop list is exactly what was
                // renamed into this entry (minus squashed tails).
                match self.members.get(&slot) {
                    Some((gen, renamed)) if *gen == entry.generation() => {
                        if renamed != uops {
                            self.violate(
                                c,
                                format!(
                                    "entry [{slot},{}] selected {:?} but renamed {:?}",
                                    entry.generation(),
                                    uops.iter().map(|u| u.0).collect::<Vec<_>>(),
                                    renamed.iter().map(|u| u.0).collect::<Vec<_>>()
                                ),
                            );
                        }
                    }
                    _ => self.violate(
                        c,
                        format!("selected unknown entry [{slot},{}]", entry.generation()),
                    ),
                }
                if uops.len() > 1 && self.kind != SchedulerKind::MacroOp {
                    self.violate(
                        c,
                        format!(
                            "{}-uop entry selected under non-macro-op scheduler",
                            uops.len()
                        ),
                    );
                }
                if uops.len() > self.max_mop_size {
                    self.violate(
                        c,
                        format!(
                            "selected {} uops, max MOP size is {}",
                            uops.len(),
                            self.max_mop_size
                        ),
                    );
                }
                // Replay hold: no re-select before the miss re-broadcast.
                if let Some(&(gen, reissue_at)) = self.hold.get(&slot) {
                    if gen == entry.generation() {
                        if c < reissue_at {
                            self.violate(
                                c,
                                format!(
                                    "replayed entry [{slot},{gen}] re-selected at {c}, \
                                     legal from {reissue_at}"
                                ),
                            );
                        }
                        self.hold.remove(&slot);
                    }
                }
                let floor = self.floor();
                for t in srcs {
                    if let Some(&r) = self.tag_ready.get(&t.0) {
                        if c < r {
                            self.violate(
                                c,
                                format!(
                                    "selected before source tag {} broadcast (ready_at {r})",
                                    t.0
                                ),
                            );
                        }
                    }
                    if let Some(&p) = self.producer.get(&t.0) {
                        let legal = p.select + u64::from(p.latency).max(floor);
                        if c < legal {
                            self.violate(
                                c,
                                format!(
                                    "dependent on tag {} selected at {c}, {} cycle(s) after \
                                     its producer — scheduling loop floor is {floor}, \
                                     producer latency {}, legal from {legal}",
                                    t.0,
                                    c - p.select,
                                    p.latency
                                ),
                            );
                        }
                    }
                }
                for u in uops {
                    self.issued.insert(u.0);
                }
                if let Some(d) = dst {
                    self.producer.insert(
                        d.0,
                        Producer {
                            select: c,
                            latency: *latency,
                        },
                    );
                }
            }
            TraceEvent::Issue {
                cycle, id, exec_at, ..
            } => {
                if exec_at < cycle {
                    self.violate(
                        *cycle,
                        format!("uop {} reaches execute at {exec_at}, before issue", id.0),
                    );
                }
            }
            TraceEvent::Replay {
                entry, reissue_at, ..
            } => {
                self.hold
                    .insert(entry.index(), (entry.generation(), *reissue_at));
            }
            TraceEvent::Commit { cycle, id, .. } => {
                let c = *cycle;
                if let Some((last_id, last_cycle)) = self.last_commit {
                    if id.0 <= last_id {
                        self.violate(
                            c,
                            format!(
                                "commit of uop {} after uop {last_id}: out of program order",
                                id.0
                            ),
                        );
                    }
                    if c < last_cycle {
                        self.violate(
                            c,
                            format!("commit cycle regressed from {last_cycle} to {c}"),
                        );
                    }
                }
                if !self.issued.remove(&id.0) {
                    self.violate(c, format!("uop {} committed without issuing", id.0));
                }
                self.last_commit = Some((id.0, c));
            }
            TraceEvent::Squash { from, .. } => {
                self.members.retain(|_, (_, uops)| {
                    uops.retain(|u| *u < *from);
                    !uops.is_empty()
                });
                self.issued.retain(|&id| id < from.0);
            }
            TraceEvent::MopDetect {
                head_sidx,
                visible_at,
                ..
            } => {
                self.ptr_pending
                    .entry(*head_sidx)
                    .or_default()
                    .push(*visible_at);
            }
            TraceEvent::PointerInstall {
                cycle, head_sidx, ..
            } => {
                let ok = match self.ptr_pending.get_mut(head_sidx) {
                    Some(pending) => {
                        // Consume the earliest elapsed schedule.
                        let due = pending
                            .iter()
                            .enumerate()
                            .filter(|(_, &at)| at <= *cycle)
                            .min_by_key(|(_, &at)| at)
                            .map(|(i, _)| i);
                        match due {
                            Some(i) => {
                                pending.swap_remove(i);
                                true
                            }
                            None => false,
                        }
                    }
                    None => false,
                };
                if !ok {
                    self.violate(
                        *cycle,
                        format!(
                            "pointer for head {head_sidx} installed before its \
                             detection delay elapsed"
                        ),
                    );
                }
                self.ptr_installed.insert(*head_sidx);
            }
            TraceEvent::PointerHit {
                cycle, head_sidx, ..
            } => {
                if !self.ptr_installed.contains(head_sidx) {
                    self.violate(
                        *cycle,
                        format!("fetch hit a pointer for head {head_sidx} that is not installed"),
                    );
                }
            }
            TraceEvent::PointerEvict {
                cycle, head_sidx, ..
            } => {
                if !self.ptr_installed.remove(head_sidx) {
                    self.violate(
                        *cycle,
                        format!("evicted a pointer for head {head_sidx} that was not installed"),
                    );
                }
            }
            TraceEvent::Fetch { .. } | TraceEvent::LoadResolve { .. } => {}
        }
    }
}

impl EventSink for InvariantOracle {
    fn emit(&mut self, ev: &TraceEvent) {
        self.window.emit(ev);
        if ev.cycle() > self.last_prune + PRUNE_HORIZON {
            self.prune(ev.cycle());
        }
        self.check(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_core::config::SchedConfig;
    use mos_core::Tag;

    fn cfg(kind: SchedulerKind) -> SchedConfig {
        SchedConfig {
            kind,
            ..SchedConfig::default()
        }
    }

    /// Synthetic stream: under the 2-cycle scheduler, a dependent
    /// single-cycle pair issued on consecutive cycles violates the floor.
    #[test]
    fn back_to_back_dependent_issue_trips_two_cycle_floor() {
        let mut q = mos_core::queue::IssueQueue::new(cfg(SchedulerKind::TwoCycle));
        q.set_tracing(true);
        let mut evs = Vec::new();
        // Producer uop 0 -> Tag(0); consumer uop 1 reads Tag(0).
        // Both single-cycle: an integer ALU uop's class latency is 1.
        let prod = mos_core::SchedUop::leaf(UopId(0), mos_isa::InstClass::IntAlu, Some(Tag(0)));
        let mut cons = mos_core::SchedUop::leaf(UopId(1), mos_isa::InstClass::IntAlu, Some(Tag(1)));
        cons.srcs = [Tag(0)].into_iter().collect();
        let e0 = q.insert(prod).unwrap();
        let e1 = q.insert(cons).unwrap();
        q.drain_trace_into(0, &mut evs);
        // Producer selected at cycle 5.
        evs.push(TraceEvent::Select {
            cycle: 5,
            entry: e0,
            uops: vec![UopId(0)],
            srcs: vec![],
            dst: Some(Tag(0)),
            latency: 1,
            is_load: false,
        });
        // Queue would broadcast ready_at = 5 + max(1, 2) = 7; a buggy
        // scheduler wakes dependents a cycle early and selects at 6.
        evs.push(TraceEvent::Wakeup {
            cycle: 5,
            tag: Tag(0),
            ready_at: 6,
            speculative: false,
        });
        evs.push(TraceEvent::Select {
            cycle: 6,
            entry: e1,
            uops: vec![UopId(1)],
            srcs: vec![Tag(0)],
            dst: Some(Tag(1)),
            latency: 1,
            is_load: false,
        });

        let mut oracle = InvariantOracle::new(&cfg(SchedulerKind::TwoCycle), OracleMode::Collect);
        for ev in &evs {
            oracle.emit(ev);
        }
        assert!(
            !oracle.is_clean(),
            "consecutive dependent issue must violate the 2-cycle floor"
        );
        let v = &oracle.violations()[0];
        assert!(v.message.contains("scheduling loop floor is 2"), "{v}");
        assert!(!v.window.is_empty(), "violation must carry an event window");

        // The identical gap is legal under the atomic 1-cycle scheduler.
        let mut base = InvariantOracle::new(&cfg(SchedulerKind::Base), OracleMode::Collect);
        for ev in &evs {
            base.emit(ev);
        }
        assert!(base.is_clean(), "{:?}", base.violations());
    }

    #[test]
    fn commit_out_of_order_is_caught() {
        let mut oracle = InvariantOracle::new(&cfg(SchedulerKind::Base), OracleMode::Collect);
        // Pretend both uops issued.
        oracle.issued.insert(3);
        oracle.issued.insert(4);
        oracle.emit(&TraceEvent::Commit {
            cycle: 10,
            id: UopId(4),
            sidx: 0,
            complete_at: 9,
        });
        oracle.emit(&TraceEvent::Commit {
            cycle: 11,
            id: UopId(3),
            sidx: 1,
            complete_at: 9,
        });
        assert_eq!(oracle.violations().len(), 1);
        assert!(oracle.violations()[0]
            .message
            .contains("out of program order"));
    }

    #[test]
    fn pointer_install_before_delay_is_caught() {
        let mut oracle = InvariantOracle::new(&cfg(SchedulerKind::MacroOp), OracleMode::Collect);
        oracle.emit(&TraceEvent::MopDetect {
            cycle: 10,
            head_sidx: 7,
            tail_sidx: 8,
            offset: 1,
            control: false,
            independent: false,
            visible_at: 13,
        });
        oracle.emit(&TraceEvent::PointerInstall {
            cycle: 11,
            head_sidx: 7,
            line: 0x40,
        });
        assert!(!oracle.is_clean(), "install at 11 is before visible_at 13");

        let mut ok = InvariantOracle::new(&cfg(SchedulerKind::MacroOp), OracleMode::Collect);
        ok.emit(&TraceEvent::MopDetect {
            cycle: 10,
            head_sidx: 7,
            tail_sidx: 8,
            offset: 1,
            control: false,
            independent: false,
            visible_at: 13,
        });
        ok.emit(&TraceEvent::PointerInstall {
            cycle: 13,
            head_sidx: 7,
            line: 0x40,
        });
        ok.emit(&TraceEvent::PointerHit {
            cycle: 14,
            head_sidx: 7,
            tail_sidx: 8,
        });
        ok.emit(&TraceEvent::PointerEvict {
            cycle: 15,
            head_sidx: 7,
            line: 0x40,
            filtered: false,
        });
        assert!(ok.is_clean(), "{:?}", ok.violations());
        // A second hit after the evict is illegal.
        ok.emit(&TraceEvent::PointerHit {
            cycle: 16,
            head_sidx: 7,
            tail_sidx: 8,
        });
        assert!(!ok.is_clean());
    }
}
