//! Per-instruction pipeline timelines: an opt-in recorder that captures
//! when each micro-operation was fetched, inserted, issued (including
//! replays), executed and committed — plus its macro-op membership — and
//! renders a text pipeline chart. Used by the `timeline` example and by
//! integration tests asserting stage-ordering invariants.

use std::fmt::Write as _;

use mos_isa::Program;

use crate::events::{EventSink, TraceEvent};

/// Timeline of one micro-operation through the pipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UopTimeline {
    /// Program-order uop id.
    pub id: u64,
    /// Static instruction index.
    pub sidx: u32,
    /// Cycle the instruction was fetched.
    pub fetched_at: u64,
    /// Cycle it entered the issue queue (after the front-end delay).
    pub inserted_at: u64,
    /// Every (re)issue cycle; more than one entry means load-replay.
    pub issues: Vec<u64>,
    /// Cycle it reached the execute stage (final issue).
    pub exec_at: Option<u64>,
    /// Cycle its result completed / it became committable.
    pub complete_at: Option<u64>,
    /// Commit cycle; `None` for wrong-path uops that were squashed.
    pub commit_at: Option<u64>,
    /// `true` when the uop was fetched on the wrong path.
    pub wrong_path: bool,
    /// Id of the macro-op head this uop was fused under, if any (equal to
    /// `id` for the head itself).
    pub mop_head: Option<u64>,
}

impl UopTimeline {
    /// Final issue cycle, if it issued at all.
    pub fn last_issue(&self) -> Option<u64> {
        self.issues.last().copied()
    }
}

/// Opt-in pipeline recorder with a bounded capacity (the first `cap`
/// uops entering the pipe).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    entries: Vec<UopTimeline>,
    cap: usize,
}

impl Timeline {
    /// A recorder keeping the first `cap` uops.
    pub fn new(cap: usize) -> Timeline {
        Timeline {
            entries: Vec::with_capacity(cap.min(4096)),
            cap,
        }
    }

    /// Recorded timelines in program order.
    pub fn entries(&self) -> &[UopTimeline] {
        &self.entries
    }

    pub(crate) fn record_insert(
        &mut self,
        id: u64,
        sidx: u32,
        fetched_at: u64,
        inserted_at: u64,
        wrong_path: bool,
    ) {
        if self.entries.len() >= self.cap {
            return;
        }
        self.entries.push(UopTimeline {
            id,
            sidx,
            fetched_at,
            inserted_at,
            issues: Vec::new(),
            exec_at: None,
            complete_at: None,
            commit_at: None,
            wrong_path,
            mop_head: None,
        });
    }

    fn find(&mut self, id: u64) -> Option<&mut UopTimeline> {
        // Entries are pushed in id order.
        let idx = self.entries.binary_search_by_key(&id, |e| e.id).ok()?;
        self.entries.get_mut(idx)
    }

    pub(crate) fn record_issue(&mut self, id: u64, cycle: u64, mop_head: Option<u64>) {
        if let Some(e) = self.find(id) {
            e.issues.push(cycle);
            e.mop_head = mop_head;
        }
    }

    pub(crate) fn record_exec(&mut self, id: u64, cycle: u64) {
        if let Some(e) = self.find(id) {
            e.exec_at = Some(cycle);
        }
    }

    pub(crate) fn record_complete(&mut self, id: u64, cycle: u64) {
        if let Some(e) = self.find(id) {
            e.complete_at = Some(cycle);
        }
    }

    pub(crate) fn record_commit(&mut self, id: u64, cycle: u64) {
        if let Some(e) = self.find(id) {
            e.commit_at = Some(cycle);
        }
    }

    /// Export in the Kanata pipeline-visualizer log format (version 4),
    /// loadable by the Konata viewer. Stages: `F` fetch, `Q` front end
    /// and scheduler wait, `X` execute, `R` replay wait (a cancelled
    /// issue awaiting re-selection), `C` awaiting commit. Wrong-path
    /// uops are emitted as retired-flushed records; fused MOP members
    /// carry a `MOP head` label line.
    pub fn to_kanata(&self, program: &Program) -> String {
        let mut out = String::from("Kanata\t0004\n");
        let base = self.entries.first().map(|e| e.fetched_at).unwrap_or(0);
        let _ = writeln!(out, "C=\t{base}");
        let mut last = base;
        for (seq, e) in self.entries.iter().enumerate() {
            if e.fetched_at > last {
                let _ = writeln!(out, "C\t{}", e.fetched_at - last);
                last = e.fetched_at;
            }
            let disasm = program
                .inst(e.sidx)
                .map(|i| i.to_string())
                .unwrap_or_else(|| "<?>".into());
            let _ = writeln!(out, "I\t{seq}\t{}\t0", e.id);
            let _ = writeln!(out, "L\t{seq}\t0\t{}: {disasm}", e.id);
            if let Some(h) = e.mop_head {
                let _ = writeln!(out, "L\t{seq}\t1\tMOP head {h}");
            }
            let rel = |c: u64| c.saturating_sub(e.fetched_at);
            let _ = writeln!(out, "S\t{seq}\t0\tF");
            let _ = writeln!(out, "E\t{seq}\t{}\tF", rel(e.inserted_at));
            let _ = writeln!(out, "S\t{seq}\t{}\tQ", rel(e.inserted_at));
            if let Some(&first) = e.issues.first() {
                let _ = writeln!(out, "E\t{seq}\t{}\tQ", rel(first));
                // Cancelled issues (load replays) render as a one-cycle
                // `X` attempt followed by an `R` wait until re-selection.
                for w in e.issues.windows(2) {
                    let _ = writeln!(out, "S\t{seq}\t{}\tX", rel(w[0]));
                    let _ = writeln!(out, "E\t{seq}\t{}\tX", rel(w[0]) + 1);
                    if rel(w[1]) > rel(w[0]) + 1 {
                        let _ = writeln!(out, "S\t{seq}\t{}\tR", rel(w[0]) + 1);
                        let _ = writeln!(out, "E\t{seq}\t{}\tR", rel(w[1]));
                    }
                }
                let last = e.last_issue().expect("non-empty issues");
                let _ = writeln!(out, "S\t{seq}\t{}\tX", rel(last));
                if let Some(x) = e.exec_at {
                    let _ = writeln!(out, "E\t{seq}\t{}\tX", rel(x) + 1);
                    let _ = writeln!(out, "S\t{seq}\t{}\tC", rel(x) + 1);
                }
            }
            match (e.commit_at, e.exec_at) {
                (Some(c), _) => {
                    let _ = writeln!(out, "R\t{seq}\t{seq}\t0");
                    let _ = writeln!(out, "E\t{seq}\t{}\tC", rel(c) + 1);
                }
                (None, _) => {
                    // Squashed / never committed within the window.
                    let _ = writeln!(out, "R\t{seq}\t{seq}\t1");
                }
            }
        }
        out
    }

    /// Render a text chart: one row per uop with fetch/insert/issue/exec/
    /// commit cycles, replay counts and MOP fusion markers.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>6} {:>6} {:>6} {:>6}  {:4} instruction",
            "id", "fetch", "insert", "issue", "exec", "commit", "mop"
        );
        for e in &self.entries {
            let disasm = program
                .inst(e.sidx)
                .map(|i| i.to_string())
                .unwrap_or_else(|| "<?>".into());
            let mop = match e.mop_head {
                Some(h) if h == e.id => "HEAD".to_owned(),
                Some(h) => format!("^{h}"),
                None => String::new(),
            };
            let fmt_opt = |v: Option<u64>| match v {
                Some(x) => format!("{x:>6}"),
                None => format!("{:>6}", "-"),
            };
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>6} {} {} {}  {:4} {}{}{}",
                e.id,
                e.fetched_at,
                e.inserted_at,
                fmt_opt(e.last_issue()),
                fmt_opt(e.exec_at),
                fmt_opt(e.commit_at),
                mop,
                disasm,
                if e.issues.len() > 1 {
                    format!("   [{}x issued]", e.issues.len())
                } else {
                    String::new()
                },
                if e.wrong_path { "   [wrong path]" } else { "" },
            );
        }
        out
    }
}

impl EventSink for Timeline {
    /// The timeline is a pure observer of the event stream: `Rename`
    /// seeds an entry (the stream stamps it with the insert cycle),
    /// `Select` records (re)issues and MOP membership, `Issue` pins the
    /// execute cycle (the last issue wins, matching replay semantics),
    /// and `Commit` closes the entry.
    fn emit(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Rename {
                cycle,
                id,
                sidx,
                fetched_at,
                wrong_path,
                ..
            } => self.record_insert(id.0, sidx, fetched_at, cycle, wrong_path),
            TraceEvent::Select {
                cycle, ref uops, ..
            } => {
                let head = (uops.len() > 1).then(|| uops[0].0);
                for u in uops {
                    self.record_issue(u.0, cycle, head);
                }
            }
            TraceEvent::Issue { id, exec_at, .. } => self.record_exec(id.0, exec_at),
            TraceEvent::Commit {
                cycle,
                id,
                complete_at,
                ..
            } => {
                self.record_complete(id.0, complete_at);
                self.record_commit(id.0, cycle);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_respected() {
        let mut t = Timeline::new(2);
        for id in 0..5 {
            t.record_insert(id, 0, 1, 2, false);
        }
        assert_eq!(t.entries().len(), 2);
    }

    #[test]
    fn records_resolve_by_id() {
        let mut t = Timeline::new(8);
        t.record_insert(0, 0, 1, 5, false);
        t.record_insert(1, 1, 1, 5, false);
        t.record_issue(1, 6, Some(0));
        t.record_exec(1, 11);
        t.record_commit(1, 13);
        let e = &t.entries()[1];
        assert_eq!(e.last_issue(), Some(6));
        assert_eq!(e.exec_at, Some(11));
        assert_eq!(e.commit_at, Some(13));
        assert_eq!(e.mop_head, Some(0));
        assert_eq!(t.entries()[0].last_issue(), None);
    }

    #[test]
    fn kanata_export_has_header_and_records() {
        use mos_isa::{Program, StaticInst};
        let mut p = Program::new("t");
        p.push(StaticInst::nop());
        let mut t = Timeline::new(4);
        t.record_insert(0, 0, 10, 14, false);
        t.record_issue(0, 15, None);
        t.record_exec(0, 20);
        t.record_commit(0, 22);
        t.record_insert(1, 0, 10, 14, true); // wrong path, squashed
        let k = t.to_kanata(&p);
        assert!(k.starts_with("Kanata\t0004\n"));
        assert!(k.contains("C=\t10"));
        assert!(k.contains("I\t0\t0\t0"));
        assert!(k.contains("R\t0\t0\t0"), "committed record: {k}");
        assert!(k.contains("R\t1\t1\t1"), "flushed record: {k}");
        assert!(k.contains("S\t0\t0\tF"));
    }

    #[test]
    fn replayed_issues_get_replay_lanes() {
        use mos_isa::{Program, StaticInst};
        let mut p = Program::new("t");
        p.push(StaticInst::nop());
        let mut t = Timeline::new(2);
        t.record_insert(0, 0, 0, 4, false);
        t.record_issue(0, 5, None);
        t.record_issue(0, 12, None); // replayed: a second selection
        t.record_exec(0, 17);
        t.record_commit(0, 19);
        let k = t.to_kanata(&p);
        assert!(k.contains("S\t0\t5\tX"), "first attempt starts X: {k}");
        assert!(k.contains("S\t0\t6\tR"), "replay wait lane opens: {k}");
        assert!(
            k.contains("E\t0\t12\tR"),
            "replay wait ends at re-issue: {k}"
        );
        assert!(k.contains("S\t0\t12\tX"), "final issue re-enters X: {k}");
    }

    #[test]
    fn observe_rebuilds_stage_times_from_events() {
        use mos_core::queue::IssueQueue;
        use mos_core::{SchedConfig, SchedUop, Tag, UopId};
        let mut t = Timeline::new(4);
        // Only the id-bearing fields matter to the observer; a real queue
        // insert is the sanctioned way to mint an EntryId.
        let entry = IssueQueue::new(SchedConfig::default())
            .insert(SchedUop::leaf(
                UopId(0),
                mos_isa::InstClass::IntAlu,
                Some(Tag(0)),
            ))
            .unwrap();
        t.emit(&TraceEvent::Rename {
            cycle: 6,
            id: UopId(0),
            sidx: 0,
            entry,
            dst: Some(Tag(0)),
            srcs: Vec::new(),
            fused: false,
            pending: false,
            is_load: false,
            fetched_at: 1,
            wrong_path: false,
        });
        t.emit(&TraceEvent::Select {
            cycle: 8,
            entry,
            uops: vec![UopId(0)],
            srcs: Vec::new(),
            dst: Some(Tag(0)),
            latency: 1,
            is_load: false,
        });
        t.emit(&TraceEvent::Issue {
            cycle: 8,
            id: UopId(0),
            sidx: 0,
            exec_at: 13,
            mop: false,
        });
        t.emit(&TraceEvent::Commit {
            cycle: 15,
            id: UopId(0),
            sidx: 0,
            complete_at: 14,
        });
        let e = &t.entries()[0];
        assert_eq!(e.fetched_at, 1);
        assert_eq!(e.inserted_at, 6);
        assert_eq!(e.last_issue(), Some(8));
        assert_eq!(e.exec_at, Some(13));
        assert_eq!(e.complete_at, Some(14));
        assert_eq!(e.commit_at, Some(15));
        assert_eq!(e.mop_head, None, "a singleton select carries no head");
    }

    #[test]
    fn unknown_ids_are_ignored() {
        let mut t = Timeline::new(1);
        t.record_insert(7, 0, 1, 2, false);
        t.record_issue(99, 3, None); // beyond capacity / unknown
        assert!(t.entries()[0].issues.is_empty());
    }
}
