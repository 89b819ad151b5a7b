//! MOP detection (Section 5.1): examines the renamed instruction stream
//! through a triangular dependence matrix and generates MOP pointers.
//!
//! The detector consumes one rename group per [`MopDetector::step`] and
//! retains enough previous groups to cover the configured scope (8
//! instructions = two 4-wide groups in the paper). Within the window it
//!
//! 1. marks register dependences — a cell `(i, j)` holds the *number of
//!    source operands of the consumer `j`* ("1" or "2"), exactly as in
//!    Figure 9;
//! 2. scans each eligible column (a value-generating candidate that is not
//!    already a head/tail and has no cached pointer) downward, selecting
//!    the first eligible row, where a mark of "2" may only be chosen when
//!    it is the **first mark in the column** — the conservative
//!    cycle-detection heuristic of Figure 8(c) (or, in
//!    [`CycleDetection::Precise`] mode, a real in-window reachability
//!    check, used for the paper's >90 %-coverage ablation);
//! 3. resolves rows claimed by several columns in favor of the oldest
//!    column (the priority decoder);
//! 4. enforces the wakeup-array source limit (two distinct source tags for
//!    CAM-style wakeup), the 3-bit pointer offset, and the control-flow
//!    rules of Section 5.1.3 (at most one taken *direct* transfer between
//!    head and tail, none indirect);
//! 5. afterwards pairs remaining candidates with identical (or no) source
//!    origins into **independent MOPs** (Section 5.4.1).

use mos_isa::{DynInst, Program, Reg, StaticInst};

use crate::config::{CycleDetection, MopConfig};
use crate::pointer::MopPointer;

/// How control left an instruction toward the next one in the dynamic
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlOut {
    /// Fell through (includes not-taken branches).
    FallThrough,
    /// Taken direct branch, jump or call — encodable in the pointer's
    /// control bit.
    TakenDirect,
    /// Taken indirect jump or return — pointers may not span these.
    TakenIndirect,
}

/// Detection-logic view of one renamed dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectInst {
    /// Static index.
    pub sidx: u32,
    /// I-cache line address the instruction (and thus its pointer) lives on.
    pub line_addr: u64,
    /// Macro-op candidate (single-cycle operation)?
    pub is_candidate: bool,
    /// Candidate that writes a register (potential MOP head)?
    pub is_valuegen: bool,
    /// Logical destination register.
    pub dst: Option<Reg>,
    /// Logical source registers (zero register excluded): an instruction
    /// names at most two.
    pub srcs: [Option<Reg>; 2],
    /// Control transition from this instruction to the next in the stream.
    pub ctrl_out: CtrlOut,
}

impl DetectInst {
    /// Build the detection view of a dynamic instruction.
    pub fn from_dyn(program: &Program, d: &DynInst) -> DetectInst {
        let inst = program.inst(d.sidx).expect("trace sidx in range");
        DetectInst::from_static(d.sidx, inst, d.taken, program.pc_of(d.sidx) & !63)
    }

    /// Build the detection view from static pieces: the instruction at
    /// `sidx`, whether control left it taken on the committed path, and
    /// its I-cache line.
    pub fn from_static(sidx: u32, inst: &StaticInst, taken: bool, line_addr: u64) -> DetectInst {
        use mos_isa::InstClass::*;
        let ctrl_out = if !taken {
            CtrlOut::FallThrough
        } else if matches!(inst.class(), IndirectJump | Return) {
            CtrlOut::TakenIndirect
        } else {
            CtrlOut::TakenDirect
        };
        let mut srcs = [None; 2];
        for (slot, r) in srcs.iter_mut().zip(inst.src_regs()) {
            *slot = Some(r);
        }
        DetectInst {
            sidx,
            line_addr,
            is_candidate: inst.is_mop_candidate(),
            is_valuegen: inst.is_value_generating_candidate(),
            dst: inst.dst(),
            srcs,
            ctrl_out,
        }
    }
}

/// A pair found by detection, ready for pointer installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedPair {
    /// Head static index (where the pointer is stored).
    pub head_sidx: u32,
    /// I-cache line of the head.
    pub head_line: u64,
    /// The pointer to install.
    pub pointer: MopPointer,
    /// `true` when the pair is an independent MOP (identical sources)
    /// rather than a dependent one.
    pub independent: bool,
}

/// Aggregate detection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectStats {
    /// Dependent pairs emitted.
    pub dependent_pairs: u64,
    /// Independent pairs emitted.
    pub independent_pairs: u64,
    /// Pairings rejected by the cycle policy.
    pub cycle_rejects: u64,
    /// Pairings rejected by the source-count limit.
    pub src_limit_rejects: u64,
    /// Pairings rejected by control-flow rules or offset range.
    pub flow_rejects: u64,
}

/// Largest detection window: the per-step dependence matrix is held as one
/// `u64` bitmask per row.
const MAX_WINDOW: usize = 64;

// `external` holds one bit per logical register.
const _: () = assert!(Reg::NUM <= 64);

/// Last-writer entry of a register no slot in the window has written.
const OUTSIDE: u8 = u8::MAX;

/// One window position: what the matrix needs of a [`DetectInst`]. The
/// per-position flags (MOP candidate, value generator, taken transfer
/// out) are bitmasks in [`MopDetector`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    sidx: u32,
    line_addr: u64,
    srcs: [Option<Reg>; 2],
    n_srcs: u8,
    dst: Option<Reg>,
}

impl Slot {
    const EMPTY: Slot = Slot {
        sidx: 0,
        line_addr: 0,
        srcs: [None; 2],
        n_srcs: 0,
        dst: None,
    };
}

/// Bits `from..` of a window mask.
fn bits_from(from: usize) -> u64 {
    u64::MAX.checked_shl(from as u32).unwrap_or(0)
}

/// The MOP detection engine. Feed one rename group per call to
/// [`MopDetector::step`]; it holds the previous groups needed to cover the
/// configured scope.
///
/// The window is a fixed array of slots, oldest first, that slides by
/// whole groups. Everything known per position — candidate, value
/// generator, taken direct or indirect transfer out, already a head or a
/// tail — is a bitmask over window positions that slides with it. Each
/// step rebuilds the dependence matrix of the whole window in one pass
/// over a `u8` last-writer table (skipped when no slot could head a
/// pair), and asks `has_pointer` only for a column that has some row to
/// pair with, at most once. Pairs go into a buffer the detector reuses,
/// so a step makes no heap allocation.
#[derive(Debug, Clone)]
pub struct MopDetector {
    config: MopConfig,
    max_srcs: Option<usize>,
    group_width: usize,
    window: [Slot; MAX_WINDOW],
    /// Occupied window slots.
    len: usize,
    candidates: u64,
    valuegens: u64,
    taken_direct: u64,
    taken_indirect: u64,
    /// Positions already claimed as a MOP head / tail.
    heads: u64,
    tails: u64,
    /// Bit `i` of `deps[j]`: position `i` is the last writer of one of
    /// `j`'s sources (the dependence matrix, by row).
    deps: [u64; MAX_WINDOW],
    /// `users[i]`: the rows that mark column `i`, i.e. the positions that
    /// consume `i`'s result (the matrix by column).
    users: [u64; MAX_WINDOW],
    /// Bit `r` of `external[j]`: `j` reads logical register `r`, last
    /// written outside the window. A slot's source origins are its `deps`
    /// and `external` sets; two candidates with equal origins form an
    /// independent MOP.
    external: [u64; MAX_WINDOW],
    /// Transitive ancestors of each position, with every accepted pair
    /// merged into one node: built only under [`CycleDetection::Precise`].
    reach: [u64; MAX_WINDOW],
    /// `group[i]`: the positions of `i`'s MOP, `i` included (just `i`
    /// until it pairs). Kept only under [`CycleDetection::Precise`].
    group: [u64; MAX_WINDOW],
    pairs: Vec<DetectedPair>,
    stats: DetectStats,
}

impl MopDetector {
    /// Create a detector. `group_width` is the rename width (4 in the
    /// paper); `max_srcs` is the wakeup-array source limit
    /// ([`crate::WakeupStyle::max_entry_sources`]).
    pub fn new(config: MopConfig, max_srcs: Option<usize>, group_width: usize) -> MopDetector {
        assert!(group_width > 0);
        assert!(config.scope >= 2, "scope must cover at least a pair");
        assert!(
            config.scope.max(group_width) <= MAX_WINDOW,
            "the detection window (scope and group width) is at most {MAX_WINDOW} instructions"
        );
        MopDetector {
            config,
            max_srcs,
            group_width,
            window: [Slot::EMPTY; MAX_WINDOW],
            len: 0,
            candidates: 0,
            valuegens: 0,
            taken_direct: 0,
            taken_indirect: 0,
            heads: 0,
            tails: 0,
            deps: [0; MAX_WINDOW],
            users: [0; MAX_WINDOW],
            external: [0; MAX_WINDOW],
            reach: [0; MAX_WINDOW],
            group: [0; MAX_WINDOW],
            pairs: Vec::new(),
            stats: DetectStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> DetectStats {
        self.stats
    }

    /// Forget all window state (e.g. across a pipeline squash, where the
    /// stream restarts from the recovery point).
    pub fn reset_window(&mut self) {
        self.len = 0;
        for mask in self.masks_mut() {
            *mask = 0;
        }
    }

    fn masks_mut(&mut self) -> [&mut u64; 6] {
        [
            &mut self.candidates,
            &mut self.valuegens,
            &mut self.taken_direct,
            &mut self.taken_indirect,
            &mut self.heads,
            &mut self.tails,
        ]
    }

    /// Process one rename group. `has_pointer(sidx)` reports whether a
    /// pointer for a head is already stored or pending;
    /// `blacklisted(head, tail)` consults the last-arrival filter's ban
    /// list. Both must answer the same throughout a call: `has_pointer` is
    /// asked at most once per window slot. Returns the pairs detected this
    /// step, valid until the next call.
    pub fn step(
        &mut self,
        group: &[DetectInst],
        mut has_pointer: impl FnMut(u32) -> bool,
        mut blacklisted: impl FnMut(u32, u32) -> bool,
    ) -> &[DetectedPair] {
        self.pairs.clear();
        self.slide(group);
        let cur_start = self.len - group.len().min(self.group_width);

        // Columns that may head a dependent MOP (a tail may head a further
        // link only when chaining, >2-wide MOPs, is enabled), and
        // candidates that may head an independent one.
        let chains = self.config.max_mop_size > 2;
        let (heads_before, tails_before) = (self.heads, self.tails);
        let members_before = heads_before | tails_before;
        let mut dep_cols = self.valuegens & !heads_before & if chains { !0 } else { !tails_before };
        let mut ind_cols = if self.config.group_independent {
            self.candidates & !members_before
        } else {
            0
        };
        if dep_cols | ind_cols == 0 {
            return &self.pairs;
        }
        self.build_rows();

        // A column with some row it could pair with asks whether its head
        // already holds a pointer, at most once per step.
        let (mut asked, mut held) = (0u64, 0u64);
        let mut holds_pointer = |i: usize, sidx: u32| {
            if asked & (1 << i) == 0 {
                asked |= 1 << i;
                held |= u64::from(has_pointer(sidx)) << i;
            }
            held & (1 << i) != 0
        };

        // --- Dependent-MOP pass ---
        // Each column proposes its first eligible row, judged against the
        // membership the window had before this step; the priority decoder
        // then resolves rows claimed by several columns in favor of the
        // oldest column, and losers forgo this step. Columns propose in
        // order, so each proposal is resolved as soon as it is made.
        let mut row_taken = 0u64;
        while dep_cols != 0 {
            let i = dep_cols.trailing_zeros() as usize;
            dep_cols &= dep_cols - 1;
            // Rows in the previous group were already examined last step;
            // a mark there still counts as the column's first.
            let marks = self.users[i];
            let rows = marks & bits_from((i + 1).max(cur_start));
            let first_mark_row = if rows == marks {
                rows & rows.wrapping_neg()
            } else {
                0
            };
            let mut eligible = rows & self.candidates & !members_before;
            if eligible == 0 || holds_pointer(i, self.window[i].sidx) {
                continue;
            }
            while eligible != 0 {
                let j = eligible.trailing_zeros() as usize;
                eligible &= eligible - 1;
                let (col, row) = (&self.window[i], &self.window[j]);
                if blacklisted(col.sidx, row.sidx) {
                    continue;
                }
                let cycle_ok = match self.config.cycle_detection {
                    CycleDetection::Heuristic => row.n_srcs <= 1 || first_mark_row == 1 << j,
                    CycleDetection::Precise => !self.closes_cycle(i, j),
                };
                if !cycle_ok {
                    self.stats.cycle_rejects += 1;
                    continue;
                }
                if !self.src_limit_ok(i, j) {
                    self.stats.src_limit_rejects += 1;
                    continue;
                }
                let Some(control) = self.flow_between(i, j) else {
                    self.stats.flow_rejects += 1;
                    continue;
                };
                // The priority decoder: an older column claimed the row, or
                // this column became a tail earlier this step (it may then
                // head a pair only when chains are enabled).
                if row_taken & (1 << j) == 0 && (chains || self.tails & (1 << i) == 0) {
                    row_taken |= 1 << j;
                    self.accept(i, j, control, false);
                }
                break;
            }
        }

        // --- Independent-MOP pass (Section 5.4.1) ---
        while ind_cols != 0 {
            let i = ind_cols.trailing_zeros() as usize;
            ind_cols &= ind_cols - 1;
            let members = self.heads | self.tails;
            if members & (1 << i) != 0 {
                continue;
            }
            // Only pair across the frontier once, like the dependent
            // pass: previous-group columns consider current-group rows.
            let mut rows = self.candidates & !members & bits_from((i + 1).max(cur_start));
            let mut same_origins = 0u64;
            while rows != 0 {
                let j = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                let same = self.deps[i] == self.deps[j] && self.external[i] == self.external[j];
                same_origins |= u64::from(same) << j;
            }
            if same_origins == 0 || holds_pointer(i, self.window[i].sidx) {
                continue;
            }
            while same_origins != 0 {
                let j = same_origins.trailing_zeros() as usize;
                same_origins &= same_origins - 1;
                if blacklisted(self.window[i].sidx, self.window[j].sidx) {
                    continue;
                }
                let Some(control) = self.flow_between(i, j) else {
                    continue;
                };
                self.accept(i, j, control, true);
                break;
            }
        }
        &self.pairs
    }

    /// Drop the slots that fall out of scope (keeping at most `scope -
    /// group_width` old ones) and append the group, at most `group_width`
    /// of it.
    fn slide(&mut self, group: &[DetectInst]) {
        let keep = self.config.scope.saturating_sub(self.group_width);
        let precise = self.config.cycle_detection == CycleDetection::Precise;
        if self.len > keep {
            let drop = self.len - keep;
            self.window.copy_within(drop..self.len, 0);
            if precise {
                self.group.copy_within(drop..self.len, 0);
                for g in &mut self.group[..keep] {
                    *g >>= drop;
                }
            }
            self.len = keep;
            for mask in self.masks_mut() {
                *mask = mask.checked_shr(drop as u32).unwrap_or(0);
            }
        }
        for inst in group.iter().take(self.group_width) {
            let p = self.len;
            self.window[p] = Slot {
                sidx: inst.sidx,
                line_addr: inst.line_addr,
                srcs: inst.srcs,
                n_srcs: inst.srcs.iter().flatten().count() as u8,
                dst: inst.dst,
            };
            self.candidates |= u64::from(inst.is_candidate) << p;
            self.valuegens |= u64::from(inst.is_valuegen) << p;
            self.taken_direct |= u64::from(inst.ctrl_out == CtrlOut::TakenDirect) << p;
            self.taken_indirect |= u64::from(inst.ctrl_out == CtrlOut::TakenIndirect) << p;
            if precise {
                self.group[p] = 1 << p;
            }
            self.len += 1;
        }
    }

    /// One pass over a `u8` last-writer table, which maps each register
    /// to the window position that last wrote it, or [`OUTSIDE`]. Builds
    /// the dependence matrix by row and by column, the external sources
    /// and (precise mode only) reachability.
    fn build_rows(&mut self) {
        let mut last_writer = [OUTSIDE; Reg::NUM];
        for j in 0..self.len {
            let slot = self.window[j];
            let (mut deps, mut external) = (0u64, 0u64);
            self.users[j] = 0;
            for src in slot.srcs.into_iter().flatten() {
                match last_writer[src.index()] {
                    OUTSIDE => external |= 1 << src.index(),
                    i => {
                        deps |= 1 << i;
                        self.users[usize::from(i)] |= 1 << j;
                    }
                }
            }
            self.deps[j] = deps;
            self.external[j] = external;
            if let Some(d) = slot.dst {
                last_writer[d.index()] = j as u8;
            }
        }
        if self.config.cycle_detection == CycleDetection::Precise {
            self.close_reach();
        }
    }

    /// Transitive ancestors of every position, where an accepted pair is
    /// one node: a MOP issues only once the sources of all its members
    /// are ready, so each member waits on what any member waits on, and
    /// a consumer of one member waits on the whole MOP. Merged nodes can
    /// point backwards in the window, so this iterates to a fixed point
    /// (one pass, plus one to confirm, when nothing is paired).
    fn close_reach(&mut self) {
        for x in 0..self.len {
            let (mut members, mut waits) = (self.group[x], 0);
            while members != 0 {
                waits |= self.deps[members.trailing_zeros() as usize];
                members &= members - 1;
            }
            self.reach[x] = waits;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for x in 0..self.len {
                let mut reach = self.reach[x];
                let mut d = reach;
                while d != 0 {
                    let k = d.trailing_zeros() as usize;
                    d &= d - 1;
                    reach |= self.reach[k] | self.group[k];
                }
                changed |= reach != self.reach[x];
                self.reach[x] = reach;
            }
        }
    }

    /// Precise cycle check: grouping `i`'s MOP with that of its consumer
    /// `j` deadlocks when some position `k` outside both descends from
    /// `i`'s MOP and feeds `j`'s. (A path the other way round would run
    /// `i → j → k → i`, a cycle the window never holds.) Without earlier
    /// pairs, such a `k` lies strictly between `i` and `j`.
    fn closes_cycle(&self, i: usize, j: usize) -> bool {
        let mut outside = self.reach[j] & !(self.group[i] | self.group[j]);
        while outside != 0 {
            let k = outside.trailing_zeros() as usize;
            outside &= outside - 1;
            if self.reach[k] & (1 << i) != 0 {
                return true;
            }
        }
        false
    }

    /// Record the pair `(i, j)` and mark its members.
    fn accept(&mut self, i: usize, j: usize, control: bool, independent: bool) {
        let (head, tail) = (&self.window[i], &self.window[j]);
        let mut pointer = MopPointer::new((j - i) as u8, control, tail.sidx);
        if independent {
            pointer = pointer.independent();
            self.stats.independent_pairs += 1;
        } else {
            self.stats.dependent_pairs += 1;
        }
        self.pairs.push(DetectedPair {
            head_sidx: head.sidx,
            head_line: head.line_addr,
            pointer,
            independent,
        });
        self.heads |= 1 << i;
        self.tails |= 1 << j;
        if self.config.cycle_detection == CycleDetection::Precise {
            let merged = self.group[i] | self.group[j];
            let mut members = merged;
            while members != 0 {
                self.group[members.trailing_zeros() as usize] = merged;
                members &= members - 1;
            }
            self.close_reach();
        }
    }

    /// Check the merged source-tag count against the wakeup-array limit:
    /// the head's source operands plus each further source of the tail,
    /// minus the tail's dependence on the head (which becomes the internal
    /// MOP edge). The tail reads the head's result, so at most one of its
    /// sources can be further.
    fn src_limit_ok(&self, i: usize, j: usize) -> bool {
        let Some(limit) = self.max_srcs else {
            return true;
        };
        let (head, tail) = (&self.window[i], &self.window[j]);
        let further = tail
            .srcs
            .iter()
            .any(|&s| s.is_some() && s != head.dst && !head.srcs.contains(&s));
        usize::from(head.n_srcs) + usize::from(further) <= limit
    }

    /// Control-flow legality between window positions `i` and `j`
    /// (Section 5.1.3): at most one taken direct transfer, no taken
    /// indirect transfers, offset within the 3-bit pointer range. Returns
    /// the control bit, or `None` when the span is not encodable.
    fn flow_between(&self, i: usize, j: usize) -> Option<bool> {
        let offset = j - i;
        if offset == 0 || offset > MopPointer::MAX_OFFSET as usize || offset >= self.config.scope {
            return None;
        }
        let span = bits_from(i) & !bits_from(j);
        if self.taken_indirect & span != 0 {
            return None;
        }
        match (self.taken_direct & span).count_ones() {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_isa::{Opcode, StaticInst};

    fn di(sidx: u32, inst: StaticInst) -> DetectInst {
        DetectInst::from_static(sidx, &inst, false, 0x40)
    }

    fn det() -> MopDetector {
        MopDetector::new(MopConfig::default(), None, 4)
    }

    fn no_ptr(_: u32) -> bool {
        false
    }
    fn no_bl(_: u32, _: u32) -> bool {
        false
    }

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    #[test]
    fn pairs_simple_dependent_chain() {
        // add r1 <- ...; sub r2 <- r1 : classic head/tail.
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::alui(Opcode::Subi, r(2), r(1), 1)),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].head_sidx, 0);
        assert_eq!(pairs[0].pointer.tail_sidx, 1);
        assert_eq!(pairs[0].pointer.offset, 1);
        assert!(!pairs[0].pointer.control);
        assert!(!pairs[0].independent);
    }

    #[test]
    fn figure4_example_from_gzip() {
        // The paper's Figure 5 code: 1: add r1; 2: lw r4 <- 0(r1);
        // 3: sub r5 <- r1, 1; 4: bez r5. Expected MOP: (1, 3); the load is
        // not a candidate; the branch should pair with nothing else (tail
        // of nothing — it's the consumer of 3, but 3 is already a tail).
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::load(r(4), 0, r(1))),
            di(2, StaticInst::alui(Opcode::Subi, r(5), r(1), 1)),
            di(3, StaticInst::branch(Opcode::Beqz, r(5), 0)),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].head_sidx, pairs[0].pointer.tail_sidx), (0, 2));
        assert_eq!(pairs[0].pointer.offset, 2);
    }

    #[test]
    fn heuristic_rejects_two_source_tail_across_marks() {
        // Figure 9 step n: i0 -> i1 (invalid row: load), i0 -> i2 where i2
        // has two sources. The mark "2" is not the first in the column, so
        // the pairing is rejected.
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::load(r(2), 0, r(1))),
            di(2, StaticInst::add(r(3), r(1), r(2))),
            di(3, StaticInst::nop()),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        assert!(pairs.is_empty(), "cycle heuristic must reject: {pairs:?}");
        assert_eq!(d.stats().cycle_rejects, 1);
    }

    #[test]
    fn two_source_tail_ok_when_first_mark() {
        // i1 reads i0 and an external register; no earlier mark in the
        // column, so "2" is selectable.
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::add(r(3), r(1), r(8))),
        ];
        let mut d = det();
        assert_eq!(d.step(&g, no_ptr, no_bl).len(), 1);
    }

    #[test]
    fn precise_mode_groups_where_heuristic_fears_a_cycle() {
        // i0 -> i1 (load, not groupable), i0 -> i2, i2 also reads i1's
        // output? No: make i2 read i0 and an *external* register. The
        // heuristic rejects (mark 2, not first); precise detection sees no
        // k between with i0=>k and k=>i2 both, because the load's value
        // does not feed i2.
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::load(r(2), 0, r(1))),
            di(2, StaticInst::add(r(3), r(1), r(7))),
        ];
        let mut h = MopDetector::new(MopConfig::default(), None, 4);
        assert!(h.step(&g, no_ptr, no_bl).is_empty());

        let cfg = MopConfig {
            cycle_detection: CycleDetection::Precise,
            ..MopConfig::default()
        };
        let mut p = MopDetector::new(cfg, None, 4);
        let pairs = p.step(&g, no_ptr, no_bl);
        assert_eq!(pairs.len(), 1, "precise mode recovers the opportunity");
    }

    #[test]
    fn precise_mode_still_rejects_true_cycles() {
        // i0 -> i1 (candidate consumer), i1 -> i2, i0 -> i2: grouping
        // (i0, i2) would deadlock with i1 in the middle (Figure 8a).
        // Column i0's first eligible row is i1 though — so force i1
        // ineligible by making it a load *that feeds i2*.
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::load(r(2), 0, r(1))),
            di(2, StaticInst::add(r(3), r(1), r(2))),
        ];
        let cfg = MopConfig {
            cycle_detection: CycleDetection::Precise,
            ..MopConfig::default()
        };
        let mut p = MopDetector::new(cfg, None, 4);
        assert!(p.step(&g, no_ptr, no_bl).is_empty());
        assert_eq!(p.stats().cycle_rejects, 1);
    }

    #[test]
    fn precise_mode_sees_cycles_through_accepted_pairs() {
        // Edges i0->i2, i1->i2, i1->i4, i3->i4, i0->i3. Step one pairs
        // (i0, i2); step two proposes (i1, i4). No position strictly
        // between i1 and i4 descends from i1, yet the MOP {i0, i2} waits
        // on i1 (through i2) and feeds i4 (through i3): the pair would
        // make {i1, i4} wait on {i0, i2} and {i0, i2} on {i1, i4}.
        let g1 = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::addi(r(2), r(8), 1)),
            di(2, StaticInst::add(r(3), r(1), r(2))),
            di(3, StaticInst::addi(r(4), r(1), 1)),
        ];
        let g2 = vec![di(4, StaticInst::add(r(5), r(2), r(4)))];
        let cfg = MopConfig {
            cycle_detection: CycleDetection::Precise,
            ..MopConfig::default()
        };
        let mut p = MopDetector::new(cfg, None, 4);
        let first = p.step(&g1, no_ptr, no_bl).to_vec();
        assert_eq!(first.len(), 1);
        assert_eq!((first[0].head_sidx, first[0].pointer.tail_sidx), (0, 2));
        let rejects = p.stats().cycle_rejects;
        let second = p.step(&g2, no_ptr, no_bl).to_vec();
        assert!(
            second.iter().all(|q| q.head_sidx != 1),
            "(i1, i4) closes a cycle through {{i0, i2}}: {second:?}"
        );
        assert_eq!(p.stats().cycle_rejects, rejects + 1);
        // i3 may still head i4: {i3, i4} waits on i0 and i1, nothing
        // waits on it.
        assert_eq!(second.len(), 1);
        assert_eq!((second[0].head_sidx, second[0].pointer.tail_sidx), (3, 4));
    }

    #[test]
    fn priority_decoder_resolves_conflicts_oldest_first() {
        // Figure 9 step n+1: instructions 3 and 4 both select 5; the
        // decoder keeps (3,5) and 4 loses this step.
        let g1 = vec![
            di(0, StaticInst::nop()),
            di(1, StaticInst::nop()),
            di(2, StaticInst::addi(r(1), r(9), 1)),
            di(3, StaticInst::addi(r(2), r(8), 1)),
        ];
        let g2 = vec![di(4, StaticInst::add(r(3), r(1), r(2)))];
        let mut d = det();
        assert!(d.step(&g1, no_ptr, no_bl).is_empty());
        let pairs = d.step(&g2, no_ptr, no_bl);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].head_sidx, 2, "older column wins the row");
    }

    #[test]
    fn cam_two_source_limit_rejects_wide_unions() {
        // head reads r8, r9; tail reads head and r7 -> union {r8, r9, r7}.
        let g = vec![
            di(0, StaticInst::add(r(1), r(8), r(9))),
            di(1, StaticInst::add(r(2), r(1), r(7))),
        ];
        let mut cam = MopDetector::new(MopConfig::default(), Some(2), 4);
        assert!(cam.step(&g, no_ptr, no_bl).is_empty());
        assert_eq!(cam.stats().src_limit_rejects, 1);
        let mut wor = MopDetector::new(MopConfig::default(), None, 4);
        assert_eq!(wor.step(&g, no_ptr, no_bl).len(), 1);
    }

    #[test]
    fn pointer_spans_one_taken_direct_branch() {
        let mut head = di(0, StaticInst::addi(r(1), r(9), 1));
        head.ctrl_out = CtrlOut::FallThrough;
        let mut br = di(1, StaticInst::branch(Opcode::Bnez, r(8), 0));
        br.ctrl_out = CtrlOut::TakenDirect;
        let tail = di(7, StaticInst::alui(Opcode::Subi, r(2), r(1), 3));
        let g = vec![head, br, tail];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        assert_eq!(pairs.len(), 1);
        assert!(
            pairs[0].pointer.control,
            "control bit set across taken branch"
        );
    }

    #[test]
    fn pointer_rejected_across_indirect_or_two_taken() {
        let mk = |ctrls: [CtrlOut; 2]| {
            let mut a = di(0, StaticInst::addi(r(1), r(9), 1));
            a.ctrl_out = ctrls[0];
            let mut b = di(1, StaticInst::branch(Opcode::Bnez, r(8), 0));
            b.ctrl_out = ctrls[1];
            let c = di(2, StaticInst::alui(Opcode::Subi, r(2), r(1), 3));
            vec![a, b, c]
        };
        let mut d = det();
        assert!(d
            .step(
                &mk([CtrlOut::TakenIndirect, CtrlOut::FallThrough]),
                no_ptr,
                no_bl
            )
            .is_empty());
        let mut d = det();
        assert!(d
            .step(
                &mk([CtrlOut::TakenDirect, CtrlOut::TakenDirect]),
                no_ptr,
                no_bl
            )
            .is_empty());
        assert!(d.stats().flow_rejects >= 1);
    }

    #[test]
    fn cross_group_pairing_within_scope() {
        // Head in group n, tail in group n+1: the 8-instruction scope
        // spans two 4-wide groups.
        let g1 = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::nop()),
            di(2, StaticInst::nop()),
            di(3, StaticInst::nop()),
        ];
        let g2 = vec![di(4, StaticInst::alui(Opcode::Subi, r(2), r(1), 1))];
        let mut d = det();
        assert!(d.step(&g1, no_ptr, no_bl).is_empty());
        let pairs = d.step(&g2, no_ptr, no_bl);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].pointer.offset, 4);
    }

    #[test]
    fn out_of_scope_dependence_not_paired() {
        let g1 = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::nop()),
            di(2, StaticInst::nop()),
            di(3, StaticInst::nop()),
        ];
        let g2 = vec![
            di(4, StaticInst::nop()),
            di(5, StaticInst::nop()),
            di(6, StaticInst::nop()),
            di(7, StaticInst::nop()),
        ];
        let g3 = vec![di(8, StaticInst::alui(Opcode::Subi, r(2), r(1), 1))];
        let mut d = det();
        assert!(d.step(&g1, no_ptr, no_bl).is_empty());
        assert!(d.step(&g2, no_ptr, no_bl).is_empty());
        assert!(
            d.step(&g3, no_ptr, no_bl).is_empty(),
            "producer slid out of the 8-instruction window"
        );
    }

    #[test]
    fn independent_mops_pair_identical_sources() {
        // Two adds reading the same external registers, no dependence.
        let g = vec![
            di(0, StaticInst::add(r(1), r(8), r(9))),
            di(1, StaticInst::add(r(2), r(8), r(9))),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].independent);
    }

    #[test]
    fn independent_pass_runs_after_dependent_pass() {
        // i0 -> i1 dependent; i2, i3 independent with same sources.
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::alui(Opcode::Subi, r(2), r(1), 1)),
            di(2, StaticInst::add(r(3), r(7), r(8))),
            di(3, StaticInst::add(r(4), r(7), r(8))),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        assert_eq!(pairs.len(), 2);
        assert!(!pairs[0].independent);
        assert!(pairs[1].independent);
    }

    #[test]
    fn independent_disabled_by_config() {
        let cfg = MopConfig {
            group_independent: false,
            ..MopConfig::default()
        };
        let g = vec![
            di(0, StaticInst::add(r(1), r(8), r(9))),
            di(1, StaticInst::add(r(2), r(8), r(9))),
        ];
        let mut d = MopDetector::new(cfg, None, 4);
        assert!(d.step(&g, no_ptr, no_bl).is_empty());
    }

    #[test]
    fn same_register_different_producer_is_not_independent_pair() {
        // Both read r8, but i1 redefines r8 in between.
        let g = vec![
            di(0, StaticInst::addi(r(1), r(8), 0)),
            di(1, StaticInst::addi(r(8), r(8), 1)),
            di(2, StaticInst::addi(r(2), r(8), 0)),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        // (1,2) is a *dependent* pair (i2 reads i1's r8). i0 pairs with
        // nothing independently because origins differ.
        assert_eq!(pairs.len(), 1);
        assert!(!pairs[0].independent);
        assert_eq!(pairs[0].head_sidx, 1);
    }

    #[test]
    fn blacklist_suppresses_pair_and_picks_alternative() {
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::alui(Opcode::Subi, r(2), r(1), 1)),
            di(2, StaticInst::alui(Opcode::Subi, r(3), r(1), 2)),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, |h, t| (h, t) == (0, 1));
        assert_eq!(pairs.len(), 1);
        assert_eq!(
            pairs[0].pointer.tail_sidx, 2,
            "alternative tail chosen per Figure 12(c)"
        );
    }

    #[test]
    fn existing_pointer_suppresses_redetection() {
        let g = vec![
            di(0, StaticInst::addi(r(1), r(9), 1)),
            di(1, StaticInst::alui(Opcode::Subi, r(2), r(1), 1)),
        ];
        let mut d = det();
        assert!(d.step(&g, |s| s == 0, no_bl).is_empty());
    }

    #[test]
    fn value_dead_heads_do_not_pair() {
        // A store (non-value-generating) cannot head a dependent MOP.
        let g = vec![
            di(0, StaticInst::store(r(4), 0, r(5))),
            di(1, StaticInst::addi(r(2), r(9), 1)),
        ];
        let mut d = det();
        let pairs = d.step(&g, no_ptr, no_bl);
        assert!(pairs.iter().all(|p| p.independent || p.head_sidx != 0));
    }

    #[test]
    fn full_width_window_tracks_dependences_past_bit_32() {
        // One 64-wide group: the true-cycle pattern of the test above at
        // positions 40..=42, then a plain pair at 60, 61.
        let mut g: Vec<DetectInst> = (0..64).map(|k| di(k, StaticInst::nop())).collect();
        g[40] = di(40, StaticInst::addi(r(1), r(9), 1));
        g[41] = di(41, StaticInst::load(r(2), 0, r(1)));
        g[42] = di(42, StaticInst::add(r(3), r(1), r(2)));
        g[60] = di(60, StaticInst::addi(r(4), r(9), 1));
        g[61] = di(61, StaticInst::alui(Opcode::Subi, r(5), r(4), 1));
        let cfg = MopConfig {
            scope: 64,
            cycle_detection: CycleDetection::Precise,
            group_independent: false,
            ..MopConfig::default()
        };
        let mut p = MopDetector::new(cfg, None, 64);
        let pairs = p.step(&g, no_ptr, no_bl).to_vec();
        assert_eq!(p.stats().cycle_rejects, 1, "the cycle at 40..=42 is seen");
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].head_sidx, pairs[0].pointer.tail_sidx), (60, 61));
    }

    #[test]
    #[should_panic(expected = "at most 64 instructions")]
    fn windows_beyond_64_are_rejected() {
        let cfg = MopConfig {
            scope: 65,
            ..MopConfig::default()
        };
        let _ = MopDetector::new(cfg, None, 4);
    }

    #[test]
    fn window_reset_forgets_producers() {
        let g1 = vec![di(0, StaticInst::addi(r(1), r(9), 1))];
        let g2 = vec![di(1, StaticInst::alui(Opcode::Subi, r(2), r(1), 1))];
        let mut d = det();
        assert!(d.step(&g1, no_ptr, no_bl).is_empty());
        d.reset_window();
        assert!(d.step(&g2, no_ptr, no_bl).is_empty());
    }
}
