//! Property-based tests of the MOP detection matrix: structural
//! invariants that must hold for arbitrary instruction streams.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mos_core::detect::{CtrlOut, DetectInst, DetectStats, DetectedPair, MopDetector};
use mos_core::pointer::MopPointer;
use mos_core::{CycleDetection, MopConfig};
use mos_isa::{Opcode, Reg, StaticInst};

#[derive(Debug, Clone)]
enum K {
    Alu1 { dst: u8, a: u8 },
    Alu2 { dst: u8, a: u8, b: u8 },
    Load { dst: u8, a: u8 },
    Store { v: u8, a: u8 },
    Branch { c: u8, taken: bool },
    Mul { dst: u8, a: u8, b: u8 },
}

fn kinds() -> impl Strategy<Value = K> {
    let r = 1u8..12;
    prop_oneof![
        (r.clone(), r.clone()).prop_map(|(dst, a)| K::Alu1 { dst, a }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(dst, a, b)| K::Alu2 { dst, a, b }),
        (r.clone(), r.clone()).prop_map(|(dst, a)| K::Load { dst, a }),
        (r.clone(), r.clone()).prop_map(|(v, a)| K::Store { v, a }),
        (r.clone(), any::<bool>()).prop_map(|(c, taken)| K::Branch { c, taken }),
        (r.clone(), r.clone(), r).prop_map(|(dst, a, b)| K::Mul { dst, a, b }),
    ]
}

fn to_inst(sidx: u32, k: &K) -> DetectInst {
    let (inst, taken) = match *k {
        K::Alu1 { dst, a } => (StaticInst::addi(Reg::int(dst), Reg::int(a), 1), false),
        K::Alu2 { dst, a, b } => (
            StaticInst::alu(Opcode::Add, Reg::int(dst), Reg::int(a), Reg::int(b)),
            false,
        ),
        K::Load { dst, a } => (StaticInst::load(Reg::int(dst), 0, Reg::int(a)), false),
        K::Store { v, a } => (StaticInst::store(Reg::int(v), 0, Reg::int(a)), false),
        K::Branch { c, taken } => (StaticInst::branch(Opcode::Bnez, Reg::int(c), 0), taken),
        K::Mul { dst, a, b } => (
            StaticInst::alu(Opcode::Mul, Reg::int(dst), Reg::int(a), Reg::int(b)),
            false,
        ),
    };
    DetectInst::from_static(sidx, &inst, taken, 0x40 + u64::from(sidx / 16) * 64)
}

fn dst_of(k: &K) -> Option<u8> {
    match *k {
        K::Alu1 { dst, .. } | K::Alu2 { dst, .. } | K::Load { dst, .. } | K::Mul { dst, .. } => {
            Some(dst)
        }
        K::Store { .. } | K::Branch { .. } => None,
    }
}

fn raw_srcs(k: &K) -> Vec<u8> {
    match *k {
        K::Alu1 { a, .. } | K::Load { a, .. } => vec![a],
        K::Alu2 { a, b, .. } | K::Mul { a, b, .. } => vec![a, b],
        K::Store { v, a } => vec![a, v],
        K::Branch { c, .. } => vec![c],
    }
}

/// Detect-level oracle: independently re-derive the legality of every
/// dependent pair the detector emitted — the same payload the simulator
/// publishes as `mop_detect` trace events — from the raw stream alone.
///
/// For each dependent pair (head, tail) it asserts:
/// 1. the tail truly consumes the head's destination and nothing between
///    them redefines it (the dependence mark existed);
/// 2. a tail with two source operands is chosen only when its mark is the
///    first in the head's column — no older consumer of the head sits
///    between them (the Figure 8(c) cycle heuristic);
/// 3. the merged source set (head sources plus tail sources minus the
///    internal head→tail edge) respects the wakeup-array limit.
fn detect_oracle(
    stream: &[K],
    pairs: &[DetectedPair],
    max_srcs: Option<usize>,
) -> Result<(), String> {
    for p in pairs.iter().filter(|p| !p.independent) {
        let (h, t) = (p.head_sidx as usize, p.pointer.tail_sidx as usize);
        if !(h < t && t < stream.len()) {
            return Err(format!("pair ({h}, {t}) out of stream"));
        }
        let head = &stream[h];
        let tail = &stream[t];
        let d = dst_of(head).expect("dependent head must generate a value");
        if !raw_srcs(tail).contains(&d) {
            return Err(format!(
                "tail {t} does not read head {h}'s destination r{d}"
            ));
        }
        let between = &stream[h + 1..t];
        if between.iter().any(|k| dst_of(k) == Some(d)) {
            return Err(format!(
                "r{d} redefined between head {h} and tail {t}: the mark never existed"
            ));
        }
        if raw_srcs(tail).len() >= 2 {
            // Invariant 1 guarantees no redefinition of d in between, so
            // "earlier mark in the column" reduces to "earlier reader of d".
            if let Some(k) = between.iter().position(|k| raw_srcs(k).contains(&d)) {
                return Err(format!(
                    "two-source tail {t} chosen although instruction {} already \
                     held the first mark in column {h}",
                    h + 1 + k
                ));
            }
        }
        if let Some(limit) = max_srcs {
            let mut union = raw_srcs(head);
            for s in raw_srcs(tail) {
                if s != d && !union.contains(&s) {
                    union.push(s);
                }
            }
            if union.len() > limit {
                return Err(format!(
                    "pair ({h}, {t}) needs {} source tags, wakeup array holds {limit}",
                    union.len()
                ));
            }
        }
    }
    Ok(())
}

fn run_detector(
    stream: &[K],
    cycle: CycleDetection,
    max_srcs: Option<usize>,
) -> Vec<mos_core::detect::DetectedPair> {
    let cfg = MopConfig {
        cycle_detection: cycle,
        ..MopConfig::default()
    };
    let mut det = MopDetector::new(cfg, max_srcs, 4);
    let mut out = Vec::new();
    for (g, chunk) in stream.chunks(4).enumerate() {
        let group: Vec<DetectInst> = chunk
            .iter()
            .enumerate()
            .map(|(i, k)| to_inst((g * 4 + i) as u32, k))
            .collect();
        out.extend(det.step(&group, |_| false, |_, _| false));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every emitted pointer is structurally legal: offset 1..=7,
    /// head != tail, tail = head + offset (our streams are sequential).
    #[test]
    fn pointers_are_structurally_legal(stream in prop::collection::vec(kinds(), 4..64)) {
        for p in run_detector(&stream, CycleDetection::Heuristic, None) {
            prop_assert!((1..=7).contains(&p.pointer.offset));
            prop_assert_eq!(
                p.pointer.tail_sidx,
                p.head_sidx + u32::from(p.pointer.offset),
                "sequential stream: tail must sit offset after head"
            );
            prop_assert_eq!(p.independent, p.pointer.independent);
        }
    }

    /// No instruction appears in two pairs (one pointer per instruction;
    /// heads and tails are disjoint across a run).
    #[test]
    fn membership_is_exclusive(stream in prop::collection::vec(kinds(), 4..64)) {
        let pairs = run_detector(&stream, CycleDetection::Heuristic, None);
        let mut used = std::collections::HashSet::new();
        for p in &pairs {
            prop_assert!(used.insert(p.head_sidx), "head {} reused", p.head_sidx);
            prop_assert!(used.insert(p.pointer.tail_sidx), "tail {} reused", p.pointer.tail_sidx);
        }
    }

    /// Dependent heads are value-generating candidates and tails are
    /// candidates; a taken branch between them sets the control bit.
    #[test]
    fn dependent_pair_roles(stream in prop::collection::vec(kinds(), 4..64)) {
        let pairs = run_detector(&stream, CycleDetection::Heuristic, None);
        for p in pairs.iter().filter(|p| !p.independent) {
            let head = &stream[p.head_sidx as usize];
            prop_assert!(
                matches!(head, K::Alu1 { .. } | K::Alu2 { .. }),
                "dependent head must be a value-generating candidate: {head:?}"
            );
            let tail = &stream[p.pointer.tail_sidx as usize];
            prop_assert!(
                !matches!(tail, K::Load { .. } | K::Mul { .. }),
                "tail must be a single-cycle candidate: {tail:?}"
            );
            let taken_between = stream
                [p.head_sidx as usize..p.pointer.tail_sidx as usize]
                .iter()
                .filter(|k| matches!(k, K::Branch { taken: true, .. }))
                .count();
            prop_assert_eq!(taken_between == 1, p.pointer.control);
            prop_assert!(taken_between <= 1, "pointer across two taken branches");
        }
    }

    /// The CAM 2-source limit is respected: the merged source set of a
    /// dependent pair never exceeds two registers.
    #[test]
    fn cam_limit_is_enforced(stream in prop::collection::vec(kinds(), 4..64)) {
        let pairs = run_detector(&stream, CycleDetection::Heuristic, Some(2));
        for p in pairs.iter().filter(|p| !p.independent) {
            let srcs_of = |k: &K| -> Vec<u8> {
                match *k {
                    K::Alu1 { a, .. } | K::Load { dst: _, a } => vec![a],
                    K::Alu2 { a, b, .. } | K::Mul { a, b, .. } => vec![a, b],
                    K::Store { v, a } => vec![a, v],
                    K::Branch { c, .. } => vec![c],
                }
            };
            let head = &stream[p.head_sidx as usize];
            let head_dst = match *head {
                K::Alu1 { dst, .. } | K::Alu2 { dst, .. } => dst,
                _ => unreachable!("dependent heads are ALU"),
            };
            let mut union: Vec<u8> = srcs_of(head);
            for s in srcs_of(&stream[p.pointer.tail_sidx as usize]) {
                if s != head_dst && !union.contains(&s) {
                    union.push(s);
                }
            }
            prop_assert!(union.len() <= 2, "union {union:?} exceeds 2 sources");
        }
    }

    /// Precise cycle detection finds at least as many dependent pairs as
    /// the conservative heuristic (it only removes false positives).
    #[test]
    fn precise_dominates_heuristic(stream in prop::collection::vec(kinds(), 8..64)) {
        let h = run_detector(&stream, CycleDetection::Heuristic, None)
            .iter()
            .filter(|p| !p.independent)
            .count();
        let p = run_detector(&stream, CycleDetection::Precise, None)
            .iter()
            .filter(|p| !p.independent)
            .count();
        prop_assert!(p >= h, "precise {p} < heuristic {h}");
    }

    /// The detect-level oracle confirms every emitted dependent pair:
    /// real dependence, first-mark rule for two-source tails, and (when
    /// limited) the wakeup-array source budget.
    #[test]
    fn heuristic_pairs_pass_the_detect_oracle(stream in prop::collection::vec(kinds(), 4..96)) {
        let pairs = run_detector(&stream, CycleDetection::Heuristic, None);
        detect_oracle(&stream, &pairs, None).unwrap();
    }

    /// Same oracle with the CAM two-source wakeup limit active.
    #[test]
    fn cam_limited_pairs_pass_the_detect_oracle(stream in prop::collection::vec(kinds(), 4..96)) {
        let pairs = run_detector(&stream, CycleDetection::Heuristic, Some(2));
        detect_oracle(&stream, &pairs, Some(2)).unwrap();
    }

    /// Detection is deterministic.
    #[test]
    fn detection_is_deterministic(stream in prop::collection::vec(kinds(), 4..48)) {
        let a = run_detector(&stream, CycleDetection::Heuristic, None);
        let b = run_detector(&stream, CycleDetection::Heuristic, None);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.head_sidx, y.head_sidx);
            prop_assert_eq!(x.pointer, y.pointer);
        }
    }
}

/// The oracle itself must reject illegal pairings, or the property tests
/// above prove nothing. Hand it pairs the detector would never emit.
#[test]
fn detect_oracle_rejects_fabricated_violations() {
    // i0 writes r1; i1 (a load) reads r1 and holds the first mark in
    // column 0; i2 reads r1 and r7 with two source operands.
    let stream = vec![
        K::Alu1 { dst: 1, a: 9 },
        K::Load { dst: 2, a: 1 },
        K::Alu2 { dst: 3, a: 1, b: 7 },
    ];
    let fake = |tail: u32| DetectedPair {
        head_sidx: 0,
        head_line: 0x40,
        pointer: MopPointer::new(tail as u8, false, tail),
        independent: false,
    };
    // Pairing (0, 2) breaks the first-mark heuristic: the load at 1
    // already marked column 0 and the tail has two sources.
    assert!(detect_oracle(&stream, &[fake(2)], None).is_err());
    // Pairing (0, 1) is heuristic-legal; under a two-source CAM limit it
    // is fine too (union {r9, r1-internal} = {r9}).
    assert!(detect_oracle(&stream, &[fake(1)], Some(2)).is_ok());
    // A fabricated pair whose tail never reads the head is a non-dependence.
    let disjoint = vec![K::Alu1 { dst: 1, a: 9 }, K::Alu1 { dst: 2, a: 8 }];
    assert!(detect_oracle(&disjoint, &[fake(1)], None).is_err());
    // A two-source union of three registers must trip the CAM limit.
    let wide = vec![
        K::Alu2 { dst: 1, a: 8, b: 9 },
        K::Alu2 { dst: 2, a: 1, b: 7 },
    ];
    assert!(detect_oracle(&wide, &[fake(1)], Some(2)).is_err());
}

/// A straightforward transcription of the detection matrix that rebuilds
/// everything each step: the window is a `Vec` of owned slots, the
/// dependence matrix, reachability and independent-MOP origins are
/// rebuilt from scratch, every column asks `has_pointer` afresh, and all
/// proposals are collected before the priority decoder resolves them.
/// [`MopDetector`] must agree with it pair for pair and counter for
/// counter.
struct ReferenceDetector {
    config: MopConfig,
    max_srcs: Option<usize>,
    group_width: usize,
    /// `(instruction, head, tail)` in stream order.
    window: Vec<(DetectInst, bool, bool)>,
    stats: DetectStats,
}

fn reference_srcs(d: &DetectInst) -> Vec<Reg> {
    d.srcs.iter().flatten().copied().collect()
}

impl ReferenceDetector {
    fn new(config: MopConfig, max_srcs: Option<usize>, group_width: usize) -> ReferenceDetector {
        ReferenceDetector {
            config,
            max_srcs,
            group_width,
            window: Vec::new(),
            stats: DetectStats::default(),
        }
    }

    #[allow(clippy::needless_range_loop)] // positions index several tables
    fn step(
        &mut self,
        group: &[DetectInst],
        mut has_pointer: impl FnMut(u32) -> bool,
        mut blacklisted: impl FnMut(u32, u32) -> bool,
    ) -> Vec<DetectedPair> {
        let keep = self.config.scope.saturating_sub(self.group_width);
        if self.window.len() > keep {
            self.window.drain(..self.window.len() - keep);
        }
        let cur_start = self.window.len();
        for inst in group.iter().take(self.group_width) {
            self.window.push((*inst, false, false));
        }
        let n = self.window.len();

        let mut deps = vec![0u64; n];
        let mut last_writer: Vec<Option<usize>> = vec![None; Reg::NUM];
        for j in 0..n {
            for src in reference_srcs(&self.window[j].0) {
                if let Some(i) = last_writer[src.index()] {
                    deps[j] |= 1 << i;
                }
            }
            if let Some(d) = self.window[j].0.dst {
                last_writer[d.index()] = Some(j);
            }
        }
        let feeds = |i: usize, j: usize| deps[j] & (1 << i) != 0;
        let mut reach = vec![0u64; n];
        for j in 0..n {
            for i in 0..j {
                if feeds(i, j) {
                    reach[j] |= reach[i] | (1 << i);
                }
            }
        }

        let mut out = Vec::new();
        let mut proposals = Vec::new();
        for i in 0..n {
            let (col, col_head, col_tail) = self.window[i];
            if col_head || !col.is_valuegen || has_pointer(col.sidx) {
                continue;
            }
            if col_tail && self.config.max_mop_size <= 2 {
                continue;
            }
            let row_begin = (i + 1).max(if i < cur_start { cur_start } else { i + 1 });
            let mut mark_seen = (i + 1..row_begin).any(|j| feeds(i, j));
            for j in row_begin..n {
                if !feeds(i, j) {
                    continue;
                }
                let first_mark = !mark_seen;
                mark_seen = true;
                let (row, row_head, row_tail) = &self.window[j];
                if *row_head || *row_tail || !row.is_candidate {
                    continue;
                }
                if blacklisted(col.sidx, row.sidx) {
                    continue;
                }
                let cycle_ok = match self.config.cycle_detection {
                    CycleDetection::Heuristic => reference_srcs(row).len() <= 1 || first_mark,
                    CycleDetection::Precise => {
                        !((i + 1..j).any(|k| reach[k] & (1 << i) != 0 && reach[j] & (1 << k) != 0))
                    }
                };
                if !cycle_ok {
                    self.stats.cycle_rejects += 1;
                    continue;
                }
                if !self.src_limit_ok(i, j) {
                    self.stats.src_limit_rejects += 1;
                    continue;
                }
                if self.flow_between(i, j).is_none() {
                    self.stats.flow_rejects += 1;
                    continue;
                }
                proposals.push((i, j));
                break;
            }
        }
        let mut row_taken = vec![false; n];
        for (i, j) in proposals {
            if row_taken[j] {
                continue;
            }
            if self.window[i].2 && self.config.max_mop_size <= 2 {
                continue;
            }
            row_taken[j] = true;
            self.window[i].1 = true;
            self.window[j].2 = true;
            let control = self.flow_between(i, j).expect("checked above");
            let (head, tail) = (&self.window[i].0, &self.window[j].0);
            out.push(DetectedPair {
                head_sidx: head.sidx,
                head_line: head.line_addr,
                pointer: MopPointer::new((j - i) as u8, control, tail.sidx),
                independent: false,
            });
            self.stats.dependent_pairs += 1;
        }

        if self.config.group_independent {
            // Source origins: window producer positions, or the logical
            // register itself when the producer lies outside the window.
            let mut origins: Vec<Vec<(bool, usize)>> = vec![Vec::new(); n];
            let mut lw: Vec<Option<usize>> = vec![None; Reg::NUM];
            for j in 0..n {
                for src in reference_srcs(&self.window[j].0) {
                    let o = match lw[src.index()] {
                        Some(i) => (false, i),
                        None => (true, src.index()),
                    };
                    if !origins[j].contains(&o) {
                        origins[j].push(o);
                    }
                }
                origins[j].sort();
                if let Some(d) = self.window[j].0.dst {
                    lw[d.index()] = Some(j);
                }
            }
            for i in 0..n {
                let (c, c_head, c_tail) = self.window[i];
                if c_head || c_tail || !c.is_candidate || has_pointer(c.sidx) {
                    continue;
                }
                let row_begin = (i + 1).max(if i < cur_start { cur_start } else { i + 1 });
                for j in row_begin..n {
                    let (r, r_head, r_tail) = self.window[j];
                    if r_head || r_tail || !r.is_candidate {
                        continue;
                    }
                    if origins[i] != origins[j] || blacklisted(c.sidx, r.sidx) {
                        continue;
                    }
                    let Some(control) = self.flow_between(i, j) else {
                        continue;
                    };
                    out.push(DetectedPair {
                        head_sidx: c.sidx,
                        head_line: c.line_addr,
                        pointer: MopPointer::new((j - i) as u8, control, r.sidx).independent(),
                        independent: true,
                    });
                    self.stats.independent_pairs += 1;
                    self.window[i].1 = true;
                    self.window[j].2 = true;
                    break;
                }
            }
        }
        out
    }

    fn src_limit_ok(&self, i: usize, j: usize) -> bool {
        let Some(limit) = self.max_srcs else {
            return true;
        };
        let (head, tail) = (&self.window[i].0, &self.window[j].0);
        let mut union = reference_srcs(head);
        for s in reference_srcs(tail) {
            if Some(s) != head.dst && !union.contains(&s) {
                union.push(s);
            }
        }
        union.len() <= limit
    }

    fn flow_between(&self, i: usize, j: usize) -> Option<bool> {
        let offset = j - i;
        if offset == 0 || offset > MopPointer::MAX_OFFSET as usize || offset >= self.config.scope {
            return None;
        }
        let mut taken_direct = 0;
        for (inst, _, _) in &self.window[i..j] {
            match inst.ctrl_out {
                CtrlOut::FallThrough => {}
                CtrlOut::TakenDirect => taken_direct += 1,
                CtrlOut::TakenIndirect => return None,
            }
        }
        (taken_direct <= 1).then_some(taken_direct == 1)
    }
}

/// A random detection-view instruction over a few registers and a few
/// dozen static indices, so dependences, repeated heads and blacklist
/// hits are all common. Register 0 never appears; either source slot may
/// be empty, and both may name the same register.
fn random_inst(rng: &mut SmallRng) -> DetectInst {
    let reg = |rng: &mut SmallRng| Reg::int(rng.random_range(1u8..7));
    let sidx = rng.random_range(0u32..40);
    let is_candidate = rng.random_range(0..4) != 0;
    let dst = (rng.random_range(0..5) != 0).then(|| reg(rng));
    let src = |rng: &mut SmallRng| (rng.random_range(0..3) != 0).then(|| reg(rng));
    let srcs = [src(rng), src(rng)];
    let ctrl_out = match rng.random_range(0..16) {
        0..=11 => CtrlOut::FallThrough,
        12..=14 => CtrlOut::TakenDirect,
        _ => CtrlOut::TakenIndirect,
    };
    DetectInst {
        sidx,
        line_addr: 0x40 * u64::from(sidx / 8),
        is_candidate,
        is_valuegen: is_candidate && dst.is_some(),
        dst,
        srcs,
        ctrl_out,
    }
}

/// `MopDetector` and the reference agree step by step on random streams
/// under every combination of cycle policy, independent grouping, source
/// limit, scope, group width and MOP size, with random `has_pointer` and
/// blacklist answers and random window resets.
#[test]
fn detector_matches_the_reference_in_lockstep() {
    let mut configs = Vec::new();
    for cycle_detection in [CycleDetection::Heuristic, CycleDetection::Precise] {
        for group_independent in [true, false] {
            for max_srcs in [None, Some(2)] {
                for scope in [4, 8, 16] {
                    for group_width in [2, 4] {
                        for max_mop_size in [2, 3] {
                            let cfg = MopConfig {
                                cycle_detection,
                                group_independent,
                                scope,
                                max_mop_size,
                                ..MopConfig::default()
                            };
                            configs.push((cfg, max_srcs, group_width));
                        }
                    }
                }
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(0x5eed_de7e);
    let (mut pairs_seen, mut rejects_seen) = (0u64, 0u64);
    for (cfg, max_srcs, width) in configs {
        for _stream in 0..12 {
            let mut det = MopDetector::new(cfg.clone(), max_srcs, width);
            let mut reference = ReferenceDetector::new(cfg.clone(), max_srcs, width);
            for step in 0..60 {
                if rng.random_range(0..20) == 0 {
                    det.reset_window();
                    reference.window.clear();
                }
                let group: Vec<DetectInst> = (0..rng.random_range(0..=width + 1))
                    .map(|_| random_inst(&mut rng))
                    .collect();
                // Fresh answers each step: about one head in four holds a
                // pointer, about one pair in six is banned.
                let pointered: u64 = rng.random::<u64>() & rng.random::<u64>();
                let salt: u64 = rng.random();
                let has_pointer = |s: u32| pointered & (1 << (s % 64)) != 0;
                let banned = |h: u32, t: u32| {
                    (u64::from(h) * 31 + u64::from(t)).wrapping_mul(salt | 1) >> 61 == 0
                };
                let want = reference.step(&group, has_pointer, banned);
                let asked = std::cell::Cell::new(0);
                let counted = |s: u32| {
                    asked.set(asked.get() + 1);
                    has_pointer(s)
                };
                let got = det.step(&group, counted, banned);
                assert!(
                    asked.get() <= cfg.scope.max(width),
                    "has_pointer asked {} times of a window of at most {}",
                    asked.get(),
                    cfg.scope.max(width)
                );
                assert_eq!(
                    got,
                    &want[..],
                    "{cfg:?} max_srcs {max_srcs:?} width {width}, step {step}: pairs differ"
                );
                assert_eq!(
                    det.stats(),
                    reference.stats,
                    "{cfg:?} max_srcs {max_srcs:?} width {width}, step {step}: stats differ"
                );
            }
            let s = det.stats();
            pairs_seen += s.dependent_pairs + s.independent_pairs;
            rejects_seen += s.cycle_rejects + s.src_limit_rejects + s.flow_rejects;
        }
    }
    assert!(
        pairs_seen > 10_000 && rejects_seen > 1_000,
        "{pairs_seen} pairs, {rejects_seen} rejects"
    );
}
