//! Synthetic static-program generation and the stochastic walker.
//!
//! [`SyntheticProgram::generate`] expands a [`WorkloadSpec`] into real
//! static code: one large loop body whose instruction kinds follow the
//! spec's mix, with register dataflow wired *circularly* so that a
//! consumer at body position `i` reading distance `d` reaches the
//! producer `d` dynamic instructions earlier even across iterations;
//! skip-branch diamonds, leaf-function calls, an inner-loop back edge and
//! an outer jump complete the control structure. Because the body repeats,
//! PCs recur — branch predictors learn, I-cache lines persist, and MOP
//! pointers get the reuse Section 5.1.2 relies on.
//!
//! [`SyntheticProgram::walk`] yields the committed path: branch outcomes
//! come from per-slot models (loop trip counts, learnable patterns, or
//! data-dependent Bernoulli draws) and memory addresses from per-slot
//! stride/random generators over the spec's working set. The walk is
//! deterministic in the seed, so different scheduler configurations see
//! identical streams.

use std::sync::Arc;

use mos_isa::{DynInst, Opcode, Program, Reg, StaticInst, TraceSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec2000::WorkloadSpec;

/// Byte address where the synthetic data region starts.
const HEAP_BASE: u64 = 0x1000_0000;
/// Integer register pool used for rotating value producers.
const INT_POOL: std::ops::Range<u8> = 1..26;
/// FP register pool.
const FP_POOL: std::ops::Range<u8> = 1..26;
/// Register holding the data-region base (never reassigned).
const BASE_REG: u8 = 29;

#[derive(Debug, Clone)]
enum OutcomeModel {
    /// Inner-loop back edge: taken `trip - 1` out of every `trip`.
    Loop { trip: u32 },
    /// Strongly biased branch (error-check/guard style): almost always
    /// one direction — what dominates real integer code.
    Bias { taken: bool },
    /// Repeating pattern: taken once per `period` (a bimodal predictor
    /// mispredicts ~1/period of the time).
    Pattern { period: u32 },
    /// Data-dependent branch: taken with probability `p`.
    Random { p: f64 },
}

#[derive(Debug, Clone)]
enum AddrModel {
    /// Streaming: `base + (k * stride) % span` on the k-th execution.
    Stride { base: u64, stride: u64, span: u64 },
    /// Pointer-chase-like: uniform over `base..base + span`.
    Random { base: u64, span: u64 },
}

#[derive(Debug, Clone, Default)]
enum SlotModel {
    #[default]
    None,
    Branch(OutcomeModel),
    Mem(AddrModel),
}

/// A generated synthetic program: static code plus the per-instruction
/// behavioural models the walker consults.
#[derive(Debug, Clone)]
pub struct SyntheticProgram {
    program: Arc<Program>,
    models: Arc<Vec<SlotModel>>,
    body_top: u32,
}

impl SyntheticProgram {
    /// Generate the program for `spec`, deterministically from `seed`.
    pub fn generate(spec: &WorkloadSpec, seed: u64) -> SyntheticProgram {
        Generator::new(spec, seed).build()
    }

    /// The static code.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shared static-code allocation (lets callers check whether two
    /// programs came from the same cache entry).
    pub fn program_arc(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// Start a committed-path walk (deterministic in `seed`).
    pub fn walk(&self, seed: u64) -> SynthTrace {
        SynthTrace {
            program: Arc::clone(&self.program),
            models: Arc::clone(&self.models),
            rng: SmallRng::seed_from_u64(seed),
            pc: self.program.entry(),
            call_stack: Vec::new(),
            counters: vec![0; self.program.len()],
            body_top: self.body_top,
        }
    }
}

struct Generator<'a> {
    spec: &'a WorkloadSpec,
    rng: SmallRng,
    program: Program,
    models: Vec<SlotModel>,
    /// Positions (static indices) of integer value producers, in order.
    int_producers: Vec<u32>,
    /// The subset that are single-cycle ALU producers (chains through
    /// these are what pipelined scheduling loops hurt).
    alu_producers: Vec<u32>,
    /// Positions of FP value producers.
    fp_producers: Vec<u32>,
    /// Positions of loads (for pointer-chase chaining).
    loads: Vec<u32>,
    /// Rotation counters for leaf-function scratch registers (r27/r28,
    /// f26/f27), kept apart from the body pools.
    fn_int_ordinal: usize,
    fn_fp_ordinal: usize,
    mem_slots: u64,
    /// Body plan (phase A): destination register per body slot.
    plan_dst: Vec<Option<Reg>>,
    /// Body slots with an integer destination, ascending (calls excluded).
    plan_int_slots: Vec<usize>,
    /// The single-cycle ALU subset of `plan_int_slots`.
    plan_alu_slots: Vec<usize>,
    /// Body slots with an FP destination.
    plan_fp_slots: Vec<usize>,
    /// Rotation ordinal of each int-producing body slot.
    plan_int_ord: Vec<usize>,
    /// Rotation ordinal of each fp-producing body slot (aligned with
    /// `plan_fp_slots`).
    plan_fp_ord: Vec<usize>,
    /// Body slots holding loads (for pointer-chase wiring).
    plan_load_slots: Vec<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Alu,
    Load,
    Store,
    Branch,
    Mul,
    Div,
    Fp,
    Call,
}

impl<'a> Generator<'a> {
    fn new(spec: &'a WorkloadSpec, seed: u64) -> Generator<'a> {
        Generator {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_5eed),
            program: Program::new(spec.name),
            models: Vec::new(),
            int_producers: Vec::new(),
            alu_producers: Vec::new(),
            fp_producers: Vec::new(),
            loads: Vec::new(),
            fn_int_ordinal: 0,
            fn_fp_ordinal: 0,
            mem_slots: 0,
            plan_dst: Vec::new(),
            plan_int_slots: Vec::new(),
            plan_alu_slots: Vec::new(),
            plan_fp_slots: Vec::new(),
            plan_int_ord: Vec::new(),
            plan_fp_ord: Vec::new(),
            plan_load_slots: Vec::new(),
        }
    }

    /// Phase A: plan the loop body — sample every slot's kind and assign
    /// destination registers by rotation. With the whole body known,
    /// sources can be wired *circularly* (phase B), so a distance-`d` edge
    /// from an early slot reaches the previous iteration's late slots:
    /// this is what gives the workloads their loop-carried recurrences.
    fn plan_body(&mut self) -> Vec<Kind> {
        let b = self.spec.body_len;
        let mut kinds = Vec::with_capacity(b);
        self.plan_dst = vec![None; b];
        let int_pool: Vec<u8> = INT_POOL.collect();
        let fp_pool: Vec<u8> = FP_POOL.collect();
        let (mut int_ord, mut fp_ord) = (0usize, 0usize);
        for i in 0..b {
            let kind = self.sample_kind();
            kinds.push(kind);
            match kind {
                Kind::Alu | Kind::Load | Kind::Mul | Kind::Div => {
                    let r = Reg::int(int_pool[int_ord % int_pool.len()]);
                    self.plan_dst[i] = Some(r);
                    self.plan_int_slots.push(i);
                    self.plan_int_ord.push(int_ord);
                    if kind == Kind::Alu {
                        self.plan_alu_slots.push(i);
                    }
                    if kind == Kind::Load {
                        self.plan_load_slots.push(i);
                    }
                    int_ord += 1;
                }
                Kind::Fp => {
                    let r = Reg::fp(fp_pool[fp_ord % fp_pool.len()]);
                    self.plan_dst[i] = Some(r);
                    self.plan_fp_slots.push(i);
                    self.plan_fp_ord.push(fp_ord);
                    fp_ord += 1;
                }
                Kind::Store | Kind::Branch | Kind::Call => {}
            }
        }
        kinds
    }

    /// Phase-B circular source lookup: the producer whose backward
    /// dynamic distance from body slot `i` is nearest to (and at least)
    /// `d`, wrapping into the previous iteration, constrained to the
    /// register-rotation live window (24 producers).
    fn circ_int_source(&mut self, i: usize, d: u32, prefer_alu: bool) -> Reg {
        let b = self.spec.body_len;
        let list: &[usize] = if prefer_alu && !self.plan_alu_slots.is_empty() {
            &self.plan_alu_slots
        } else {
            &self.plan_int_slots
        };
        if list.is_empty() {
            return Reg::int(BASE_REG);
        }
        let p_int = self.plan_int_slots.len();
        let d = (d as usize).clamp(1, b.saturating_sub(1));
        // Consumer's position in int-producer ordinal space.
        let cons_ord = self.plan_int_slots.partition_point(|&s| s < i);
        let ord_of = |slot: usize| -> usize {
            let k = self
                .plan_int_slots
                .binary_search(&slot)
                .expect("int slot present");
            self.plan_int_ord[k]
        };
        let mut best: Option<(usize, usize)> = None; // (slot_dist, slot)
        let mut fallback: Option<(usize, usize)> = None;
        for &j in list {
            let slot_dist = (i + b - j - 1) % b + 1; // 1..=b, circular
            let ord = ord_of(j);
            let ord_dist = if j < i {
                cons_ord - ord
            } else {
                cons_ord + p_int - ord
            };
            if ord_dist == 0 || ord_dist > 24 {
                continue; // register overwritten before the consumer reads
            }
            if slot_dist >= d {
                if best.is_none_or(|(bd, _)| slot_dist < bd) {
                    best = Some((slot_dist, j));
                }
            } else if fallback.is_none_or(|(fd, _)| slot_dist > fd) {
                fallback = Some((slot_dist, j));
            }
        }
        match best.or(fallback) {
            Some((_, j)) => self.plan_dst[j].expect("producer has a dst"),
            None => Reg::int(BASE_REG),
        }
    }

    /// Circular FP source (same scheme over the FP rotation). Unlike the
    /// integer side, cross-iteration FP edges are mostly broken — real FP
    /// loop bodies rarely carry recurrences — by reading a loop-invariant
    /// input register instead.
    fn circ_fp_source(&mut self, i: usize, d: u32) -> Reg {
        let b = self.spec.body_len;
        if self.plan_fp_slots.is_empty() {
            return Reg::fp(1);
        }
        let p_fp = self.plan_fp_slots.len();
        let d = (d as usize).clamp(1, b.saturating_sub(1));
        let cons_ord = self.plan_fp_slots.partition_point(|&s| s < i);
        let mut best: Option<(usize, usize)> = None;
        let mut fallback: Option<(usize, usize)> = None;
        for (k, &j) in self.plan_fp_slots.iter().enumerate() {
            let slot_dist = (i + b - j - 1) % b + 1;
            let ord = self.plan_fp_ord[k];
            let ord_dist = if j < i {
                cons_ord - ord
            } else {
                cons_ord + p_fp - ord
            };
            if ord_dist == 0 || ord_dist > 24 {
                continue;
            }
            if slot_dist >= d {
                if best.is_none_or(|(bd, _)| slot_dist < bd) {
                    best = Some((slot_dist, j));
                }
            } else if fallback.is_none_or(|(fd, _)| slot_dist > fd) {
                fallback = Some((slot_dist, j));
            }
        }
        match best.or(fallback) {
            // Cross-iteration FP edges are mostly replaced by a
            // loop-invariant input register: the recurrence that remains
            // is the integer side's, as in real FP loop bodies.
            Some((_, j)) if j >= i && self.rng.random::<f64>() < 0.9 => Reg::fp(28),
            Some((_, j)) => self.plan_dst[j].expect("fp producer has a dst"),
            None => Reg::fp(1),
        }
    }

    fn sample_kind(&mut self) -> Kind {
        let m = &self.spec.mix;
        let x: f64 = self.rng.random();
        let mut acc = m.load;
        if x < acc {
            return Kind::Load;
        }
        acc += m.store;
        if x < acc {
            return Kind::Store;
        }
        acc += m.branch;
        if x < acc {
            return Kind::Branch;
        }
        acc += m.mul;
        if x < acc {
            return Kind::Mul;
        }
        acc += m.div;
        if x < acc {
            return Kind::Div;
        }
        acc += m.fp;
        if x < acc {
            return Kind::Fp;
        }
        acc += m.call;
        if x < acc {
            return Kind::Call;
        }
        Kind::Alu
    }

    /// Sample a consumer->producer distance in instructions.
    fn sample_distance(&mut self) -> u32 {
        let d = &self.spec.distance;
        if self.rng.random::<f64>() < d.short_frac {
            // Geometric with success probability geo_p, support 1..
            let mut n = 1;
            while self.rng.random::<f64>() > d.geo_p && n < 7 {
                n += 1;
            }
            n
        } else {
            self.rng.random_range(8..=d.long_max.max(9))
        }
    }

    /// Find the integer producer nearest to `distance` instructions before
    /// the next slot to be emitted, staying within the live rotation
    /// window. With `prefer_alu`, search among single-cycle ALU producers
    /// so chains run through the operations a pipelined scheduling loop
    /// penalizes (as real integer code's address/index arithmetic does).
    /// Returns the producer's destination register.
    fn int_source_at(&mut self, distance: u32, prefer_alu: bool) -> Reg {
        if self.int_producers.is_empty() {
            return Reg::int(BASE_REG);
        }
        let here = self.program.len() as i64;
        // Registers rotate over all int producers: anything more than 24
        // producers back has been overwritten.
        let live_floor_slot = {
            let lf = self.int_producers.len().saturating_sub(24);
            self.int_producers[lf]
        };
        let list: &[u32] = if prefer_alu && !self.alu_producers.is_empty() {
            &self.alu_producers
        } else {
            &self.int_producers
        };
        let target = here - i64::from(distance);
        let pos = match list.binary_search_by(|p| (i64::from(*p)).cmp(&target)) {
            Ok(k) => k,
            Err(0) => 0,
            Err(k) => k - 1,
        };
        let mut slot = list[pos];
        if slot < live_floor_slot {
            // Overwritten: take the oldest live producer from this list,
            // or the newest overall as a last resort.
            slot = match list.binary_search(&live_floor_slot) {
                Ok(k) => list[k],
                Err(k) if k < list.len() => list[k],
                Err(_) => *self.int_producers.last().expect("non-empty"),
            };
        }
        self.program
            .inst(slot)
            .and_then(|i| i.dst())
            .unwrap_or(Reg::int(BASE_REG))
    }

    fn push(&mut self, inst: StaticInst, model: SlotModel) -> u32 {
        let idx = self.program.push(inst);
        self.models.push(model);
        debug_assert_eq!(self.models.len(), self.program.len());
        if let Some(d) = inst.dst() {
            if d.is_int() {
                self.int_producers.push(idx);
                if inst.class() == mos_isa::InstClass::IntAlu {
                    self.alu_producers.push(idx);
                }
            } else {
                self.fp_producers.push(idx);
            }
        }
        idx
    }

    fn fresh_addr_model(&mut self) -> AddrModel {
        self.mem_slots += 1;
        let full = self.spec.working_set.max(8192);
        // Most slots work one of a few *shared* hot regions (stack frames,
        // hot structures) whose combined footprint fits the DL1; the rest
        // roam the full working set. This is what keeps real programs'
        // DL1 miss rates in single digits.
        let hot = self.rng.random::<f64>() < self.spec.hot_frac;
        let (base, span) = if hot {
            let region = self.rng.random_range(0..3u64);
            (HEAP_BASE + region * 4096, 4096)
        } else {
            // Offset cold streams so slots don't collide on the same lines.
            (HEAP_BASE + 16384 + (self.mem_slots * 8192) % full, full)
        };
        if self.rng.random::<f64>() < self.spec.stride_frac {
            // Unit-stride streaming: one miss per 64B line (8 words).
            AddrModel::Stride {
                base,
                stride: 8,
                span,
            }
        } else {
            AddrModel::Random { base, span }
        }
    }

    /// Context-sensitive source selection: circular plan wiring inside the
    /// body (`ctx = Some(body slot)`), linear history elsewhere.
    fn src_int(&mut self, ctx: Option<usize>, d: u32, prefer_alu: bool) -> Reg {
        match ctx {
            Some(i) => self.circ_int_source(i, d, prefer_alu),
            // Leaf functions chain through their own scratch registers so
            // calls never clobber the body's loop-carried recurrences.
            None => {
                if self.fn_int_ordinal == 0 {
                    Reg::int(BASE_REG)
                } else {
                    Reg::int(27 + ((self.fn_int_ordinal - 1) % 2) as u8)
                }
            }
        }
    }

    fn src_fp(&mut self, ctx: Option<usize>, d: u32) -> Reg {
        match ctx {
            Some(i) => self.circ_fp_source(i, d),
            None => {
                if self.fn_fp_ordinal == 0 {
                    Reg::fp(26)
                } else {
                    Reg::fp(26 + ((self.fn_fp_ordinal - 1) % 2) as u8)
                }
            }
        }
    }

    fn dst_int(&mut self, ctx: Option<usize>) -> Reg {
        match ctx {
            Some(i) => self.plan_dst[i].expect("planned int dst"),
            None => {
                self.fn_int_ordinal += 1;
                Reg::int(27 + ((self.fn_int_ordinal - 1) % 2) as u8)
            }
        }
    }

    /// Emit one instruction of the given kind; branch targets are clamped
    /// to `body_end_hint`. `ctx` is the body slot for circular wiring, or
    /// `None` inside leaf functions.
    fn emit_slot(&mut self, kind: Kind, body_end_hint: u32, ctx: Option<usize>) {
        match kind {
            Kind::Alu => {
                let d1 = self.sample_distance();
                // Induction variables, pointer arithmetic and flag
                // computations chain through other single-cycle ALU ops;
                // this is the recurrence a pipelined scheduling loop hurts.
                let pa = self.rng.random::<f64>() < self.spec.chain_purity;
                let s1 = self.src_int(ctx, d1, pa);
                let dst = self.dst_int(ctx);
                // A minority of ALU ops are two-source.
                if self.rng.random::<f64>() < 0.4 {
                    let d2 = self.sample_distance();
                    let pa2 = self.rng.random::<f64>() < self.spec.chain_purity * 0.85;
                    let s2 = self.src_int(ctx, d2, pa2);
                    let op = *[
                        Opcode::Add,
                        Opcode::Sub,
                        Opcode::And,
                        Opcode::Or,
                        Opcode::Xor,
                    ]
                    .get(self.rng.random_range(0..5usize))
                    .expect("in range");
                    self.push(StaticInst::alu(op, dst, s1, s2), SlotModel::None);
                } else {
                    let op = *[Opcode::Addi, Opcode::Subi, Opcode::Slli, Opcode::Andi]
                        .get(self.rng.random_range(0..4usize))
                        .expect("in range");
                    let imm = self.rng.random_range(1..64);
                    self.push(StaticInst::alui(op, dst, s1, imm), SlotModel::None);
                }
            }
            Kind::Load => {
                let chase = self.rng.random::<f64>() >= self.spec.stride_frac;
                let base = if chase {
                    // Pointer chase: feed from the nearest earlier load
                    // (circularly in the body), else a recent producer.
                    let near_load = ctx.and_then(|i| {
                        let b = self.spec.body_len;
                        self.plan_load_slots
                            .iter()
                            .filter(|&&j| j != i)
                            .map(|&j| ((i + b - j - 1) % b + 1, j))
                            .filter(|&(dist, _)| dist <= 16)
                            .min_by_key(|&(dist, _)| dist)
                            .map(|(_, j)| j)
                    });
                    match near_load {
                        Some(j) => self.plan_dst[j].expect("load has dst"),
                        None => {
                            let d = self.sample_distance();
                            self.src_int(ctx, d, false)
                        }
                    }
                } else {
                    Reg::int(BASE_REG)
                };
                let dst = self.dst_int(ctx);
                let model = self.fresh_addr_model();
                let imm = self.rng.random_range(0..256) & !7;
                let idx = self.push(StaticInst::load(dst, imm, base), SlotModel::Mem(model));
                self.loads.push(idx);
            }
            Kind::Store => {
                let dd = self.sample_distance().min(8);
                let data = self.src_int(ctx, dd, true);
                let base = if self.rng.random::<f64>() < 0.5 {
                    Reg::int(BASE_REG)
                } else {
                    let d = self.sample_distance();
                    self.src_int(ctx, d, true)
                };
                let model = self.fresh_addr_model();
                let imm = self.rng.random_range(0..256) & !7;
                self.push(StaticInst::store(data, imm, base), SlotModel::Mem(model));
            }
            Kind::Branch => {
                let d = self.sample_distance().min(8);
                let cond = self.src_int(ctx, d, true);
                let skip = self.rng.random_range(2..=4u32);
                let here = self.program.len() as u32;
                let target = (here + 1 + skip).min(body_end_hint);
                let op = if self.rng.random::<f64>() < 0.5 {
                    Opcode::Beqz
                } else {
                    Opcode::Bnez
                };
                let x: f64 = self.rng.random();
                let model = if x < self.spec.random_branch_frac {
                    OutcomeModel::Random {
                        p: self.spec.random_taken_prob,
                    }
                } else if x < self.spec.random_branch_frac + 0.25 {
                    // A quarter of branches follow longer loop-like
                    // patterns the predictor mostly learns.
                    OutcomeModel::Pattern {
                        period: self.rng.random_range(8..=40),
                    }
                } else {
                    // The rest are strongly biased guards, mostly
                    // falling through (so taken skips rarely cut the
                    // loop-carried chains).
                    OutcomeModel::Bias {
                        taken: self.rng.random::<f64>() < 0.08,
                    }
                };
                self.push(
                    StaticInst::branch(op, cond, target),
                    SlotModel::Branch(model),
                );
            }
            Kind::Mul | Kind::Div => {
                let d1 = self.sample_distance();
                let s1 = self.src_int(ctx, d1, false);
                let d2 = self.sample_distance();
                let s2 = self.src_int(ctx, d2, false);
                let dst = self.dst_int(ctx);
                let op = if kind == Kind::Mul {
                    Opcode::Mul
                } else {
                    Opcode::Div
                };
                self.push(StaticInst::alu(op, dst, s1, s2), SlotModel::None);
            }
            Kind::Fp => {
                let s1 = {
                    let d = self.sample_distance();
                    self.src_fp(ctx, d)
                };
                let s2 = {
                    let d = self.sample_distance();
                    self.src_fp(ctx, d)
                };
                let dst = match ctx {
                    Some(i) => self.plan_dst[i].expect("planned fp dst"),
                    None => {
                        self.fn_fp_ordinal += 1;
                        Reg::fp(26 + ((self.fn_fp_ordinal - 1) % 2) as u8)
                    }
                };
                let op = *[Opcode::Fadd, Opcode::Fsub, Opcode::Fmul, Opcode::Fadd]
                    .get(self.rng.random_range(0..4usize))
                    .expect("in range");
                self.push(StaticInst::alu(op, dst, s1, s2), SlotModel::None);
            }
            Kind::Call => {
                // Patched to a real function entry after functions exist.
                self.push(StaticInst::call(0), SlotModel::None);
            }
        }
    }

    fn build(mut self) -> SyntheticProgram {
        let spec = self.spec;
        // Prologue.
        self.push(
            StaticInst::li(Reg::int(BASE_REG), HEAP_BASE as i64),
            SlotModel::None,
        );
        let body_top = self.program.len() as u32;
        self.program.set_label("body", body_top);
        let body_end_hint = body_top + spec.body_len as u32;

        let kinds = self.plan_body();
        let mut call_sites = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            let before = self.program.len() as u32;
            self.emit_slot(kind, body_end_hint, Some(i));
            if self
                .program
                .inst(before)
                .is_some_and(|inst| inst.opcode() == Opcode::Call)
            {
                call_sites.push(before);
            }
        }
        // Back edge (inner loop) then outer jump.
        let cond = self.int_source_at(2, true);
        self.push(
            StaticInst::branch(Opcode::Bnez, cond, body_top),
            SlotModel::Branch(OutcomeModel::Loop {
                trip: spec.inner_trip.max(2),
            }),
        );
        self.push(StaticInst::jmp(body_top), SlotModel::None);
        self.push(StaticInst::halt(), SlotModel::None);

        // Leaf functions: bodies follow the same instruction mix (minus
        // control) so calls do not dilute the dynamic class composition.
        let mut fn_entries = Vec::new();
        for f in 0..3u32 {
            let entry = self.program.len() as u32;
            fn_entries.push(entry);
            let n = 3 + (f as usize) * 2;
            let fn_end = entry + n as u32;
            for _ in 0..n {
                let mut kind = self.sample_kind();
                if matches!(kind, Kind::Branch | Kind::Call) {
                    kind = Kind::Alu;
                }
                self.emit_slot(kind, fn_end, None);
            }
            self.push(StaticInst::ret(), SlotModel::None);
        }
        // Patch call targets round-robin.
        for (k, &site) in call_sites.iter().enumerate() {
            let target = fn_entries[k % fn_entries.len()];
            let patched = self
                .program
                .inst(site)
                .expect("call site exists")
                .with_target(target);
            *self.program.inst_mut(site).expect("call site exists") = patched;
        }
        // Clamp any branch targets that ran past the body into the back
        // edge (already ensured by body_end_hint, but validate).
        self.program.set_entry(0);
        self.program
            .validate()
            .expect("generated program must be structurally valid");

        SyntheticProgram {
            program: Arc::new(self.program),
            models: Arc::new(self.models),
            body_top,
        }
    }
}

/// A committed-path trace over a [`SyntheticProgram`]; deterministic in
/// its seed and cheap to clone (program shared, walk state copied).
#[derive(Debug, Clone)]
pub struct SynthTrace {
    program: Arc<Program>,
    models: Arc<Vec<SlotModel>>,
    rng: SmallRng,
    pc: u32,
    call_stack: Vec<u32>,
    counters: Vec<u64>,
    body_top: u32,
}

impl Iterator for SynthTrace {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        use mos_isa::InstClass::*;
        let sidx = self.pc;
        let inst = *self.program.inst(sidx)?;
        let mut taken = false;
        let mut eff_addr = None;
        let mut next = sidx + 1;
        match inst.class() {
            CondBranch => {
                let model = &self.models[sidx as usize];
                let c = self.counters[sidx as usize];
                self.counters[sidx as usize] += 1;
                taken = match model {
                    SlotModel::Branch(OutcomeModel::Loop { trip }) => {
                        !(c + 1).is_multiple_of(u64::from(*trip))
                    }
                    SlotModel::Branch(OutcomeModel::Bias { taken }) => *taken,
                    SlotModel::Branch(OutcomeModel::Pattern { period }) => {
                        c.is_multiple_of(u64::from(*period))
                    }
                    SlotModel::Branch(OutcomeModel::Random { p }) => self.rng.random::<f64>() < *p,
                    _ => false,
                };
                if taken {
                    next = inst.target().expect("branches have targets");
                }
            }
            Jump => {
                taken = true;
                next = inst.target().expect("jumps have targets");
            }
            Call => {
                taken = true;
                self.call_stack.push(sidx + 1);
                next = inst.target().expect("calls have targets");
            }
            Return | IndirectJump => {
                taken = true;
                next = self.call_stack.pop().unwrap_or(self.body_top);
            }
            Load | Store => {
                let model = &self.models[sidx as usize];
                let c = self.counters[sidx as usize];
                self.counters[sidx as usize] += 1;
                let addr = match model {
                    SlotModel::Mem(AddrModel::Stride { base, stride, span }) => {
                        base + (c * stride) % span
                    }
                    SlotModel::Mem(AddrModel::Random { base, span }) => {
                        base + (self.rng.random_range(0..span / 8)) * 8
                    }
                    _ => HEAP_BASE,
                };
                eff_addr = Some(addr);
            }
            Halt => return None,
            _ => {}
        }
        self.pc = next;
        Some(DynInst {
            sidx,
            next_sidx: next,
            taken,
            eff_addr,
        })
    }
}

impl TraceSource for SynthTrace {
    fn program(&self) -> &Program {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec2000;
    use std::collections::HashMap;

    fn take(name: &str, n: usize) -> (SynthTrace, Vec<DynInst>) {
        let spec = spec2000::by_name(name).unwrap();
        let mut t = spec.trace(42);
        let v: Vec<DynInst> = t.by_ref().take(n).collect();
        (t, v)
    }

    #[test]
    fn programs_validate_for_all_specs() {
        for s in spec2000::all() {
            let p = s.build(1);
            assert!(p.program().validate().is_ok(), "{}", s.name);
            assert!(p.program().len() > s.body_len, "{}", s.name);
        }
    }

    #[test]
    fn walk_is_deterministic_and_clone_independent() {
        let spec = spec2000::by_name("gzip").unwrap();
        let a: Vec<DynInst> = spec.trace(7).take(5_000).collect();
        let b: Vec<DynInst> = spec.trace(7).take(5_000).collect();
        assert_eq!(a, b);
        let mut t = spec.trace(7);
        let c = t.clone();
        let _ = t.by_ref().take(100).count();
        let d: Vec<DynInst> = c.take(5_000).collect();
        assert_eq!(a, d, "clones rewind to their capture point");
    }

    #[test]
    fn trace_is_effectively_endless() {
        let (_, v) = take("bzip", 100_000);
        assert_eq!(v.len(), 100_000);
    }

    #[test]
    fn next_sidx_chains_consistently() {
        let (_, v) = take("parser", 20_000);
        for w in v.windows(2) {
            assert_eq!(w[0].next_sidx, w[1].sidx);
        }
    }

    #[test]
    fn taken_flags_match_targets() {
        let spec = spec2000::by_name("crafty").unwrap();
        let mut t = spec.trace(3);
        let p = t.program().clone();
        for d in t.by_ref().take(20_000) {
            let inst = p.inst(d.sidx).unwrap();
            if d.taken {
                assert!(inst.is_control(), "only control can be taken: {inst}");
                if let Some(tg) = inst.target() {
                    assert_eq!(d.next_sidx, tg);
                }
            } else {
                assert_eq!(d.next_sidx, d.sidx + 1);
            }
        }
    }

    #[test]
    fn mix_fractions_roughly_match_spec() {
        for name in ["gzip", "mcf", "eon"] {
            let spec = spec2000::by_name(name).unwrap();
            let mut t = spec.trace(11);
            let p = t.program().clone();
            let mut counts: HashMap<&'static str, usize> = HashMap::new();
            let n = 50_000;
            for d in t.by_ref().take(n) {
                use mos_isa::InstClass::*;
                let k = match p.inst(d.sidx).unwrap().class() {
                    Load => "load",
                    Store => "store",
                    CondBranch => "branch",
                    FpAlu | FpMul | FpDiv => "fp",
                    IntAlu => "alu",
                    _ => "other",
                };
                *counts.entry(k).or_default() += 1;
            }
            let frac = |k: &str| *counts.get(k).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (frac("load") - spec.mix.load).abs() < 0.06,
                "{name} load {:.3} vs {:.3}",
                frac("load"),
                spec.mix.load
            );
            assert!(
                (frac("fp") - spec.mix.fp).abs() < 0.06,
                "{name} fp {:.3} vs {:.3}",
                frac("fp"),
                spec.mix.fp
            );
        }
    }

    #[test]
    fn memory_addresses_stay_in_working_set() {
        let spec = spec2000::by_name("mcf").unwrap();
        let mut t = spec.trace(5);
        for d in t.by_ref().take(30_000) {
            if let Some(a) = d.eff_addr {
                assert!(a >= HEAP_BASE);
                // Slot bases are spread over the working set and spans
                // extend past them.
                assert!(a < HEAP_BASE + 2 * spec.working_set + 8192 + 256);
            }
        }
    }

    #[test]
    fn gap_has_shorter_dataflow_than_vortex() {
        // Measure mean consumer->producer distance over the dynamic stream.
        let mean_dist = |name: &str| {
            let spec = spec2000::by_name(name).unwrap();
            let mut t = spec.trace(9);
            let p = t.program().clone();
            let mut last_writer: HashMap<mos_isa::Reg, usize> = HashMap::new();
            let mut sum = 0usize;
            let mut cnt = 0usize;
            for (k, d) in t.by_ref().take(40_000).enumerate() {
                let inst = p.inst(d.sidx).unwrap();
                for s in inst.src_regs() {
                    if s == Reg::int(BASE_REG) {
                        continue;
                    }
                    if let Some(&w) = last_writer.get(&s) {
                        sum += k - w;
                        cnt += 1;
                    }
                }
                if let Some(dst) = inst.dst() {
                    last_writer.insert(dst, k);
                }
            }
            sum as f64 / cnt as f64
        };
        let gap = mean_dist("gap");
        let vortex = mean_dist("vortex");
        assert!(
            gap + 2.0 < vortex,
            "gap ({gap:.2}) must be much shorter than vortex ({vortex:.2})"
        );
    }

    #[test]
    fn calls_and_returns_balance() {
        let (_, v) = take("perl", 50_000);
        let spec_prog = spec2000::by_name("perl").unwrap().build(42);
        let p = spec_prog.program();
        let mut depth: i64 = 0;
        for d in &v {
            match p.inst(d.sidx).unwrap().class() {
                mos_isa::InstClass::Call => depth += 1,
                mos_isa::InstClass::Return => depth -= 1,
                _ => {}
            }
            assert!((0..=2).contains(&depth), "leaf calls only");
        }
    }

    #[test]
    fn loop_back_edge_taken_rate_matches_trip() {
        let spec = spec2000::by_name("gzip").unwrap();
        let prog = spec.build(42);
        let p = prog.program().clone();
        let mut t = prog.walk(1);
        // Find the back edge: the conditional branch targeting `body`.
        let body = p.label("body").unwrap();
        let mut taken = 0usize;
        let mut total = 0usize;
        for d in t.by_ref().take(100_000) {
            let inst = p.inst(d.sidx).unwrap();
            if inst.is_cond_branch() && inst.target() == Some(body) {
                total += 1;
                taken += usize::from(d.taken);
            }
        }
        assert!(total > 100);
        let rate = taken as f64 / total as f64;
        let expect = (spec.inner_trip as f64 - 1.0) / spec.inner_trip as f64;
        assert!(
            (rate - expect).abs() < 0.05,
            "back-edge taken rate {rate:.3} vs expected {expect:.3}"
        );
    }
}
