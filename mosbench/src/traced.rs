//! The traced run: per-layer host cost from outside the simulator.
//!
//! Each job's committed stream is first recorded with
//! [`ReplayTrace::record`] and run through a plain [`Simulator`], whose
//! counters must equal the untraced path's exactly. The stream then drives
//! each layer's public API on its own (predictor, caches, detector, pointer
//! store, formation, issue queue), each layer fed from the previous one's
//! output, every batch of calls wrapped in a [`Span`]. Spans stay in memory
//! and are written as JSON when the run ends. Counts come from the jobs'
//! own `SimStats`.
//!
//! A drive is a defined workload for one layer, not a copy of the
//! simulator's pipeline loop: it sees only the committed path, cuts it into
//! fixed groups, and has no wrong-path work, fetch stalls or detection
//! delay. Its numbers say what a layer costs per call on this job's
//! stream; they are not subtracted from simulator time.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use mos_core::detect::{DetectInst, MopDetector};
use mos_core::form::{FormedItem, Former, RenamedInst};
use mos_core::pointer::{MopPointer, MopPointerStore};
use mos_core::queue::{EntryId, IssueQueue, Issued};
use mos_core::{SchedConfig, SlotCause, Tag, UopId};
use mos_isa::{DynInst, InstClass, Program, ReplayTrace, StaticInst, TraceSource};
use mos_ledger::json::Value;
use mos_rv::RvTraceSource;
use mos_sim::{MachineConfig, OracleMode, SharedRing, SimStats, Simulator};
use mos_uarch::branch::{Btb, CombinedPredictor, ReturnAddressStack};
use mos_uarch::cache::MemoryHierarchy;
use mos_workload::spec2000;

use crate::digest;
use crate::measure::{median, percentile, select, Checks, Metric, Outcome, Settings};
use crate::workload::{build_jobs, Job, Source, Workload, PROGRAM_SEED};

/// Every per-layer metric a traced run reports, with its unit, in print
/// order.
pub const LAYER_METRICS: [(&str, &str); 48] = [
    ("workload.build_ms", "ms"),
    ("workload.walk_ns_per_inst", "ns"),
    ("rv.assemble_us", "us"),
    ("rv.lower_us", "us"),
    ("rv.interp_ns_per_inst", "ns"),
    ("rv.oracle_ms_per_job", "ms"),
    ("uarch.predict_ns", "ns"),
    ("uarch.il1_access_ns", "ns"),
    ("uarch.dl1_access_ns", "ns"),
    ("uarch.mispredict_rate", "ratio"),
    ("uarch.dl1_miss_rate", "ratio"),
    ("uarch.l2_miss_rate", "ratio"),
    ("core.detect_ns_per_group", "ns"),
    ("core.form_ns_per_inst", "ns"),
    ("core.pointer_ns_per_fetch", "ns"),
    ("core.detect.pairs_per_kinst", "count/kinst"),
    ("core.form.fuse_success", "ratio"),
    ("core.pointer.hit_rate", "ratio"),
    ("core.mop.grouped_frac", "ratio"),
    ("core.queue.insert_ns", "ns"),
    ("core.queue.cycle_ns", "ns"),
    ("core.queue.load_resolve_ns", "ns"),
    ("core.queue.cycle_ns.c32.f25", "ns"),
    ("core.queue.cycle_ns.c32.f50", "ns"),
    ("core.queue.cycle_ns.c32.f90", "ns"),
    ("core.queue.cycle_ns.c128.f25", "ns"),
    ("core.queue.cycle_ns.c128.f50", "ns"),
    ("core.queue.cycle_ns.c128.f90", "ns"),
    ("core.queue.cycle_ns.c512.f25", "ns"),
    ("core.queue.cycle_ns.c512.f50", "ns"),
    ("core.queue.cycle_ns.c512.f90", "ns"),
    ("core.queue.mean_occupancy", "entries"),
    ("core.queue.replays_per_kinst", "count/kinst"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.job_ns_per_inst.p50", "ns"),
    ("sim.job_ns_per_inst.p90", "ns"),
    ("sim.job_ns_per_inst.n", "count"),
    ("sim.ipc", "inst/cycle"),
    ("sim.wrong_path_fetch_frac", "ratio"),
    ("sim.slots.load_miss_share", "ratio"),
    ("sim.slots.drained_share", "ratio"),
    ("obs.metrics_pct", "%"),
    ("obs.slot_accounting_pct", "%"),
    ("obs.ring_trace_pct", "%"),
    ("obs.oracle_pct", "%"),
    ("obs.timeline_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Queue capacities and fill levels (percent) of the queue ladder.
const LADDER_CAPACITIES: [usize; 3] = [32, 128, 512];
const LADDER_FILLS: [usize; 3] = [25, 50, 90];
/// Timed cycles per ladder rung.
const LADDER_CYCLES: u64 = 4_000;
/// Best-of count of each observer probe and ladder rung.
const PROBE_REPS: usize = 9;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, in ns since the run began.
    pub start_ns: u64,
    /// End, in ns since the run began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the job the span belongs to.
    pub job: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    jobs: Vec<String>,
    workload: &'static str,
    seed: u64,
}

impl Spans {
    fn new(w: Workload, seed: u64) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            jobs: Vec::new(),
            workload: w.name(),
            seed,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    fn enter(&mut self, name: &'static str, job: Option<usize>) {
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.iter().rev().nth(1).copied(),
            job,
        });
    }

    /// Close the innermost span; returns its duration in ns.
    fn exit(&mut self) -> u64 {
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.spans[id].ns()
    }

    /// Time `f` as one span; returns its result and duration in ns.
    fn time<R>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        self.enter(name, job);
        let r = f();
        (r, self.exit())
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the children's) and count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.ns().saturating_sub(*c);
            e.1 += 1;
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> Value {
        let num = |n: u64| Value::Num(n as f64);
        let opt = |o: Option<usize>| o.map_or(Value::Null, |i| num(i as u64));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    ("parent".into(), opt(s.parent)),
                    ("job".into(), opt(s.job)),
                ])
            })
            .collect();
        let jobs = self.jobs.iter().map(|j| Value::Str(j.clone())).collect();
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), num(self.seed)),
            ("jobs".into(), Value::Arr(jobs)),
            ("spans".into(), Value::Arr(spans)),
        ])
    }
}

/// Where a traced run of `w` at `seed` writes its spans.
pub fn spans_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-s{seed}.json", w.name()))
}

/// Cost of one `Instant::now()` in ns (median of back-to-back pairs). Each
/// phase interval timed inside the queue drive carries about one such call.
fn timer_cost_ns() -> f64 {
    let pairs: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&pairs)
}

/// A job's committed stream, cut into groups of up to the fetch width
/// that end after each taken transfer. The groups are the drives' unit of
/// work; they are not the simulator's fetch groups.
struct Stream<'a> {
    program: &'a Program,
    insts: &'a [DynInst],
    groups: Vec<Range<usize>>,
}

impl<'a> Stream<'a> {
    fn new(rt: &'a ReplayTrace, width: usize) -> Stream<'a> {
        let insts = rt.events();
        let mut groups = Vec::new();
        let mut start = 0;
        for (i, d) in insts.iter().enumerate() {
            let end = i + 1;
            if d.taken || end - start == width || end == insts.len() {
                groups.push(start..end);
                start = end;
            }
        }
        Stream {
            program: rt.program(),
            insts,
            groups,
        }
    }

    fn inst(&self, d: &DynInst) -> StaticInst {
        *self
            .program
            .inst(d.sidx)
            .expect("recorded sidx is in the program")
    }

    /// Decoded uops (no-ops and halts are filtered before rename).
    fn is_uop(&self, d: &DynInst) -> bool {
        !matches!(self.inst(d).class(), InstClass::Nop | InstClass::Halt)
    }

    /// Each group's uops as the detector sees them.
    fn detect_groups(&self) -> Vec<Vec<DetectInst>> {
        self.groups
            .iter()
            .map(|g| {
                self.insts[g.clone()]
                    .iter()
                    .filter(|d| self.is_uop(d))
                    .map(|d| DetectInst::from_dyn(self.program, d))
                    .collect::<Vec<_>>()
            })
            .filter(|g| !g.is_empty())
            .collect()
    }

    /// The uops in rename order, one list per group, each carrying the
    /// pointer fetched with its instruction (`pointers` is indexed like
    /// the stream, and empty when the job forms no macro-ops).
    fn rename(&self, pointers: &[Option<MopPointer>]) -> Vec<Vec<RenamedInst>> {
        let mut next_id = 0;
        let mut out = Vec::with_capacity(self.groups.len());
        for (g, range) in self.groups.iter().enumerate() {
            let mut group = Vec::new();
            for k in range.clone() {
                let d = &self.insts[k];
                if !self.is_uop(d) {
                    continue;
                }
                let inst = self.inst(d);
                group.push(RenamedInst {
                    id: UopId(next_id),
                    sidx: d.sidx,
                    class: inst.class(),
                    dst: inst.dst(),
                    srcs: inst.src_regs().collect(),
                    taken: d.taken,
                    taken_indirect: matches!(
                        inst.class(),
                        InstClass::IndirectJump | InstClass::Return
                    ),
                    pointer: pointers.get(k).copied().flatten(),
                    is_candidate: inst.is_mop_candidate(),
                    is_valuegen: inst.is_value_generating_candidate(),
                    fetched_at: g as u64,
                    wrong_path: false,
                });
                next_id += 1;
            }
            out.push(group);
        }
        out
    }

    /// Per uop id: a load's hierarchy latency, taken from `latency` once
    /// per load in stream order; `None` for other uops.
    fn load_latencies(&self, mut latency: impl FnMut() -> u32) -> Vec<Option<u32>> {
        self.insts
            .iter()
            .filter(|d| self.is_uop(d))
            .map(|d| match (self.inst(d).class(), d.eff_addr) {
                (InstClass::Load, Some(_)) => Some(latency()),
                _ => None,
            })
            .collect()
    }
}

/// Detection over every group against a pointer store that installs each
/// pair it finds at once (the group index serves as the clock); returns
/// the filled store.
fn drive_detect(groups: &[Vec<DetectInst>], cfg: &MachineConfig) -> MopPointerStore {
    let mut det = MopDetector::new(
        cfg.sched.mop.clone(),
        cfg.sched.max_entry_sources(),
        cfg.fetch_width,
    );
    let mut store = MopPointerStore::new();
    for (g, group) in groups.iter().enumerate() {
        let now = g as u64;
        let pairs = det.step(
            group,
            |s| store.has_pointer(s),
            |h, t| store.is_blacklisted(h, t),
        );
        for p in pairs {
            store.schedule_install(p.head_sidx, p.pointer, p.head_line, now);
        }
        store.tick(now);
    }
    store
}

/// One pointer lookup per committed instruction; returns the answers.
fn drive_pointers(s: &Stream<'_>, store: &MopPointerStore) -> Vec<Option<MopPointer>> {
    s.insts.iter().map(|d| store.lookup(d.sidx)).collect()
}

fn drive_form(renamed: &[Vec<RenamedInst>], cfg: &MachineConfig) -> Vec<Vec<FormedItem>> {
    let mut former = Former::new(cfg.mops_enabled(), cfg.sched.mop.max_mop_size);
    let mut out = Vec::with_capacity(renamed.len());
    for group in renamed {
        let mut items = Vec::new();
        former.begin_group();
        for r in group {
            items.extend(former.feed(r));
            if matches!(
                r.class,
                InstClass::CondBranch | InstClass::IndirectJump | InstClass::Return
            ) {
                black_box(former.checkpoint());
            }
        }
        items.extend(former.end_group());
        out.push(items);
    }
    out
}

/// Predictor, BTB and RAS work per control instruction; returns the count.
fn drive_predict(s: &Stream<'_>, cfg: &MachineConfig) -> u64 {
    let mut pred = CombinedPredictor::new(&cfg.branch);
    let mut btb = Btb::new(cfg.branch.btb_entries, cfg.branch.btb_ways);
    let mut ras = ReturnAddressStack::new(cfg.branch.ras_depth);
    let mut n = 0;
    for d in s.insts {
        let pc = s.program.pc_of(d.sidx);
        match s.inst(d).class() {
            InstClass::CondBranch => {
                let (_, cp) = pred.predict(pc);
                pred.update(pc, d.taken, cp);
            }
            InstClass::Call => ras.push(s.program.pc_of(d.sidx + 1)),
            InstClass::Return => {
                black_box(ras.pop());
            }
            InstClass::IndirectJump => {
                black_box(btb.lookup(pc));
                btb.update(pc, s.program.pc_of(d.next_sidx));
            }
            _ => continue,
        }
        n += 1;
    }
    n
}

/// One I-cache access per group; returns the access count.
fn drive_il1(s: &Stream<'_>) -> u64 {
    let mut h = MemoryHierarchy::inst_side();
    for g in &s.groups {
        black_box(h.access(s.program.pc_of(s.insts[g.start].sidx)));
    }
    s.groups.len() as u64
}

/// One data-side access per load; returns each access's latency.
fn drive_dl1(s: &Stream<'_>) -> Vec<u32> {
    let mut h = MemoryHierarchy::data_side();
    s.insts
        .iter()
        .filter_map(|d| match (s.inst(d).class(), d.eff_addr) {
            (InstClass::Load, Some(a)) => Some(h.access(a).latency),
            _ => None,
        })
        .collect()
}

/// How one queue drive went.
#[derive(Debug, Default, Clone, Copy)]
struct QueueRun {
    cycles: u64,
    inserted: u64,
    resolves: u64,
    /// Phase sums with the timer's own cost removed (zero when untimed).
    insert_ns: f64,
    cycle_ns: f64,
    resolve_ns: f64,
    /// The drive reached the end of its stream (or its cycle count).
    drained: bool,
}

/// What a queue drive feeds and how fast.
struct QueueDrive<'a> {
    sched: SchedConfig,
    groups: &'a [Vec<FormedItem>],
    load_latency: &'a [Option<u32>],
    /// Insertion stops while occupancy is at or above this.
    target: usize,
    /// Groups inserted per cycle, at most.
    groups_per_cycle: usize,
    /// Cycles from issue to a load's hit/miss discovery.
    discover: u64,
    hit_latency: u32,
    /// Time each phase of each cycle (else only the caller's span).
    timed: bool,
    /// Stop after this many cycles once the queue has reached `target`
    /// (`None`: run the stream to the end).
    cycles: Option<u64>,
}

/// Drive an [`IssueQueue`]: insert formed groups while occupancy stays
/// under the target, cycle it, and report each issued load's outcome
/// `discover` cycles after issue (outcomes of issues a replay cancelled
/// are dropped).
fn drive_queue(d: &QueueDrive<'_>, timer_ns: f64) -> QueueRun {
    let mut q = IssueQueue::new(d.sched.clone());
    let mut out: Vec<Issued> = Vec::new();
    let mut replayed: Vec<UopId> = Vec::new();
    let mut heads: Vec<(u64, EntryId)> = Vec::new();
    let mut pending: VecDeque<(u64, UopId, u32, Tag, bool, u64)> = VecDeque::new();
    let mut gen = vec![0u32; d.load_latency.len()];
    let mut run = QueueRun::default();
    let (mut insert_ns, mut cycle_ns, mut resolve_ns) = (0u64, 0u64, 0u64);
    let mut intervals = 0u64;
    let mut g = 0;
    let mut now = 0u64;
    let mut counted_from: Option<u64> = None;
    let max_cycles = 400 * d.load_latency.len() as u64 + 10_000;
    loop {
        now += 1;
        let t0 = d.timed.then(Instant::now);
        while pending.front().is_some_and(|p| p.0 <= now) {
            let (_, id, issue_gen, tag, hit, ready) = pending.pop_front().expect("checked");
            if gen[id.0 as usize] != issue_gen {
                continue;
            }
            q.load_resolved_into(tag, hit, ready, &mut replayed);
            run.resolves += 1;
            for r in &replayed {
                if let Some(x) = gen.get_mut(r.0 as usize) {
                    *x += 1;
                }
            }
        }
        let t1 = d.timed.then(Instant::now);
        let mut inserted_groups = 0;
        while g < d.groups.len() && inserted_groups < d.groups_per_cycle {
            let n = d.groups[g].len();
            // The occupancy target yields to a pending MOP head, whose
            // tail arrives with the next group and which nothing else
            // can release.
            let capped = q.occupancy() + n > d.target && q.occupancy() > 0 && heads.is_empty();
            if q.free_entries() < n || capped {
                break;
            }
            run.inserted += apply(&mut q, &mut heads, &d.groups[g]);
            g += 1;
            inserted_groups += 1;
        }
        if g == d.groups.len() {
            // The recorded stream ends here: tails past its end never come.
            for (_, head) in heads.drain(..) {
                q.cancel_pending(head);
            }
        }
        let t2 = d.timed.then(Instant::now);
        q.cycle_into(now, &mut out);
        let t3 = d.timed.then(Instant::now);
        if let (Some(t0), Some(t1), Some(t2), Some(t3)) = (t0, t1, t2, t3) {
            resolve_ns += (t1 - t0).as_nanos() as u64;
            insert_ns += (t2 - t1).as_nanos() as u64;
            cycle_ns += (t3 - t2).as_nanos() as u64;
            intervals += 1;
        }
        for iss in &out {
            for (k, u) in iss.uops.iter().enumerate() {
                let (true, Some(tag)) = (u.is_load, u.dst) else {
                    continue;
                };
                let Some(lat) = d.load_latency.get(u.id.0 as usize).copied().flatten() else {
                    continue;
                };
                let issue = iss.issue_cycle + k as u64;
                let i = u.id.0 as usize;
                gen[i] += 1;
                let at = (issue + d.discover).max(now + 1);
                pending.push_back((
                    at,
                    u.id,
                    gen[i],
                    tag,
                    lat == d.hit_latency,
                    issue + 1 + u64::from(lat),
                ));
            }
        }
        if now.is_multiple_of(4096) {
            q.prune_tags(4096);
        }
        run.cycles += 1;
        if counted_from.is_none() && (q.occupancy() >= d.target || g == d.groups.len()) {
            counted_from = Some(run.cycles);
        }
        let stream_done = g == d.groups.len() && q.occupancy() == 0 && pending.is_empty();
        let enough = d
            .cycles
            .zip(counted_from)
            .is_some_and(|(c, from)| run.cycles - from >= c);
        if stream_done || enough || run.cycles >= max_cycles {
            run.drained = stream_done || enough;
            break;
        }
    }
    if d.timed {
        let fix = |ns: u64| (ns as f64 - intervals as f64 * timer_ns).max(0.0);
        run.insert_ns = fix(insert_ns);
        run.cycle_ns = fix(cycle_ns);
        run.resolve_ns = fix(resolve_ns);
    }
    run
}

/// Apply one group's formation decisions to the queue as each
/// [`FormedItem`] asks (a tail whose head is gone is inserted alone);
/// returns the uops inserted or fused.
fn apply(q: &mut IssueQueue, heads: &mut Vec<(u64, EntryId)>, items: &[FormedItem]) -> u64 {
    let mut n = 0;
    for item in items {
        match item {
            FormedItem::Single(u) => {
                q.insert(u.clone()).expect("space checked before the group");
                n += 1;
            }
            FormedItem::HeadPending { head, pair_id } => {
                let e = q
                    .insert_mop_head(head.clone())
                    .expect("space checked before the group");
                heads.push((*pair_id, e));
                n += 1;
            }
            FormedItem::TailFuse {
                tail,
                pair_id,
                chain_more,
            } => {
                n += 1;
                match heads.iter().position(|&(p, _)| p == *pair_id) {
                    Some(i) if q.fuse_tail(heads[i].1, tail.clone()).is_ok() => {
                        if *chain_more {
                            q.mark_pending(heads[i].1);
                        } else {
                            heads.swap_remove(i);
                        }
                    }
                    _ => {
                        q.insert(tail.clone())
                            .expect("space checked before the group");
                    }
                }
            }
            FormedItem::Cancel { pair_id } => {
                if let Some(i) = heads.iter().position(|&(p, _)| p == *pair_id) {
                    q.cancel_pending(heads.swap_remove(i).1);
                }
            }
        }
    }
    n
}

/// A job's committed stream and the source-side cost of producing it.
fn record(job: &Job) -> Result<ReplayTrace, String> {
    Ok(match &job.source {
        // The simulator runs ahead of commit by at most the window, so a
        // little slack past the budget keeps the recording from running dry.
        Source::Spec { .. } => {
            let limit = job.budget.saturating_add(4096);
            ReplayTrace::record(job.walk().expect("synthetic job"), limit as usize)
        }
        Source::Rv(rv) => {
            let src = RvTraceSource::new(rv).map_err(|e| format!("{}: {e}", job.label))?;
            ReplayTrace::record(src, usize::MAX)
        }
    })
}

/// Simulated-side counters summed over jobs.
#[derive(Debug, Default)]
struct Sums {
    committed: u64,
    cycles: u64,
    fetched: u64,
    wrong_path: u64,
    branches: u64,
    mispredicts: u64,
    dl1: (u64, u64),
    l2: (u64, u64),
    occupancy_integral: u64,
    queue_cycles: u64,
    replays: u64,
    load_miss_slots: u64,
    drained_slots: u64,
    slots: u64,
    // Over macro-op jobs only.
    mop_committed: u64,
    mop_fetched: u64,
    pairs: u64,
    fused: u64,
    cancelled: u64,
    pointer_hits: u64,
    grouped: u64,
}

impl Sums {
    fn add(&mut self, s: &SimStats, mops: bool) {
        self.committed += s.committed;
        self.cycles += s.cycles;
        self.fetched += s.fetched;
        self.wrong_path += s.wrong_path_fetched;
        self.branches += s.branches;
        self.mispredicts += s.mispredicts;
        self.dl1 = (self.dl1.0 + s.dl1.0, self.dl1.1 + s.dl1.1);
        self.l2 = (self.l2.0 + s.l2.0, self.l2.1 + s.l2.1);
        self.occupancy_integral += s.queue.occupancy_integral;
        self.queue_cycles += s.queue.cycles;
        self.replays += s.queue.load_replay_uops;
        self.load_miss_slots += s.slots.get(SlotCause::LoadMiss);
        self.drained_slots += s.slots.get(SlotCause::Drained);
        self.slots += s.slots.total();
        if mops {
            self.mop_committed += s.committed;
            self.mop_fetched += s.fetched;
            self.pairs += s.detect.dependent_pairs + s.detect.independent_pairs;
            self.fused += s.form.fused_pairs;
            self.cancelled += s.form.cancelled;
            self.pointer_hits += s.pointer_hits;
            self.grouped += (s.grouped_frac() * s.committed as f64).round() as u64;
        }
    }
}

/// Host ns spent on `n` units of work.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ns: f64,
    n: u64,
}

impl Tally {
    fn add(&mut self, ns: f64, n: u64) {
        self.ns += ns;
        self.n += n;
    }

    /// ns per unit (0 when no work was seen).
    fn per(self) -> f64 {
        ratio(self.ns, self.n as f64)
    }
}

/// Per-layer time and work summed over jobs.
#[derive(Debug, Default)]
struct Layers {
    walk: Tally,
    interp: Tally,
    /// Differential time beyond recording and plain simulation, per job.
    oracle: Tally,
    predict: Tally,
    il1: Tally,
    dl1: Tally,
    detect: Tally,
    form: Tally,
    pointer: Tally,
    queue_insert: Tally,
    queue_cycle: Tally,
    queue_resolve: Tally,
    queue_traced_ns: u64,
    queue_untraced_ns: u64,
    sim_ns: u64,
    job_ns_per_inst: Vec<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn same_result(label: &str, what: &str, a: &SimStats, b: &SimStats) -> Result<(), String> {
    let diffs = digest::differing(&digest::fields(a), &digest::fields(b));
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("{label}: {what} differ: {}", diffs.join(", ")))
    }
}

/// Run `w` traced: setup spans, then per job the stream recording, the
/// simulator over the recorded stream, the untraced path (checked against
/// it), and each layer's drive; then the queue ladder and the observer
/// probes.
///
/// # Errors
///
/// When set-up fails; failed checks are counted in the outcome instead.
pub fn run(w: Workload, seed: u64, settings: &Settings) -> Result<(Outcome, Spans), String> {
    let mut sp = Spans::new(w, seed);
    let mut checks = Checks::default();
    let timer_ns = timer_cost_ns();
    let pinned = digest::pinned_for(w, seed, settings)?;

    // Frontend set-up costs: every workload reports both frontends, each
    // measured on the inputs that frontend serves (the SPEC models, the RV
    // suite).
    let (build_ms, assemble_us, lower_us) = frontend_setup(&mut sp)?;

    let jobs = select(build_jobs(w, seed, settings.budget)?, settings.job_limit);
    sp.jobs = jobs.iter().map(|j| j.label.clone()).collect();

    let mut sums = Sums::default();
    let mut layers = Layers::default();
    let mut records = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        sp.enter("job", Some(i));
        if let Some(pass) = job_pass(&mut sp, &mut checks, &pinned, job, i) {
            let recorded = pass.stream.len() as u64;
            if matches!(job.source, Source::Rv(_)) {
                layers.interp.add(pass.record_ns as f64, recorded);
                let beyond = pass.untraced_ns as f64 - pass.sim_ns as f64 - pass.record_ns as f64;
                layers.oracle.add(beyond, 1);
            } else {
                layers.walk.add(pass.record_ns as f64, recorded);
            }
            sums.add(&pass.stats, job.mops());
            layers.sim_ns += pass.sim_ns;
            layers
                .job_ns_per_inst
                .push(ratio(pass.sim_ns as f64, pass.stats.committed as f64));
            checks.check(drive_layers(&mut sp, &mut layers, job, i, &pass, timer_ns));
            records.push((i, pass));
        }
        sp.exit();
    }

    // The other frontend, measured on its own inputs for context.
    if layers.walk.n == 0 {
        walk_context(&mut sp, &mut layers, seed, settings);
    }
    if layers.interp.n == 0 {
        rv_context(&mut sp, &mut checks, &mut layers, settings)?;
    }

    let ladder = queue_ladder(&mut sp, seed, timer_ns, settings);
    let obs = observer_probes(&mut sp, &mut checks, &jobs, &records);

    let ns_per_cycle = ratio(layers.sim_ns as f64, sums.cycles as f64);
    let mut m = BTreeMap::new();
    m.insert("workload.build_ms", build_ms);
    m.insert("workload.walk_ns_per_inst", layers.walk.per());
    m.insert("rv.assemble_us", assemble_us);
    m.insert("rv.lower_us", lower_us);
    m.insert("rv.interp_ns_per_inst", layers.interp.per());
    m.insert("rv.oracle_ms_per_job", layers.oracle.per() / 1e6);
    m.insert("uarch.predict_ns", layers.predict.per());
    m.insert("uarch.il1_access_ns", layers.il1.per());
    m.insert("uarch.dl1_access_ns", layers.dl1.per());
    m.insert(
        "uarch.mispredict_rate",
        ratio(sums.mispredicts as f64, sums.branches as f64),
    );
    m.insert(
        "uarch.dl1_miss_rate",
        ratio(sums.dl1.1 as f64, (sums.dl1.0 + sums.dl1.1) as f64),
    );
    m.insert(
        "uarch.l2_miss_rate",
        ratio(sums.l2.1 as f64, (sums.l2.0 + sums.l2.1) as f64),
    );
    m.insert("core.detect_ns_per_group", layers.detect.per());
    m.insert("core.form_ns_per_inst", layers.form.per());
    m.insert("core.pointer_ns_per_fetch", layers.pointer.per());
    m.insert(
        "core.detect.pairs_per_kinst",
        1e3 * ratio(sums.pairs as f64, sums.mop_committed as f64),
    );
    m.insert(
        "core.form.fuse_success",
        ratio(sums.fused as f64, (sums.fused + sums.cancelled) as f64),
    );
    m.insert(
        "core.pointer.hit_rate",
        ratio(sums.pointer_hits as f64, sums.mop_fetched as f64),
    );
    m.insert(
        "core.mop.grouped_frac",
        ratio(sums.grouped as f64, sums.mop_committed as f64),
    );
    m.insert("core.queue.insert_ns", layers.queue_insert.per());
    m.insert("core.queue.cycle_ns", layers.queue_cycle.per());
    m.insert("core.queue.load_resolve_ns", layers.queue_resolve.per());
    for (name, v) in &ladder {
        m.insert(name, *v);
    }
    m.insert(
        "core.queue.mean_occupancy",
        ratio(sums.occupancy_integral as f64, sums.queue_cycles as f64),
    );
    m.insert(
        "core.queue.replays_per_kinst",
        1e3 * ratio(sums.replays as f64, sums.committed as f64),
    );
    m.insert("sim.ns_per_cycle", ns_per_cycle);
    m.insert("sim.cycles_per_s", ratio(1e9, ns_per_cycle));
    let samples = &layers.job_ns_per_inst;
    let pct = |p| {
        if samples.is_empty() {
            0.0
        } else {
            percentile(samples, p)
        }
    };
    m.insert("sim.job_ns_per_inst.p50", pct(50.0));
    m.insert("sim.job_ns_per_inst.p90", pct(90.0));
    m.insert("sim.job_ns_per_inst.n", samples.len() as f64);
    m.insert("sim.ipc", ratio(sums.committed as f64, sums.cycles as f64));
    m.insert(
        "sim.wrong_path_fetch_frac",
        ratio(sums.wrong_path as f64, sums.fetched as f64),
    );
    m.insert(
        "sim.slots.load_miss_share",
        ratio(sums.load_miss_slots as f64, sums.slots as f64),
    );
    m.insert(
        "sim.slots.drained_share",
        ratio(sums.drained_slots as f64, sums.slots as f64),
    );
    for (name, v) in obs {
        m.insert(name, v);
    }
    m.insert(
        "trace.overhead_pct",
        100.0
            * ratio(
                layers.queue_traced_ns as f64 - layers.queue_untraced_ns as f64,
                layers.queue_untraced_ns as f64,
            ),
    );

    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    let mut notes = vec![format!(
        "traced: {} jobs, timer cost {timer_ns:.0} ns per timestamp",
        jobs.len()
    )];
    let total: u64 = sp.self_times().values().map(|v| v.0).sum();
    for (name, (ns, n)) in sp.self_times() {
        notes.push(format!(
            "span {name:28} self {:10.2} ms {:5.1}% ({n} spans)",
            ns as f64 / 1e6,
            100.0 * ratio(ns as f64, total as f64)
        ));
    }
    let outcome = Outcome {
        workload: w,
        attempted: checks.attempted,
        failed: checks.failures.len() as u64,
        metrics,
        failures: checks.failures,
        results: records
            .iter()
            .map(|(i, p)| (jobs[*i].label.clone(), p.stats.clone()))
            .collect(),
        notes,
    };
    Ok((outcome, sp))
}

/// What the first part of a job's traced pass produced.
struct JobPass {
    stream: ReplayTrace,
    record_ns: u64,
    sim_ns: u64,
    /// The untraced path (the live walker with slot accounting, or
    /// `run_differential`), whose counters must equal the replayed run's.
    untraced_ns: u64,
    /// The untraced path's statistics (including slot counts).
    stats: SimStats,
    /// The plain run over the recorded stream.
    plain: SimStats,
}

fn job_pass(
    sp: &mut Spans,
    checks: &mut Checks,
    pinned: &[digest::Expected],
    job: &Job,
    i: usize,
) -> Option<JobPass> {
    let name = match job.source {
        Source::Spec { .. } => "workload.walk",
        Source::Rv(_) => "rv.interp",
    };
    let pass = (|| {
        let (stream, record_ns) = sp.time(name, Some(i), || record(job));
        let stream = stream?;
        let (plain, sim_ns) = sp.time("sim.run", Some(i), || {
            Simulator::new(job.cfg.clone(), stream.clone()).run(job.budget)
        });
        let (untraced, untraced_ns) = match job.source {
            Source::Spec { .. } => sp.time("sim.untraced", Some(i), || {
                let mut sim = Simulator::new(job.cfg.clone(), job.walk().expect("synthetic job"));
                sim.enable_slot_accounting();
                Ok(sim.run(job.budget))
            }),
            Source::Rv(_) => sp.time("rv.differential", Some(i), || job.run()),
        };
        let stats = untraced?;
        same_result(&job.label, "replayed and untraced results", &plain, &stats)?;
        digest::check_pinned(pinned, &job.label, &stats)?;
        Ok(JobPass {
            stream,
            record_ns,
            sim_ns,
            untraced_ns,
            stats,
            plain,
        })
    })();
    checks.check(pass)
}

/// Drive each layer with one job's stream, each in its own span, every
/// layer fed from the one before: detection fills the pointer store, the
/// lookups give formation its pointers, and the queue takes the formed
/// groups, with load latencies from the D-side drive, held at the job's
/// own mean occupancy.
///
/// # Errors
///
/// When the queue drive stalls before its stream drains.
fn drive_layers(
    sp: &mut Spans,
    l: &mut Layers,
    job: &Job,
    i: usize,
    pass: &JobPass,
    timer_ns: f64,
) -> Result<(), String> {
    let cfg = &job.cfg;
    let stream = Stream::new(&pass.stream, cfg.fetch_width);

    let (n, ns) = sp.time("uarch.predict", Some(i), || drive_predict(&stream, cfg));
    l.predict.add(ns as f64, n);
    let (n, ns) = sp.time("uarch.il1", Some(i), || drive_il1(&stream));
    l.il1.add(ns as f64, n);
    let (latencies, ns) = sp.time("uarch.dl1", Some(i), || drive_dl1(&stream));
    l.dl1.add(ns as f64, latencies.len() as u64);

    let pointers = if job.mops() {
        let groups = stream.detect_groups();
        let (store, ns) = sp.time("core.detect", Some(i), || drive_detect(&groups, cfg));
        l.detect.add(ns as f64, groups.len() as u64);
        let (pointers, ns) = sp.time("core.pointer", Some(i), || drive_pointers(&stream, &store));
        l.pointer.add(ns as f64, pointers.len() as u64);
        pointers
    } else {
        Vec::new()
    };
    let renamed = stream.rename(&pointers);
    let (formed, ns) = sp.time("core.form", Some(i), || drive_form(&renamed, cfg));
    l.form.add(
        ns as f64,
        renamed.iter().map(Vec::len).sum::<usize>() as u64,
    );

    let mut dl1 = latencies.into_iter();
    let load_latency = stream.load_latencies(|| dl1.next().expect("one latency per load"));
    let drive = QueueDrive {
        sched: cfg.sched.clone(),
        groups: &formed,
        load_latency: &load_latency,
        target: (pass.stats.queue.mean_occupancy().ceil() as usize).max(cfg.fetch_width),
        groups_per_cycle: 1,
        discover: u64::from(cfg.exec_offset + cfg.dl1.hit_latency),
        hit_latency: cfg.dl1.hit_latency,
        timed: true,
        cycles: None,
    };
    let (q, traced_ns) = sp.time("core.queue", Some(i), || drive_queue(&drive, timer_ns));
    let untimed = QueueDrive {
        timed: false,
        ..drive
    };
    let (_, untraced_ns) = sp.time("core.queue.untraced", Some(i), || {
        drive_queue(&untimed, timer_ns)
    });
    if !q.drained {
        return Err(format!(
            "{}: queue drive stalled after {} cycles",
            job.label, q.cycles
        ));
    }
    l.queue_traced_ns += traced_ns;
    l.queue_untraced_ns += untraced_ns;
    l.queue_insert.add(q.insert_ns, q.inserted);
    l.queue_cycle.add(q.cycle_ns, q.cycles);
    l.queue_resolve.add(q.resolve_ns, q.resolves);
    Ok(())
}

/// Build every SPEC model (workload layer) and assemble and lower every RV
/// suite program (rv layer), one span each. Returns the mean build ms,
/// assemble us and lower us per program.
fn frontend_setup(sp: &mut Spans) -> Result<(f64, f64, f64), String> {
    sp.enter("setup", None);
    let mut build = Vec::new();
    for spec in spec2000::all() {
        let (p, ns) = sp.time("workload.build", None, || spec.build(PROGRAM_SEED));
        black_box(p);
        build.push(ns as f64 / 1e6);
    }
    let (mut asm, mut low) = (Vec::new(), Vec::new());
    for p in mos_rv::suite::PROGRAMS {
        let (rv, ns) = sp.time("rv.assemble", None, || mos_rv::assemble(p.name, p.source));
        let rv = rv.map_err(|e| format!("suite program {}: {e}", p.name))?;
        asm.push(ns as f64 / 1e3);
        let (l, ns) = sp.time("rv.lower", None, || mos_rv::lower(&rv));
        l.map_err(|e| format!("suite program {}: {e}", p.name))?;
        low.push(ns as f64 / 1e3);
    }
    sp.exit();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok((mean(&build), mean(&asm), mean(&low)))
}

/// Walker cost on the `spec-q32` jobs (for the RV workload, whose own
/// jobs do not use the walker).
fn walk_context(sp: &mut Spans, l: &mut Layers, seed: u64, settings: &Settings) {
    let jobs = build_jobs(Workload::SpecQ32, seed, settings.budget).expect("synthetic jobs build");
    for job in select(jobs, settings.job_limit) {
        let (rt, ns) = sp.time("workload.walk", None, || record(&job));
        if let Ok(rt) = rt {
            l.walk.add(ns as f64, rt.len() as u64);
        }
    }
}

/// Interpreter and differential-oracle cost on the RV suite under
/// `mop-wor` (for workloads whose own jobs are synthetic).
fn rv_context(
    sp: &mut Spans,
    checks: &mut Checks,
    l: &mut Layers,
    settings: &Settings,
) -> Result<(), String> {
    let jobs = build_jobs(Workload::RvChecked, 0, None)?;
    let mop_wor: Vec<Job> = jobs.into_iter().filter(|j| j.sched == "mop-wor").collect();
    for job in &select(mop_wor, settings.job_limit) {
        let (rt, record_ns) = sp.time("rv.interp", None, || record(job));
        let Some(rt) = checks.check(rt) else { continue };
        let (plain, sim_ns) = sp.time("sim.run", None, || {
            Simulator::new(job.cfg.clone(), rt.clone()).run(job.budget)
        });
        let (diff, diff_ns) = sp.time("rv.differential", None, || job.run());
        checks.check(diff.and_then(|d| {
            same_result(&job.label, "replayed and differential results", &plain, &d)
        }));
        l.interp.add(record_ns as f64, rt.len() as u64);
        l.oracle
            .add(diff_ns as f64 - sim_ns as f64 - record_ns as f64, 1);
    }
    Ok(())
}

/// Issue-queue cycle cost at each ladder capacity and fill level, on the
/// gzip dependence stream under base scheduling (all loads hit).
fn queue_ladder(
    sp: &mut Spans,
    seed: u64,
    timer_ns: f64,
    settings: &Settings,
) -> Vec<(String, f64)> {
    sp.enter("ladder", None);
    let cycles = settings
        .budget
        .map_or(LADDER_CYCLES, |b| (b / 4).clamp(1, LADDER_CYCLES));
    let jobs = build_jobs(Workload::SpecQ32, seed, Some(6 * cycles)).expect("synthetic jobs build");
    let gzip = jobs
        .iter()
        .find(|j| j.label.starts_with("gzip/base/"))
        .expect("spec-q32 runs gzip/base");
    let base = gzip.cfg.clone();
    let rt = record(gzip).expect("synthetic streams record");
    let stream = Stream::new(&rt, base.fetch_width);
    let formed = drive_form(&stream.rename(&[]), &base);
    let hits = stream.load_latencies(|| base.dl1.hit_latency);
    let mut out = Vec::new();
    for cap in LADDER_CAPACITIES {
        for fill in LADDER_FILLS {
            let mut sched = base.sched.clone();
            sched.queue_entries = Some(cap);
            let drive = QueueDrive {
                sched,
                groups: &formed,
                load_latency: &hits,
                target: (cap * fill / 100).max(base.fetch_width),
                groups_per_cycle: usize::MAX,
                discover: u64::from(base.exec_offset + base.dl1.hit_latency),
                hit_latency: base.dl1.hit_latency,
                timed: true,
                cycles: Some(cycles),
            };
            let best = (0..PROBE_REPS)
                .map(|_| {
                    let (q, _) =
                        sp.time("core.queue.ladder", None, || drive_queue(&drive, timer_ns));
                    ratio(q.cycle_ns, q.cycles as f64)
                })
                .fold(f64::INFINITY, f64::min);
            out.push((format!("core.queue.cycle_ns.c{cap}.f{fill}"), best));
        }
    }
    sp.exit();
    out
}

/// The observers a probe toggles, by metric name.
const OBSERVERS: [&str; 5] = [
    "obs.metrics_pct",
    "obs.slot_accounting_pct",
    "obs.ring_trace_pct",
    "obs.oracle_pct",
    "obs.timeline_pct",
];

/// Overhead of each observer on the workload's median job (by plain
/// simulator time per instruction): interleaved best-of-N runs over the
/// recorded stream, each required to leave simulated cycles unchanged.
fn observer_probes(
    sp: &mut Spans,
    checks: &mut Checks,
    jobs: &[Job],
    records: &[(usize, JobPass)],
) -> Vec<(&'static str, f64)> {
    if records.is_empty() {
        return OBSERVERS.iter().map(|&o| (o, 0.0)).collect();
    }
    let mut order: Vec<&(usize, JobPass)> = records.iter().collect();
    order.sort_by(|a, b| {
        let k = |p: &JobPass| ratio(p.sim_ns as f64, p.plain.committed as f64);
        k(&a.1).total_cmp(&k(&b.1))
    });
    let (i, pass) = order[order.len() / 2];
    let job = &jobs[*i];
    sp.enter("observers", Some(*i));
    let mut best = [f64::INFINITY; OBSERVERS.len() + 1];
    for _ in 0..PROBE_REPS {
        for (k, b) in best.iter_mut().enumerate() {
            let mut sim = Simulator::new(job.cfg.clone(), pass.stream.clone());
            match k {
                1 => sim.enable_metrics(10_000),
                2 => sim.enable_slot_accounting(),
                3 => sim.set_event_sink(Box::new(SharedRing::new(4096))),
                4 => sim.attach_oracle(OracleMode::Collect),
                5 => sim.enable_timeline(usize::MAX),
                _ => {}
            }
            let name = [
                "obs.plain",
                "obs.metrics",
                "obs.slot_accounting",
                "obs.ring_trace",
                "obs.oracle",
                "obs.timeline",
            ][k];
            let (stats, ns) = sp.time(name, Some(*i), || sim.run(job.budget));
            *b = b.min(ns as f64);
            let violation = sim.oracle().and_then(|o| o.violations().first());
            checks.check(match violation {
                Some(v) => Err(format!("{}: scheduling invariant violated: {v}", job.label)),
                None if stats.cycles != pass.plain.cycles => Err(format!(
                    "{}: {name} changed simulated cycles: {} vs {}",
                    job.label, stats.cycles, pass.plain.cycles
                )),
                None => Ok(()),
            });
        }
    }
    sp.exit();
    OBSERVERS
        .iter()
        .enumerate()
        .map(|(k, &o)| (o, 100.0 * (best[k + 1] - best[0]) / best[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(Workload::SpecQ32, 1);
        sp.enter("outer", None);
        sp.time("inner", None, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.exit();
        let t = sp.self_times();
        let inner = t["inner"].0;
        let outer_total = sp.spans()[0].ns();
        assert_eq!(t["outer"].0, outer_total - inner);
        assert!(inner >= 2_000_000);
    }

    #[test]
    fn groups_respect_width_and_taken_transfers() {
        let spec = spec2000::by_name("gzip").unwrap();
        let width = MachineConfig::base_32().fetch_width;
        let rt = ReplayTrace::record(spec.trace(3), 2_000);
        let s = Stream::new(&rt, width);
        assert_eq!(s.groups.iter().map(|g| g.len()).sum::<usize>(), rt.len());
        for g in &s.groups {
            assert!(!g.is_empty() && g.len() <= width);
            assert!(s.insts[g.start..g.end - 1].iter().all(|d| !d.taken));
        }
    }

    #[test]
    fn renamed_uops_line_up_with_load_latencies() {
        let spec = spec2000::by_name("mcf").unwrap();
        let rt = ReplayTrace::record(spec.trace(5), 3_000);
        let s = Stream::new(&rt, 4);
        let latencies = drive_dl1(&s);
        let mut it = latencies.iter().copied();
        let per_uop = s.load_latencies(|| it.next().unwrap());
        assert!(it.next().is_none(), "every latency is used");
        let renamed: Vec<RenamedInst> = s.rename(&[]).into_iter().flatten().collect();
        assert_eq!(renamed.len(), per_uop.len());
        for (k, r) in renamed.iter().enumerate() {
            assert_eq!(r.id, UopId(k as u64));
            assert_eq!(per_uop[k].is_some(), r.class == InstClass::Load);
        }
    }
}
