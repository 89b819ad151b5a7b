//! The cycle loop: fetch (with real wrong-path walking), the front-end
//! delay line, rename/MOP formation, queue insertion, scheduling,
//! execution events, branch resolution/squash, and in-order commit.

use std::collections::VecDeque;

use mos_core::detect::{CtrlOut, DetectInst, MopDetector};
use mos_core::form::{FormedItem, Former, RenamedInst, TableCheckpoint};
use mos_core::pointer::{MopPointer, MopPointerStore};
use mos_core::queue::{IssueQueue, Issued};
use mos_core::{GroupRole, SlotCause, Tag, UopId};
use mos_isa::{DynInst, FixedList, InstClass, Program, Reg, TraceSource};
use mos_uarch::branch::{Btb, CombinedPredictor, RasSnapshot, ReturnAddressStack};
use mos_uarch::cache::Cache;

use crate::config::MachineConfig;
use crate::events::{EventKinds, EventSink, Observers, TraceEvent};
use crate::metrics::{Cum, SimMetrics};
use crate::oracle::{InvariantOracle, OracleMode};
use crate::stats::SimStats;
use crate::timeline::Timeline;

/// Cycles without a commit after which [`Simulator::run`] declares a
/// deadlock.
const DEADLOCK_CYCLES: u64 = 500_000;

/// Tag bookkeeping is pruned on multiples of this many cycles, keeping
/// this many cycles of history.
const PRUNE_PERIOD: u64 = 4096;

/// Fetch stops while this many groups wait in the front-end delay line.
const FRONT_GROUPS: usize = 8;

/// One static instruction, decoded once per program (in
/// [`Simulator::new`]): everything fetch, rename, formation, detection
/// and the back end read of it, so no dynamic instance decodes the
/// [`StaticInst`](mos_isa::StaticInst) again. [`StaticRecord::decode`]
/// builds a program's table, indexed by static index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticRecord {
    /// Latency/resource class (`StaticInst::class`).
    pub class: InstClass,
    /// Destination register, zero-register writes excluded
    /// (`StaticInst::dst`).
    pub dst: Option<Reg>,
    /// Dependence-carrying source registers, zero register excluded
    /// (`StaticInst::src_regs`).
    pub srcs: FixedList<Reg, 2>,
    /// Static target of a direct transfer (`StaticInst::target`).
    pub target: Option<u32>,
    /// Macro-op candidate (`StaticInst::is_mop_candidate`).
    pub is_candidate: bool,
    /// Value-generating candidate, a potential MOP head
    /// (`StaticInst::is_value_generating_candidate`).
    pub is_valuegen: bool,
    /// A branch resolved at execute that can redirect fetch (conditional,
    /// indirect or return), so it carries a recovery checkpoint; direct
    /// jumps and calls are always predicted correctly.
    pub can_squash: bool,
    /// Execute-to-complete latency of any uop but a load: stores and
    /// branches complete a cycle after execute, everything else after its
    /// class latency.
    pub fixed_latency: u64,
    /// The 64-byte I-cache line holding the instruction, where a MOP
    /// pointer with it as head lives.
    pub line: u64,
}

impl StaticRecord {
    /// The table of `program`: one record per static index.
    pub fn decode(program: &Program) -> Vec<StaticRecord> {
        program
            .iter()
            .map(|(sidx, inst)| {
                use InstClass::*;
                let class = inst.class();
                StaticRecord {
                    class,
                    dst: inst.dst(),
                    srcs: inst.src_regs().collect(),
                    target: inst.target(),
                    is_candidate: inst.is_mop_candidate(),
                    is_valuegen: inst.is_value_generating_candidate(),
                    can_squash: matches!(class, CondBranch | IndirectJump | Return),
                    fixed_latency: match class {
                        Store | CondBranch | IndirectJump | Return => 1,
                        _ => u64::from(class.exec_latency()),
                    },
                    line: program.pc_of(sidx) & !63,
                }
            })
            .collect()
    }

    /// Control leaves this instruction through an indirect transfer when
    /// taken: pointers may not span it.
    fn indirect(&self) -> bool {
        matches!(self.class, InstClass::IndirectJump | InstClass::Return)
    }

    /// The detector's view of the instruction at `sidx`, left `taken` on
    /// the committed path.
    fn detect_view(&self, sidx: u32, taken: bool) -> DetectInst {
        DetectInst {
            sidx,
            line_addr: self.line,
            is_candidate: self.is_candidate,
            is_valuegen: self.is_valuegen,
            dst: self.dst,
            srcs: [self.srcs.first().copied(), self.srcs.get(1).copied()],
            ctrl_out: match (taken, self.indirect()) {
                (false, _) => CtrlOut::FallThrough,
                (true, false) => CtrlOut::TakenDirect,
                (true, true) => CtrlOut::TakenIndirect,
            },
        }
    }
}

/// One instruction traveling the front end.
#[derive(Debug, Clone)]
struct FrontInst {
    sidx: u32,
    /// Committed-path oracle record, with the actual outcome; `None` on
    /// the wrong path.
    dyn_: Option<DynInst>,
    /// Direction/target the fetch stream actually followed.
    stream_taken: bool,
    /// MOP pointer fetched alongside (MacroOp mode only).
    pointer: Option<MopPointer>,
    /// Fetch detected that prediction diverged from the oracle here.
    mispredicted: bool,
    /// Global-history checkpoint taken at prediction.
    ghr_cp: u64,
    /// RAS snapshot after this instruction's own pop, for branches that
    /// can squash.
    ras_snap: Option<RasSnapshot>,
}

#[derive(Debug, Clone)]
struct FrontGroup {
    insts: Vec<FrontInst>,
    fetched_at: u64,
    ready_at: u64,
}

/// One in-flight uop. Its class and latencies live in the decoded
/// [`StaticRecord`] of `sidx`, its actual outcome in `dyn_`.
#[derive(Debug, Clone)]
struct RobEntry {
    id: UopId,
    sidx: u32,
    dyn_: Option<DynInst>,
    role: GroupRole,
    complete_at: Option<u64>,
    issue_gen: u32,
    branch_resolved: bool,
    mispredicted: bool,
    ghr_cp: u64,
    /// Scheduling tag broadcast by this uop if it is an in-flight load
    /// (set at issue, used to steer replay on a miss).
    load_tag: Option<Tag>,
}

/// The reorder buffer, a ring indexed by uop id: uop `i` lives in slot
/// `i - base`, so finding a uop is a subtraction and a slot check. Ids a
/// squash skipped stay as empty slots until they reach the head, which is
/// always a live entry; `live` counts the occupied slots, the ROB's
/// occupancy.
#[derive(Debug, Default)]
struct Rob {
    slots: VecDeque<Option<RobEntry>>,
    /// Uop id of `slots[0]`.
    base: u64,
    live: usize,
}

impl Rob {
    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slot of uop `id`: a subtraction. Ids below `base` wrap to huge
    /// values and fall outside the ring.
    #[inline]
    fn slot(&self, id: UopId) -> usize {
        usize::try_from(id.0.wrapping_sub(self.base)).unwrap_or(usize::MAX)
    }

    /// The entry of uop `id`, if it is in flight.
    #[inline]
    fn get(&self, id: UopId) -> Option<&RobEntry> {
        self.slots.get(self.slot(id))?.as_ref()
    }

    /// The entry of uop `id`, if it is in flight.
    #[inline]
    fn get_mut(&mut self, id: UopId) -> Option<&mut RobEntry> {
        let i = self.slot(id);
        self.slots.get_mut(i)?.as_mut()
    }

    /// The oldest in-flight uop.
    fn head(&self) -> Option<&RobEntry> {
        self.slots.front().and_then(Option::as_ref)
    }

    /// Append `e`, leaving an empty slot for every id skipped since the
    /// youngest entry.
    fn push(&mut self, e: RobEntry) {
        if self.slots.is_empty() {
            self.base = e.id.0;
        }
        let at = self.slot(e.id);
        debug_assert!(at >= self.slots.len(), "uop ids enter the ROB in order");
        self.slots.resize_with(at, || None);
        self.slots.push_back(Some(e));
        self.live += 1;
    }

    /// Remove the head, then the empty slots behind it, so the next
    /// in-flight uop becomes the head.
    fn pop_head(&mut self) -> Option<RobEntry> {
        let head = self.slots.pop_front()?.expect("the ROB head is live");
        self.base += 1;
        self.live -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(head)
    }

    /// Drop every uop younger than the in-flight uop `id` (a squash).
    fn truncate_after(&mut self, id: UopId) {
        let keep = self.slot(id) + 1;
        debug_assert!(keep <= self.slots.len(), "{id:?} is in flight");
        for b in self.slots.drain(keep..).flatten() {
            // Wrong-path stores never entered store_inflight (no oracle
            // address), so nothing to unwind there; the load tag dies with
            // the ROB entry.
            debug_assert!(b.dyn_.is_none(), "only wrong-path uops are squashed");
            self.live -= 1;
        }
    }

    /// The ring is exact: every slot holds the uop its id names or is
    /// empty, the head slot is live and `live` counts the occupied slots.
    /// Checked after every debug cycle, like the queue's own invariants.
    fn agrees(&self) -> bool {
        let ids_fit = self
            .slots
            .iter()
            .zip(self.base..)
            .all(|(e, id)| e.as_ref().is_none_or(|e| e.id.0 == id));
        let occupied = self.slots.iter().filter(|e| e.is_some()).count();
        ids_fit && self.slots.front().is_none_or(Option::is_some) && occupied == self.live
    }
}

/// Recovery state of one in-flight branch that can squash (conditional,
/// indirect or return), kept beside the ROB rather than in it.
#[derive(Debug, Clone)]
struct Checkpoint {
    id: UopId,
    ras: RasSnapshot,
    table: TableCheckpoint,
}

#[derive(Debug, Clone)]
enum Ev {
    /// A load, or a correct-path branch that can squash, reaches the
    /// execute stage (`gen` guards against replays); other uops complete
    /// at issue.
    Exec { id: UopId, gen: u32 },
    /// A load's DL1 outcome is known.
    LoadResolve {
        id: UopId,
        gen: u32,
        tag: Option<Tag>,
        hit: bool,
        data_ready: u64,
    },
}

/// The timing simulator. Construct with a [`MachineConfig`] preset and a
/// [`TraceSource`], then [`Simulator::run`].
pub struct Simulator<T: TraceSource> {
    cfg: MachineConfig,
    trace: T,
    /// The trace's program, decoded: one record per static index.
    decoded: Box<[StaticRecord]>,
    oracle_done: bool,

    // Front end.
    predictor: CombinedPredictor,
    btb: Btb,
    ras: ReturnAddressStack,
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    fetch_pc: u32,
    wrong_path: bool,
    fetch_stall_until: u64,
    /// End of the post-squash redirect bubble (for slot attribution:
    /// distinguishes recovery stalls from ordinary I-miss fetch stalls).
    redirect_until: u64,
    front: VecDeque<FrontGroup>,
    next_id: u64,

    // Macro-op machinery.
    pointers: MopPointerStore,
    detector: MopDetector,
    former: Former,

    // Back end.
    queue: IssueQueue,
    rob: Rob,
    /// One [`Checkpoint`] per in-flight branch that can squash, in uop-id
    /// order: pushed at rename, popped when the branch commits, truncated
    /// past the branch on a squash.
    checkpoints: VecDeque<Checkpoint>,
    /// Execute/memory events as a timing wheel: cycle `c`'s events sit in
    /// bucket `c & wheel_mask`, in push order. Every event lands less than
    /// the wheel size ahead of the current cycle (DESIGN §6).
    events: Vec<Vec<Ev>>,
    wheel_mask: u64,
    /// In-flight store addresses (8-byte aligned) with refcounts, for
    /// store-to-load forwarding. Bounded by ROB stores; linear scan.
    store_inflight: Vec<(u64, u32)>,
    /// The latest cycle at which an issued uop that needs no execute
    /// event reaches execute: the pending-heads stall waits it out, as it
    /// waits out pending events.
    exec_horizon: u64,

    now: u64,
    last_commit_cycle: u64,
    /// Cycles jumped over by [`Simulator::skip_idle_cycles`].
    skipped_cycles: u64,
    stats: SimStats,
    /// The event-stream observers: timeline, oracle and sink.
    obs: Observers,
    /// Interval metric snapshots; `None` (the default) costs one
    /// `is_some()` check per cycle.
    metrics: Option<Box<SimMetrics>>,
    /// Insert was denied by the IQ/ROB resource check this cycle.
    insert_blocked: bool,

    // Reusable per-cycle scratch (hoisted out of the hot loop).
    issue_buf: Vec<Issued>,
    replay_buf: Vec<UopId>,
    form_buf: Vec<FormedItem>,
    /// Emptied fetch-group buffers, reused by fetch.
    group_pool: Vec<Vec<FrontInst>>,
    detect_buf: Vec<DetectInst>,
    trace_buf: Vec<TraceEvent>,
}

impl<T: TraceSource> Simulator<T> {
    /// Build a simulator over `trace` with machine `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.exec_offset` or `cfg.dl1.hit_latency` is zero: an
    /// event due in the cycle that schedules it would never fire. Also
    /// panics if a sized issue queue holds fewer entries than
    /// `cfg.fetch_width`: insertion takes whole fetch groups, so such a
    /// queue would never accept one and the pipeline would deadlock.
    pub fn new(cfg: MachineConfig, trace: T) -> Simulator<T> {
        assert!(
            cfg.exec_offset >= 1,
            "exec_offset must be at least 1: execution is scheduled after select"
        );
        assert!(
            cfg.dl1.hit_latency >= 1,
            "dl1.hit_latency must be at least 1: a load's hit/miss is discovered after it executes"
        );
        assert!(
            cfg.sched.queue_entries.is_none_or(|n| n >= cfg.fetch_width),
            "queue_entries must be at least fetch_width: insertion takes whole fetch groups"
        );
        // The farthest event is a MOP's last uop, `exec_offset +
        // max_mop_size - 1` cycles after select, or a load resolution
        // `dl1.hit_latency` cycles after execute.
        let horizon = cfg.exec_offset as usize
            + cfg.sched.mop.max_mop_size
            + cfg.dl1.hit_latency as usize
            + 2;
        let wheel = horizon.next_power_of_two();
        let decoded = StaticRecord::decode(trace.program()).into_boxed_slice();
        let fetch_pc = trace.program().entry();
        #[allow(unused_mut)]
        let mut sim = Simulator {
            predictor: CombinedPredictor::new(&cfg.branch),
            btb: Btb::new(cfg.branch.btb_entries, cfg.branch.btb_ways),
            ras: ReturnAddressStack::new(cfg.branch.ras_depth),
            il1: Cache::new(cfg.il1.clone()),
            dl1: Cache::new(cfg.dl1.clone()),
            l2: Cache::new(cfg.l2.clone()),
            fetch_pc,
            wrong_path: false,
            fetch_stall_until: 0,
            redirect_until: 0,
            front: VecDeque::new(),
            next_id: 0,
            pointers: MopPointerStore::new(),
            detector: MopDetector::new(
                cfg.sched.mop.clone(),
                cfg.sched.max_entry_sources(),
                cfg.fetch_width,
            ),
            former: Former::new(cfg.mops_enabled(), cfg.sched.mop.max_mop_size),
            queue: IssueQueue::new(cfg.sched.clone()),
            rob: Rob::default(),
            checkpoints: VecDeque::new(),
            events: (0..wheel).map(|_| Vec::new()).collect(),
            wheel_mask: wheel as u64 - 1,
            store_inflight: Vec::new(),
            now: 0,
            last_commit_cycle: 0,
            skipped_cycles: 0,
            exec_horizon: 0,
            stats: SimStats::default(),
            obs: Observers::default(),
            metrics: None,
            insert_blocked: false,
            issue_buf: Vec::new(),
            replay_buf: Vec::new(),
            form_buf: Vec::new(),
            group_pool: Vec::new(),
            detect_buf: Vec::new(),
            trace_buf: Vec::new(),
            oracle_done: false,
            decoded,
            trace,
            cfg,
        };
        // Debug builds watch every run with a panicking invariant oracle:
        // the whole test suite doubles as a scheduling-legality suite.
        // Release builds (benches, experiments, the default CLI) pay
        // nothing.
        #[cfg(debug_assertions)]
        sim.attach_oracle(OracleMode::Panic);
        // Debug builds also account every issue slot, so the whole test
        // suite doubles as a conservation-law suite (the per-cycle
        // `debug_assert` in `step`).
        #[cfg(debug_assertions)]
        sim.enable_slot_accounting();
        sim
    }

    /// Attach an event sink (replacing any previous one); enables tracing
    /// of the kinds it reads ([`EventSink::kinds`]) for the whole run.
    /// Like every observer, it attaches before the first cycle.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.attach("attach an event sink", |o| o.sink = Some(sink));
    }

    /// Attach a fresh [`InvariantOracle`] in `mode` (replacing any
    /// previous one); enables tracing of every kind for the whole run.
    /// Like every observer, it attaches before the first cycle.
    pub fn attach_oracle(&mut self, mode: OracleMode) {
        let oracle = InvariantOracle::new(&self.cfg.sched, mode);
        self.attach("attach the oracle", |o| o.oracle = Some(oracle));
    }

    /// The attached invariant oracle, if any.
    pub fn oracle(&self) -> Option<&InvariantOracle> {
        self.obs.oracle.as_ref()
    }

    /// The attach rule every observer follows: it attaches before the
    /// first cycle, so it sees the whole run. One attached later would
    /// miss the start of the event stream (the oracle would then report
    /// uops committed without issuing) or break slot conservation.
    fn assert_unstarted(&self, what: &str) {
        assert_eq!(self.now, 0, "{what} before the first cycle");
    }

    /// Attach an event-stream observer through `add`, then trace the
    /// kinds the attached observers read.
    fn attach(&mut self, what: &str, add: impl FnOnce(&mut Observers)) {
        self.assert_unstarted(what);
        add(&mut self.obs);
        let kinds = self.obs.subscribe();
        self.queue.set_tracing(kinds.intersects(EventKinds::QUEUE));
    }

    /// Forward the subscribed kinds among everything the queue buffered
    /// since the last drain, stamped with the simulator's clock.
    #[inline]
    fn drain_queue_trace(&mut self) {
        if !self.queue.tracing() {
            return;
        }
        self.queue.drain_trace_into(self.now, &mut self.trace_buf);
        for ev in self.trace_buf.drain(..) {
            if self.obs.wants(EventKinds::of(&ev)) {
                self.obs.emit(ev);
            }
        }
    }

    /// Run until `max_commits` instructions have committed or the trace
    /// drains. Returns the statistics snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (no commit for a very long time
    /// with work outstanding) — that is a simulator bug, not a caller
    /// error.
    pub fn run(&mut self, max_commits: u64) -> SimStats {
        while self.stats.committed < max_commits {
            self.step();
            if self.oracle_done && self.rob.is_empty() && self.front.is_empty() {
                break;
            }
            assert!(
                self.now - self.last_commit_cycle < DEADLOCK_CYCLES,
                "pipeline deadlock at cycle {} (rob {} front {} queue {})",
                self.now,
                self.rob.len(),
                self.front.len(),
                self.queue.occupancy()
            );
            // Never skip past the cycle that ends the run.
            if self.stats.committed < max_commits {
                self.skip_idle_cycles();
            }
        }
        self.snapshot()
    }

    /// Current statistics (also usable mid-run).
    pub fn snapshot(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        s.queue = self.queue.stats();
        s.detect = self.detector.stats();
        s.form = self.former.stats();
        s.pointers = self.pointers.stats();
        s.il1 = self.il1.stats();
        s.l2 = self.l2.stats();
        s.events = self.obs.counts();
        if let Some(c) = self.queue.slot_counts() {
            s.slots = *c;
        }
        s
    }

    /// Cycles so far in which no pipeline stage could act, which the
    /// clock jumped over and charged in bulk. Host-side only: stepping
    /// through them would have produced the same results.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Record per-instruction pipeline timelines for the first `cap`
    /// uops entering the pipe (see [`crate::timeline::Timeline`]). The
    /// timelines are reconstructed from the trace-event stream, so this
    /// enables tracing of every kind for the whole run. Like every
    /// observer, the timeline attaches before the first cycle.
    pub fn enable_timeline(&mut self, cap: usize) {
        self.attach("enable the timeline", |o| {
            o.timeline = Some(Timeline::new(cap))
        });
    }

    /// The recorded timelines, if [`Simulator::enable_timeline`] was
    /// called.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.obs.timeline.as_ref()
    }

    /// Collect interval metric snapshots every `interval` cycles (see
    /// [`crate::metrics::SimMetrics`]) and turn on the issue queue's
    /// histograms. Unlike tracing this does not construct events; the
    /// per-cycle cost is a couple of histogram increments. Like every
    /// observer, metrics attach before the first cycle.
    pub fn enable_metrics(&mut self, interval: u64) {
        self.assert_unstarted("enable metrics");
        self.queue.set_metrics(true);
        self.metrics = Some(Box::new(SimMetrics::new(interval)));
    }

    /// Close the final partial interval row (idempotent; call after
    /// [`Simulator::run`] and before reading [`Simulator::metrics`]).
    pub fn finish_metrics(&mut self) {
        if self.metrics.is_none() {
            return;
        }
        let cum = self.cumulative();
        let now = self.now;
        if let Some(m) = self.metrics.as_deref_mut() {
            m.finish(now, cum);
        }
    }

    /// The interval metric collector, if [`Simulator::enable_metrics`]
    /// was called.
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_deref()
    }

    /// The issue queue's metric histograms, if metrics are enabled.
    pub fn queue_metrics(&self) -> Option<&mos_core::queue::QueueMetrics> {
        self.queue.metrics()
    }

    /// Turn on top-down issue-slot accounting (the `cpistack` taxonomy):
    /// every cycle × issue-slot is charged to exactly one
    /// [`SlotCause`], and the per-cause totals land in
    /// [`SimStats::slots`]. Observation only — simulated timing is
    /// unchanged. Like every observer it attaches before the first cycle,
    /// so the conservation law (`total == cycles × issue_width`) holds;
    /// idempotent, and debug builds enable it automatically.
    pub fn enable_slot_accounting(&mut self) {
        self.assert_unstarted("enable slot accounting");
        self.queue.set_slot_accounting(true);
    }

    /// `true` when slot accounting is enabled.
    pub fn slot_accounting(&self) -> bool {
        self.queue.slot_counts().is_some()
    }

    /// Gather the cumulative counter values the interval series rows are
    /// deltas of.
    fn cumulative(&self) -> Cum {
        let q = self.queue.stats();
        let p = self.pointers.stats();
        let (delay_sum, delay_count) = self.queue.metrics().map_or((0, 0), |m| {
            (m.wakeup_select_delay.sum(), m.wakeup_select_delay.count())
        });
        Cum {
            cycles: self.now,
            committed: self.stats.committed,
            grouped: self.stats.roles[SimStats::role_index(GroupRole::MopIndependent)]
                + self.stats.roles[SimStats::role_index(GroupRole::MopNonValueGen)]
                + self.stats.roles[SimStats::role_index(GroupRole::MopValueGen)],
            replayed_uops: q.load_replay_uops,
            pointer_hits: self.stats.pointer_hits,
            pointer_evicts: p.1 + p.2,
            occupancy_integral: q.occupancy_integral,
            delay_sum,
            delay_count,
        }
    }

    /// Schedule `ev` for cycle `at`, after the events already due then.
    fn schedule(&mut self, at: u64, ev: Ev) {
        debug_assert!(
            at > self.now && at - self.now <= self.wheel_mask,
            "event at cycle {at} is outside the wheel horizon from cycle {}",
            self.now
        );
        self.events[(at & self.wheel_mask) as usize].push(ev);
    }

    /// Return a fetch group's buffer to the pool.
    fn recycle_group(&mut self, mut insts: Vec<FrontInst>) {
        insts.clear();
        self.group_pool.push(insts);
    }

    /// Advance one cycle.
    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        self.insert_blocked = false;

        // 1. Execution/resolution events. Handlers only schedule into
        // later cycles, so this cycle's bucket is complete.
        let slot = (now & self.wheel_mask) as usize;
        let mut evs = std::mem::take(&mut self.events[slot]);
        for ev in evs.drain(..) {
            self.handle_event(ev);
        }
        self.events[slot] = evs;

        // 2. Rename / MOP formation / queue insertion.
        self.insert_stage();
        self.drain_queue_trace();

        // 3. Wakeup/select.
        let obs = &mut self.obs;
        let traced = obs.wants(EventKinds::POINTER_INSTALL);
        self.pointers.tick_with(now, |head_sidx, line| {
            if traced {
                obs.emit(TraceEvent::PointerInstall {
                    cycle: now,
                    head_sidx,
                    line,
                });
            }
        });
        let mut issued = std::mem::take(&mut self.issue_buf);
        self.queue
            .set_idle_cause(self.idle_cause(now, self.insert_blocked));
        self.queue.cycle_into(now, &mut issued);
        self.drain_queue_trace();
        for iss in &issued {
            self.handle_issue(iss);
        }
        self.issue_buf = issued;

        // 4. In-order commit.
        self.commit_stage();

        // 5. Fetch.
        self.fetch_stage();

        if now.is_multiple_of(PRUNE_PERIOD) {
            self.queue.prune_tags(PRUNE_PERIOD);
        }

        // 6. Interval metric snapshot, landing exactly on multiples of
        // the interval (idle-cycle skipping stops at each boundary).
        if self.metrics.as_deref().is_some_and(|m| m.due(now)) {
            let cum = self.cumulative();
            if let Some(m) = self.metrics.as_deref_mut() {
                m.sample(now, cum);
            }
        }

        debug_assert!(self.rob.agrees(), "ROB slots disagree with uop ids");
        self.check_conservation();
    }

    /// The conservation law, checked after every cycle and every skip
    /// like the scheduling oracle: charged slots must equal the slots the
    /// machine offered up to `self.now`.
    fn check_conservation(&self) {
        #[cfg(debug_assertions)]
        if let Some(c) = self.queue.slot_counts() {
            let now = self.now;
            if let Err(e) = c.check_conservation(now, self.cfg.sched.issue_width as u64) {
                panic!("{e} (at cycle {now})");
            }
        }
    }

    /// The cause of idle issue slots at `cycle` that the queue cannot
    /// blame on a waiting entry: wrong-path fetch or the post-squash
    /// redirect bubble, frontend (IQ/ROB-full) back-pressure while
    /// `insert_blocked`, or a genuinely drained window.
    fn idle_cause(&self, cycle: u64, insert_blocked: bool) -> SlotCause {
        if self.wrong_path || cycle < self.redirect_until {
            SlotCause::WrongPath
        } else if insert_blocked {
            SlotCause::Frontend
        } else {
            SlotCause::Drained
        }
    }

    /// Jump the clock over cycles in which no stage can change any state
    /// (DESIGN §6 "Ready calendar and idle cycles"): no event is due,
    /// nothing can insert, issue, commit or fetch, no pointer installs,
    /// no tag prune, metric boundary or deadlock check falls due, and
    /// with slot accounting no stall cause can change. The skipped cycles
    /// are charged in bulk, so every statistic, trace event and slot
    /// count is what stepping through them would have produced.
    fn skip_idle_cycles(&mut self) {
        let now = self.now;
        let soon = now + 1;
        let accounting = self.slot_accounting();
        let mut next = self.last_commit_cycle + DEADLOCK_CYCLES;
        next = next.min((now / PRUNE_PERIOD + 1) * PRUNE_PERIOD);
        if let Some(at) = self.rob.head().and_then(|h| h.complete_at) {
            next = next.min(at);
        }
        if self.front.len() < FRONT_GROUPS && self.decoded.get(self.fetch_pc as usize).is_some() {
            next = next.min(self.fetch_stall_until);
        }
        // A ready front group that cannot insert stays blocked until a
        // release or a commit frees room, both wake-ups of their own.
        let insert_blocked = match self.front.front() {
            Some(g) if g.ready_at > now => {
                next = next.min(g.ready_at);
                false
            }
            Some(g) => {
                let n = g.insts.len();
                if self.group_fits(n) || self.stalled_on_pending_heads() {
                    return;
                }
                if self.queue.has_pending_heads() && self.exec_horizon > now {
                    next = next.min(self.exec_horizon);
                }
                true
            }
            // The next insert stage gives up the pending heads.
            None if self.oracle_done && self.queue.has_pending_heads() => return,
            None => false,
        };
        if let Some(at) = self.pointers.next_install_at() {
            next = next.min(at);
        }
        if let Some(m) = self.metrics.as_deref() {
            next = next.min(m.next_at());
        }
        if accounting && self.redirect_until > now {
            next = next.min(self.redirect_until);
        }
        if next <= soon {
            return;
        }
        // Every event lies within the wheel's horizon of `now`.
        let horizon = (next - now).min(self.wheel_mask + 1);
        let bucket = |d: u64| &self.events[((now + d) & self.wheel_mask) as usize];
        if let Some(d) = (1..horizon).find(|&d| !bucket(d).is_empty()) {
            next = now + d;
        }
        if next <= soon {
            return;
        }
        next = next.min(self.queue.next_active());
        if next <= soon {
            return;
        }
        let k = next - soon;
        // With accounting on, a skip stops at the redirect bubble's end, so
        // the first skipped cycle's cause holds for all of them.
        self.queue
            .set_idle_cause(self.idle_cause(soon, insert_blocked));
        self.queue.skip_idle(k);
        self.now += k;
        self.skipped_cycles += k;
        self.check_conservation();
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self) {
        let now = self.now;
        if self.fetch_stall_until > now || self.front.len() >= FRONT_GROUPS {
            return;
        }
        // One I-cache line feeds a fetch group.
        let line_mask = !(self.cfg.il1.line_bytes as u64 - 1);
        let first_pc = match self.decoded.get(self.fetch_pc as usize) {
            Some(_) => self.trace.program().pc_of(self.fetch_pc),
            None => {
                // Off the code image: a wrong path waits for its redirect,
                // while the correct path has run out of program.
                self.oracle_done |= !self.wrong_path;
                return;
            }
        };
        let access = self.il1.access(first_pc);
        if let Some(evicted) = access.evicted {
            let obs = &mut self.obs;
            let traced = obs.wants(EventKinds::POINTER_EVICT);
            self.pointers.invalidate_line(evicted, |head_sidx| {
                if traced {
                    obs.emit(TraceEvent::PointerEvict {
                        cycle: now,
                        head_sidx,
                        line: evicted,
                        filtered: false,
                    });
                }
            });
        }
        if !access.hit {
            // Miss into the unified L2.
            let l2 = self.l2.access(first_pc);
            let latency = self.cfg.il1.hit_latency
                + self.cfg.l2.hit_latency
                + if l2.hit { 0 } else { self.cfg.memory_latency };
            self.fetch_stall_until = now + u64::from(latency);
            return;
        }

        let mut insts = self
            .group_pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.cfg.fetch_width));
        for _ in 0..self.cfg.fetch_width {
            let sidx = self.fetch_pc;
            let Some(&rec) = self.decoded.get(sidx as usize) else {
                break;
            };
            if self.trace.program().pc_of(sidx) & line_mask != first_pc & line_mask {
                break; // next line, next cycle
            }
            // Oracle record for correct-path fetch.
            let dyn_ = if self.wrong_path {
                None
            } else {
                match self.trace.next() {
                    Some(d) => Some(d),
                    None => {
                        self.oracle_done = true;
                        break;
                    }
                }
            };
            if let Some(d) = dyn_ {
                debug_assert_eq!(d.sidx, sidx, "oracle and fetch must agree");
            }

            let (mut pred_taken, mut pred_next, ghr_cp, ras_snap) = self.predict(sidx, &rec);
            if self.cfg.ideal_branch {
                if let Some(d) = dyn_ {
                    pred_taken = d.taken;
                    pred_next = d.next_sidx;
                }
            }
            let mispredicted =
                dyn_.is_some_and(|d| pred_next != d.next_sidx || pred_taken != d.taken);

            let pointer = if self.cfg.mops_enabled() {
                self.pointers.lookup(sidx)
            } else {
                None
            };
            if pointer.is_some() {
                self.stats.pointer_hits += 1;
            }

            self.stats.fetched += 1;
            if self.wrong_path {
                self.stats.wrong_path_fetched += 1;
            }
            if self.obs.wants(EventKinds::FETCH) {
                self.obs.emit(TraceEvent::Fetch {
                    cycle: now,
                    sidx,
                    wrong_path: self.wrong_path,
                    pointer: pointer.is_some(),
                });
            }
            if let Some(p) = pointer {
                if self.obs.wants(EventKinds::POINTER_HIT) {
                    self.obs.emit(TraceEvent::PointerHit {
                        cycle: now,
                        head_sidx: sidx,
                        tail_sidx: p.tail_sidx,
                    });
                }
            }
            insts.push(FrontInst {
                sidx,
                dyn_,
                stream_taken: pred_taken,
                pointer,
                mispredicted,
                ghr_cp,
                ras_snap,
            });

            if mispredicted {
                self.wrong_path = true;
            }
            self.fetch_pc = pred_next;
            if pred_taken {
                break; // fetch stops at the first taken branch
            }
        }
        if insts.is_empty() {
            self.group_pool.push(insts);
        } else {
            self.front.push_back(FrontGroup {
                insts,
                fetched_at: now,
                ready_at: now + self.cfg.front_delay(),
            });
        }
    }

    /// Predict direction and next fetch index for the instruction `rec`
    /// at `sidx`; returns `(taken, next, ghr checkpoint, RAS snapshot)`.
    /// Only branches that can squash take a RAS snapshot.
    fn predict(&mut self, sidx: u32, rec: &StaticRecord) -> (bool, u32, u64, Option<RasSnapshot>) {
        let pc = self.trace.program().pc_of(sidx);
        match rec.class {
            InstClass::CondBranch => {
                let (taken, cp) = self.predictor.predict(pc);
                let next = if taken {
                    rec.target.expect("validated branch")
                } else {
                    sidx + 1
                };
                (taken, next, cp, Some(self.ras.snapshot()))
            }
            InstClass::Jump => (true, rec.target.expect("validated jump"), 0, None),
            InstClass::Call => {
                self.ras.push(self.trace.program().pc_of(sidx + 1));
                (true, rec.target.expect("validated call"), 0, None)
            }
            InstClass::Return => {
                let target = self.ras.pop();
                let next = self.trace.program().index_of_pc(target).unwrap_or(sidx + 1);
                (true, next, 0, Some(self.ras.snapshot()))
            }
            InstClass::IndirectJump => {
                let next = self
                    .btb
                    .lookup(pc)
                    .and_then(|t| self.trace.program().index_of_pc(t))
                    .unwrap_or(sidx + 1);
                (true, next, 0, Some(self.ras.snapshot()))
            }
            _ => (false, sidx + 1, 0, None),
        }
    }

    // ------------------------------------------------------------------
    // Rename / formation / insertion
    // ------------------------------------------------------------------

    fn insert_stage(&mut self) {
        let now = self.now;
        let Some(group) = self.front.front() else {
            if self.oracle_done && self.queue.has_pending_heads() {
                // The correct path has ended and every fetched group is
                // renamed: no tail can still arrive, and no later group
                // will expire the pending heads.
                self.cancel_pending_heads();
            }
            return;
        };
        if group.ready_at > now {
            return;
        }
        if !self.group_fits(group.insts.len()) {
            self.insert_blocked = true;
            if self.stalled_on_pending_heads() {
                // The heads hold the room their own tails need: fuse
                // nothing, so they issue as singletons and free it.
                self.cancel_pending_heads();
            }
            return;
        }
        let mut group = self.front.pop_front().expect("checked above");

        let mut detect_group = std::mem::take(&mut self.detect_buf);
        detect_group.clear();
        let mut items = std::mem::take(&mut self.form_buf);
        self.former.begin_group();
        for fi in &mut group.insts {
            let rec = self.decoded[fi.sidx as usize];
            if matches!(rec.class, InstClass::Nop | InstClass::Halt) {
                continue; // the decoder filters no-ops without executing
            }
            let id = UopId(self.next_id);
            self.next_id += 1;

            let renamed = RenamedInst {
                id,
                sidx: fi.sidx,
                class: rec.class,
                dst: rec.dst,
                srcs: rec.srcs,
                taken: fi.stream_taken,
                taken_indirect: rec.indirect(),
                pointer: fi.pointer,
                is_candidate: rec.is_candidate,
                is_valuegen: rec.is_valuegen,
                fetched_at: group.fetched_at,
                wrong_path: fi.dyn_.is_none(),
            };
            // Each steering decision goes to the queue as it is made.
            let queue = &mut self.queue;
            self.former.feed_with(&renamed, |item| queue.steer(item));

            // Branches that can squash record recovery state.
            if rec.can_squash {
                self.checkpoints.push_back(Checkpoint {
                    id,
                    ras: fi
                        .ras_snap
                        .take()
                        .expect("squashable branches snapshot the RAS"),
                    table: self.former.checkpoint(),
                });
            }

            self.rob.push(RobEntry {
                id,
                sidx: fi.sidx,
                dyn_: fi.dyn_,
                // Classified when the uop issues; only issued uops commit.
                role: GroupRole::NotCandidate,
                complete_at: None,
                issue_gen: 0,
                branch_resolved: false,
                mispredicted: fi.mispredicted,
                ghr_cp: fi.ghr_cp,
                load_tag: None,
            });

            // Track in-flight store addresses for forwarding.
            if rec.class == InstClass::Store {
                if let Some(addr) = fi.dyn_.and_then(|d| d.eff_addr) {
                    let key = addr & !7;
                    match self.store_inflight.iter_mut().find(|(a, _)| *a == key) {
                        Some((_, c)) => *c += 1,
                        None => self.store_inflight.push((key, 1)),
                    }
                }
            }

            // Detection examines the correct-path renamed stream.
            if self.cfg.mops_enabled() {
                if let Some(d) = fi.dyn_ {
                    detect_group.push(rec.detect_view(fi.sidx, d.taken));
                }
            }
        }
        self.former.end_group_into(&mut items);
        for item in items.drain(..) {
            self.queue.steer(item);
        }
        self.form_buf = items;
        self.recycle_group(group.insts);

        if self.cfg.mops_enabled() && !detect_group.is_empty() {
            let pairs = {
                let pointers = &self.pointers;
                self.detector.step(
                    &detect_group,
                    |s| pointers.has_pointer(s),
                    |h, t| pointers.is_blacklisted(h, t),
                )
            };
            let ready = now + self.cfg.sched.mop.detection_delay;
            for p in pairs {
                if self.obs.wants(EventKinds::MOP_DETECT) {
                    self.obs.emit(TraceEvent::MopDetect {
                        cycle: now,
                        head_sidx: p.head_sidx,
                        tail_sidx: p.pointer.tail_sidx,
                        offset: p.pointer.offset,
                        control: p.pointer.control,
                        independent: p.pointer.independent,
                        visible_at: ready,
                    });
                }
                self.pointers
                    .schedule_install(p.head_sidx, p.pointer, p.head_line, ready);
            }
        }
        self.detect_buf = detect_group;
    }

    /// Conservative resource check for inserting a group of `n`: every
    /// instruction may need an entry (fused tails actually will not).
    fn group_fits(&self, n: usize) -> bool {
        self.queue.free_entries() >= n && self.rob.len() + n <= self.cfg.rob_entries
    }

    /// `true` when the blocked front group can never insert: MOP heads
    /// wait for tails it carries, the queue will not act on its own, no
    /// event is in flight and the ROB head cannot complete. A queue too
    /// small for a pending head plus a whole group gets here (a 4- or
    /// 5-entry queue under `mop-wor`); larger ones never do, since this
    /// state would otherwise last until the deadlock check fires.
    fn stalled_on_pending_heads(&mut self) -> bool {
        self.queue.has_pending_heads()
            && self.queue.next_active() == u64::MAX
            && self.rob.head().is_none_or(|h| h.complete_at.is_none())
            && self.exec_horizon <= self.now
            && self.events.iter().all(Vec::is_empty)
    }

    /// Give up every pending MOP head: each issues as a singleton.
    fn cancel_pending_heads(&mut self) {
        let mut items = std::mem::take(&mut self.form_buf);
        self.former.cancel_pending_into(&mut items);
        for item in items.drain(..) {
            self.queue.steer(item);
        }
        self.form_buf = items;
    }

    // ------------------------------------------------------------------
    // Issue & execution
    // ------------------------------------------------------------------

    fn handle_issue(&mut self, iss: &Issued) {
        let is_mop = iss.uops.len() > 1;
        if is_mop {
            self.stats.mop_entries_issued += 1;
            self.maybe_filter_last_arrival(iss);
        }
        for (k, uop) in iss.uops.iter().enumerate() {
            let Some(entry) = self.rob.get_mut(uop.id) else {
                continue; // squashed between select and bookkeeping
            };
            entry.issue_gen += 1;
            let gen = entry.issue_gen;
            // Final grouping classification: a lone uop in an entry was
            // not (or no longer is) part of a MOP.
            entry.role = if is_mop {
                uop.role
            } else {
                match uop.role {
                    GroupRole::MopValueGen
                    | GroupRole::MopNonValueGen
                    | GroupRole::MopIndependent
                    | GroupRole::NotGrouped => GroupRole::NotGrouped,
                    GroupRole::NotCandidate => GroupRole::NotCandidate,
                }
            };
            if uop.is_load {
                if let Some(t) = uop.dst {
                    entry.load_tag = Some(t);
                }
            }
            let exec_at = iss.issue_cycle + u64::from(self.cfg.exec_offset) + k as u64;
            // Only loads (the cache access and its resolution) and
            // correct-path branches that can squash (their resolution) act
            // at execute; any other uop's completion is known now.
            let rec = &self.decoded[uop.sidx as usize];
            let acts_at_exec = rec.class == InstClass::Load
                || (rec.can_squash && entry.dyn_.is_some() && !entry.branch_resolved);
            if !acts_at_exec {
                entry.complete_at = Some(exec_at + rec.fixed_latency);
                self.exec_horizon = self.exec_horizon.max(exec_at);
            }
            if self.obs.wants(EventKinds::ISSUE) {
                self.obs.emit(TraceEvent::Issue {
                    cycle: iss.issue_cycle,
                    id: uop.id,
                    sidx: uop.sidx,
                    exec_at,
                    mop: is_mop,
                });
            }
            if acts_at_exec {
                self.schedule(exec_at, Ev::Exec { id: uop.id, gen });
            }
        }
    }

    /// The last-arriving-operand filter (Section 5.4.2, Figure 12): if the
    /// operand that gated this MOP's issue belongs to the tail while the
    /// head had been ready earlier, delete the pointer and blacklist the
    /// pair so detection finds an alternative.
    fn maybe_filter_last_arrival(&mut self, iss: &Issued) {
        if !self.cfg.sched.mop.last_arrival_filter {
            return;
        }
        let head = &iss.uops[0];
        if head.role == GroupRole::MopIndependent {
            return; // identical sources: nothing to filter
        }
        let mop_tag = head.dst;
        let head_ready = head
            .srcs
            .iter()
            .filter_map(|&t| self.queue.tag_ready_time(t))
            .max()
            .unwrap_or(0);
        let tail_ready = iss.uops[1..]
            .iter()
            .flat_map(|u| u.srcs.iter())
            .filter(|&&t| Some(t) != mop_tag && !head.srcs.contains(&t))
            .filter_map(|&t| self.queue.tag_ready_time(t))
            .max();
        if let Some(tail_ready) = tail_ready {
            if tail_ready > head_ready + 1 && tail_ready + 2 >= iss.issue_cycle {
                let deleted = self.pointers.delete_and_blacklist(head.sidx);
                self.stats.last_arrival_filtered += 1;
                if deleted && self.obs.wants(EventKinds::POINTER_EVICT) {
                    self.obs.emit(TraceEvent::PointerEvict {
                        cycle: iss.issue_cycle,
                        head_sidx: head.sidx,
                        line: 0,
                        filtered: true,
                    });
                }
            }
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::Exec { id, gen } => self.exec_uop(id, gen),
            Ev::LoadResolve {
                id,
                gen,
                tag,
                hit,
                data_ready,
            } => {
                // Drop stale resolutions from replaced issues.
                if self.rob.get(id).is_none_or(|e| e.issue_gen != gen) {
                    return;
                }
                if let Some(tag) = tag {
                    // Replayed uops must not commit on (or be completed
                    // by) their stale execution: clear the completion and
                    // bump the generation so in-flight Exec/LoadResolve
                    // events from the cancelled issue are dropped.
                    let mut replayed = std::mem::take(&mut self.replay_buf);
                    self.queue
                        .load_resolved_into(tag, hit, data_ready, &mut replayed);
                    self.drain_queue_trace();
                    for &rid in &replayed {
                        if let Some(e) = self.rob.get_mut(rid) {
                            e.complete_at = None;
                            e.issue_gen += 1;
                        }
                    }
                    self.replay_buf = replayed;
                }
            }
        }
    }

    fn exec_uop(&mut self, id: UopId, gen: u32) {
        let now = self.now;
        let Some(e) = self.rob.get(id) else {
            return; // squashed
        };
        if e.issue_gen != gen {
            return; // superseded by a replay re-issue
        }
        let (rec, dyn_, load_tag) = (self.decoded[e.sidx as usize], e.dyn_, e.load_tag);
        let complete_at = match rec.class {
            InstClass::Load => {
                let (latency, hit) = match dyn_.and_then(|d| d.eff_addr) {
                    Some(_) if self.cfg.ideal_memory => (self.cfg.dl1.hit_latency, true),
                    Some(addr) => {
                        let key = addr & !7;
                        if self.store_inflight.iter().any(|&(a, _)| a == key) {
                            // Store-to-load forwarding: hit-equivalent.
                            self.stats.load_forwards += 1;
                            self.stats.dl1.0 += 1;
                            (self.cfg.dl1.hit_latency, true)
                        } else {
                            let a = self.dl1.access(addr);
                            if a.hit {
                                self.stats.dl1.0 += 1;
                                (self.cfg.dl1.hit_latency, true)
                            } else {
                                self.stats.dl1.1 += 1;
                                let l2 = self.l2.access(addr);
                                let lat = self.cfg.dl1.hit_latency
                                    + self.cfg.l2.hit_latency
                                    + if l2.hit { 0 } else { self.cfg.memory_latency };
                                (lat, false)
                            }
                        }
                    }
                    // Wrong-path load: assume a hit, no cache pollution.
                    None => (self.cfg.dl1.hit_latency, true),
                };
                // The dependent-visible data time on the scheduling scale:
                // issue + agen(1) + memory latency. exec = issue + offset.
                let issue_cycle = now - u64::from(self.cfg.exec_offset);
                let data_ready = issue_cycle + 1 + u64::from(latency);
                let discovery = now + u64::from(self.cfg.dl1.hit_latency);
                // This load's broadcast tag (MOP-translated) was recorded
                // on its ROB entry at issue.
                self.schedule(
                    discovery,
                    Ev::LoadResolve {
                        id,
                        gen,
                        tag: load_tag,
                        hit,
                        data_ready,
                    },
                );
                now + u64::from(latency)
            }
            _ => now + rec.fixed_latency,
        };
        let e = self.rob.get_mut(id).expect("checked above");
        e.complete_at = Some(complete_at);
        if rec.can_squash && dyn_.is_some() && !e.branch_resolved {
            e.branch_resolved = true;
            self.resolve_branch(id);
        }
    }

    fn resolve_branch(&mut self, id: UopId) {
        let now = self.now;
        let e = self.rob.get(id).expect("a resolving branch is in flight");
        let d = e.dyn_.expect("only correct-path branches resolve");
        let (mispredicted, ghr_cp, branch_sidx) = (e.mispredicted, e.ghr_cp, e.sidx);
        let (actual_taken, actual_next) = (d.taken, d.next_sidx);
        let pc = self.trace.program().pc_of(branch_sidx);

        match self.decoded[branch_sidx as usize].class {
            InstClass::CondBranch => self.predictor.update(pc, actual_taken, ghr_cp),
            InstClass::IndirectJump => {
                let target = self.trace.program().pc_of(actual_next);
                self.btb.update(pc, target)
            }
            _ => {}
        }
        if !mispredicted {
            return;
        }

        // --- Squash ---
        self.stats.squashes += 1;
        if self.obs.wants(EventKinds::SQUASH) {
            self.obs.emit(TraceEvent::Squash {
                cycle: now,
                from: UopId(id.0 + 1),
                branch_sidx,
            });
        }
        self.queue.squash_from(UopId(id.0 + 1));
        self.rob.truncate_after(id);
        while let Some(g) = self.front.pop_front() {
            self.recycle_group(g.insts);
        }
        let k = self
            .checkpoints
            .binary_search_by_key(&id, |c| c.id)
            .expect("a squashing branch has a checkpoint");
        self.checkpoints.truncate(k + 1);
        let cp = &self.checkpoints[k];
        self.former.squash(&cp.table);
        self.ras.restore(cp.ras.clone());
        self.predictor.restore_history(ghr_cp, actual_taken);
        self.detector.reset_window();
        self.wrong_path = false;
        self.fetch_pc = actual_next;
        self.fetch_stall_until = now + 2; // redirect bubble
        self.redirect_until = now + 2;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit_stage(&mut self) {
        let now = self.now;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.head() else {
                return;
            };
            if head.complete_at.is_none_or(|c| c > now) {
                return;
            }
            let head = self.rob.pop_head().expect("checked above");
            debug_assert!(head.dyn_.is_some(), "wrong-path uop reached commit");
            self.stats.committed += 1;
            self.last_commit_cycle = now;
            if self.obs.wants(EventKinds::COMMIT) {
                self.obs.emit(TraceEvent::Commit {
                    cycle: now,
                    id: head.id,
                    sidx: head.sidx,
                    complete_at: head.complete_at.unwrap_or(now),
                });
            }
            self.stats.roles[SimStats::role_index(head.role)] += 1;
            let rec = &self.decoded[head.sidx as usize];
            if rec.can_squash {
                let cp = self.checkpoints.pop_front();
                debug_assert_eq!(
                    cp.map(|c| c.id),
                    Some(head.id),
                    "checkpoints follow the ROB"
                );
            }
            match rec.class {
                InstClass::CondBranch => {
                    self.stats.branches += 1;
                    if head.mispredicted {
                        self.stats.mispredicts += 1;
                    }
                }
                InstClass::IndirectJump | InstClass::Return if head.mispredicted => {
                    self.stats.mispredicts += 1;
                }
                InstClass::Load => {
                    self.stats.loads += 1;
                }
                InstClass::Store => {
                    self.stats.stores += 1;
                    if let Some(addr) = head.dyn_.and_then(|d| d.eff_addr) {
                        // Retire the forwarding entry and write the cache.
                        let key = addr & !7;
                        if let Some(i) = self.store_inflight.iter().position(|&(a, _)| a == key) {
                            self.store_inflight[i].1 -= 1;
                            if self.store_inflight[i].1 == 0 {
                                self.store_inflight.swap_remove(i);
                            }
                        }
                        self.dl1.access(addr);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_core::WakeupStyle;
    use mos_isa::{DynInst, Opcode, Program, Reg, ReplayTrace, StaticInst};
    use mos_workload::spec2000;

    /// Sum `n..=1` in a counted loop, a tight chain of single-cycle ops,
    /// and return the run's statistics.
    fn run_sum_loop(n: u32, cfg: MachineConfig) -> SimStats {
        let (r1, r2) = (Reg::int(1), Reg::int(2));
        let program = Program::from_insts(
            "sum_loop",
            [
                StaticInst::li(r1, i64::from(n)),
                StaticInst::li(r2, 0),
                StaticInst::add(r2, r2, r1),
                StaticInst::addi(r1, r1, -1),
                StaticInst::branch(Opcode::Bnez, r1, 2),
                StaticInst::halt(),
            ],
        );
        // The committed path: both `li`s, then `n` trips of add, addi and
        // the branch, taken back to 2 on every trip but the last. The
        // halt is never emitted.
        let step = |sidx, next_sidx| DynInst {
            sidx,
            next_sidx,
            taken: next_sidx != sidx + 1,
            eff_addr: None,
        };
        let mut path = vec![step(0, 1), step(1, 2)];
        for trip in (1..=n).rev() {
            let back = if trip > 1 { 2 } else { 5 };
            path.extend([step(2, 3), step(3, 4), step(4, back)]);
        }
        Simulator::new(cfg, ReplayTrace::new(program, path)).run(u64::MAX)
    }

    fn run_spec(name: &str, cfg: MachineConfig, n: u64) -> SimStats {
        let t = spec2000::by_name(name).unwrap().trace(42);
        Simulator::new(cfg, t).run(n)
    }

    #[test]
    fn base_beats_two_cycle_on_dependent_chains() {
        // A long, tight single-cycle dependence chain: base sustains the
        // 1-cycle recurrence, 2-cycle scheduling halves it.
        let base = run_sum_loop(3000, MachineConfig::base_32());
        let two = run_sum_loop(3000, MachineConfig::two_cycle_32());
        assert!(
            base.ipc() > two.ipc() * 1.5,
            "base {:.3} vs 2-cycle {:.3}",
            base.ipc(),
            two.ipc()
        );
    }

    #[test]
    fn macro_op_recovers_two_cycle_loss() {
        let base = run_sum_loop(100, MachineConfig::base_32());
        let two = run_sum_loop(100, MachineConfig::two_cycle_32());
        let mop = run_sum_loop(
            100,
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0),
        );
        assert!(
            mop.ipc() > two.ipc(),
            "mop {:.3} vs two {:.3}",
            mop.ipc(),
            two.ipc()
        );
        assert!(mop.ipc() <= base.ipc() * 1.05);
        assert!(
            mop.grouped_frac() > 0.2,
            "grouping {:.3}",
            mop.grouped_frac()
        );
    }

    #[test]
    fn grouping_happens_on_spec_workloads() {
        let mop = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            30_000,
        );
        assert!(
            mop.grouped_frac() > 0.15,
            "grouped {:.3}",
            mop.grouped_frac()
        );
        assert!(mop.mop_entries_issued > 0);
        assert!(mop.pointers.0 > 0, "pointers installed");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_spec("parser", MachineConfig::base_32(), 20_000);
        let b = run_spec("parser", MachineConfig::base_32(), 20_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.mispredicts, b.mispredicts);
    }

    /// The id-indexed ROB stays exact through every squash of a branchy
    /// run, in release too: squashed ids leave empty slots behind the
    /// branch while older uops wait, and lookups find exactly the live
    /// uops.
    #[test]
    fn rob_ring_stays_exact_through_squashes() {
        const N: u64 = 10_000;
        let cfg = MachineConfig::base_32();
        let t = spec2000::by_name("gcc").unwrap().trace(42);
        let mut sim = Simulator::new(cfg.clone(), t);
        let mut gapped_cycles = 0;
        while sim.stats.committed < N {
            sim.step();
            assert!(sim.rob.agrees(), "ROB slots disagree at cycle {}", sim.now);
            let rob = &sim.rob;
            for (i, e) in rob.slots.iter().enumerate() {
                let found = rob.get(UopId(rob.base + i as u64)).map(|f| f.id);
                assert_eq!(found, e.as_ref().map(|e| e.id));
            }
            let past = UopId(rob.base + rob.slots.len() as u64);
            assert!(rob.get(past).is_none());
            assert!(rob.base == 0 || rob.get(UopId(rob.base - 1)).is_none());
            if sim.rob.slots.len() > sim.rob.len() {
                gapped_cycles += 1;
            }
            if sim.stats.committed < N {
                sim.skip_idle_cycles();
            }
        }
        let s = sim.snapshot();
        assert!(s.squashes > 100, "gcc squashes often: {}", s.squashes);
        assert!(gapped_cycles > 0, "squashed ids must leave empty slots");
        assert_eq!(s, run_spec("gcc", cfg, N), "stepping by hand matches run");
    }

    #[test]
    fn mcf_misses_the_caches() {
        let s = run_spec("mcf", MachineConfig::base_32(), 20_000);
        assert!(
            s.dl1_miss_rate() > 0.2,
            "mcf dl1 miss rate {:.3}",
            s.dl1_miss_rate()
        );
        assert!(s.ipc() < 1.0, "mcf must be memory-bound: {:.3}", s.ipc());
    }

    #[test]
    fn unrestricted_queue_is_no_worse() {
        let small = run_spec("gcc", MachineConfig::base_32(), 20_000);
        let big = run_spec("gcc", MachineConfig::base_unrestricted(), 20_000);
        assert!(big.ipc() >= small.ipc() * 0.98);
    }

    #[test]
    fn select_free_sits_between_base_and_two_cycle() {
        let base = run_spec("gap", MachineConfig::base_32(), 20_000);
        let sfsd = run_spec("gap", MachineConfig::select_free_squash_dep_32(), 20_000);
        let two = run_spec("gap", MachineConfig::two_cycle_32(), 20_000);
        assert!(
            sfsd.ipc() <= base.ipc() * 1.02,
            "squash-dep {:.3} vs base {:.3}",
            sfsd.ipc(),
            base.ipc()
        );
        assert!(
            sfsd.ipc() > two.ipc(),
            "squash-dep {:.3} vs two-cycle {:.3}",
            sfsd.ipc(),
            two.ipc()
        );
    }

    #[test]
    fn scoreboard_no_better_than_squash_dep() {
        let sd = run_spec("gap", MachineConfig::select_free_squash_dep_32(), 20_000);
        let sb = run_spec("gap", MachineConfig::select_free_scoreboard_32(), 20_000);
        assert!(
            sb.ipc() <= sd.ipc() * 1.02,
            "scoreboard {:.3} vs squash-dep {:.3}",
            sb.ipc(),
            sd.ipc()
        );
    }

    #[test]
    fn loads_replay_on_misses() {
        let s = run_spec("mcf", MachineConfig::base_32(), 20_000);
        assert!(s.queue.load_replay_uops > 0, "misses must trigger replays");
    }

    #[test]
    fn cam_and_wired_or_both_group() {
        let cam = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 1),
            30_000,
        );
        let wor = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            30_000,
        );
        assert!(cam.grouped_frac() > 0.10);
        // Wired-OR has no source-count restriction: at least as many
        // instructions grouped.
        assert!(wor.grouped_frac() >= cam.grouped_frac() * 0.95);
    }

    #[test]
    fn extra_formation_stages_cost_a_little() {
        let s0 = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0),
            20_000,
        );
        let s2 = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 2),
            20_000,
        );
        assert!(
            s2.ipc() <= s0.ipc() * 1.01,
            "deeper front end cannot help: {:.3} vs {:.3}",
            s2.ipc(),
            s0.ipc()
        );
    }

    #[test]
    fn pointers_die_with_evicted_icache_lines() {
        // A code footprint far beyond the 16KB IL1 (4096 instructions):
        // lines are continuously evicted and must take their MOP pointers
        // with them.
        let mut spec = spec2000::by_name("gzip").unwrap();
        spec.body_len = 6_000;
        let trace = spec.trace(42);
        let stats = Simulator::new(
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            trace,
        )
        .run(60_000);
        assert!(stats.il1.1 > 100, "IL1 must thrash: {} misses", stats.il1.1);
        assert!(
            stats.pointers.1 > 0,
            "evictions must invalidate pointers: {:?}",
            stats.pointers
        );
        // Grouping still happens while lines are resident.
        assert!(stats.grouped_frac() > 0.05, "{:.3}", stats.grouped_frac());
    }

    #[test]
    fn idealization_flags_eliminate_their_stalls() {
        let real = run_spec("crafty", MachineConfig::base_32(), 15_000);
        let ib = run_spec(
            "crafty",
            MachineConfig::base_32().with_ideal_branch(),
            15_000,
        );
        assert_eq!(ib.mispredicts, 0);
        assert_eq!(ib.squashes, 0);
        assert_eq!(ib.wrong_path_fetched, 0);
        assert!(ib.ipc() >= real.ipc());
        let im = run_spec("mcf", MachineConfig::base_32().with_ideal_memory(), 15_000);
        assert_eq!(im.dl1.1, 0, "no demand-load misses when ideal");
        assert_eq!(im.queue.load_replay_uops, 0, "no replays when ideal");
    }

    #[test]
    #[should_panic(expected = "exec_offset must be at least 1")]
    fn zero_exec_offset_is_rejected() {
        let mut cfg = MachineConfig::base_32();
        cfg.exec_offset = 0;
        let _ = Simulator::new(cfg, spec2000::by_name("gzip").unwrap().trace(42));
    }

    #[test]
    #[should_panic(expected = "queue_entries must be at least fetch_width")]
    fn queue_smaller_than_a_fetch_group_is_rejected() {
        let mut cfg = MachineConfig::base_32();
        cfg.sched.queue_entries = Some(cfg.fetch_width - 1);
        let _ = Simulator::new(cfg, spec2000::by_name("gzip").unwrap().trace(42));
    }

    #[test]
    #[should_panic(expected = "dl1.hit_latency must be at least 1")]
    fn zero_dl1_hit_latency_is_rejected() {
        let mut cfg = MachineConfig::base_32();
        cfg.dl1.hit_latency = 0;
        let _ = Simulator::new(cfg, spec2000::by_name("gzip").unwrap().trace(42));
    }

    /// A pending MOP head holding one of four or five entries used to
    /// wait forever for a tail that needed a whole group's worth of room.
    #[test]
    fn tiny_mop_queues_commit_their_budget() {
        for queue in [4, 5] {
            let mut cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(queue), 1);
            cfg.sched.queue_entries = Some(queue);
            let s = run_spec("gzip", cfg, 5_000);
            assert!(
                s.committed >= 5_000,
                "queue {queue}: {} commits",
                s.committed
            );
            assert!(
                s.form.cancelled > 0,
                "queue {queue}: no pending was given up"
            );
        }
    }

    /// A deeper execute pipeline, a slower DL1 and three-wide MOP chains
    /// stretch the event wheel's horizon past the default; debug builds
    /// run this under the scheduling oracle and the conservation check.
    #[test]
    fn deep_pipeline_with_mop_chains_runs_clean() {
        let mut cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
        cfg.exec_offset = 9;
        cfg.dl1.hit_latency = 4;
        cfg.sched.confirm_window = cfg.exec_offset + cfg.dl1.hit_latency + 1;
        cfg.sched.load_sched_latency = 1 + cfg.dl1.hit_latency;
        cfg.sched.mop.max_mop_size = 3;
        let s = run_spec("gzip", cfg, 20_000);
        assert!(s.committed >= 20_000);
        assert!(s.squashes > 0, "wrong paths are recovered");
        assert!(
            s.queue.load_replay_uops > 0,
            "misses replay through the wheel"
        );
        // Each granted MOP adds one uop per member past the first, so
        // uops beyond one per entry and one per MOP are third members.
        let extra_uops = s.queue.issued_uops - s.queue.issued_entries;
        assert!(
            extra_uops > s.mop_entries_issued,
            "three-wide chains issue: {extra_uops} extra uops over {} MOP grants",
            s.mop_entries_issued
        );
        assert!(s.grouped_frac() > 0.1, "grouped {:.3}", s.grouped_frac());
    }

    #[test]
    fn memory_bound_runs_skip_most_idle_cycles() {
        let trace = spec2000::by_name("mcf").unwrap().trace(42);
        let mut sim = Simulator::new(MachineConfig::base_32(), trace);
        let s = sim.run(5_000);
        assert!(
            sim.skipped_cycles() * 3 > s.cycles,
            "mcf skipped {} of {} cycles",
            sim.skipped_cycles(),
            s.cycles
        );
        assert_eq!(s.queue.cycles, s.cycles, "the queue saw every cycle");
    }

    #[test]
    fn precise_detection_runs_crafty_to_completion() {
        // Precise detection once paired (i1, i4) around the MOP {i0, i2}
        // here, which waits on i1 and feeds i4 through i3: a cycle of two
        // MOPs that deadlocked after about 600 commits.
        let program = spec2000::by_name("crafty").unwrap().build(42);
        let mut cfg = MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1);
        cfg.sched.mop.cycle_detection = mos_core::CycleDetection::Precise;
        let s = Simulator::new(cfg, program.walk(42)).run(30_000);
        assert!(s.committed >= 30_000, "{} commits", s.committed);
        assert!(s.detect.dependent_pairs > 0);
    }
}
