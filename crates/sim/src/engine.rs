//! Discrete-event execution engine for one streaming multiprocessor.
//!
//! Every warp group of every resident CTA is an *actor* stepping through its
//! WSIR instruction stream. Each instruction execution is an event; shared
//! SM resources (the Tensor Core pipeline, the CUDA-core pipeline, and the
//! memory channel feeding the SM) are FIFO-serialized. Asynchronous
//! operations (TMA copies, WGMMA groups, cp.async) complete via future
//! events that signal mbarriers or in-flight counters and wake blocked
//! actors. If all actors block with no pending events, the engine reports a
//! deadlock with a full state dump — the failure mode the paper's `aref`
//! discipline is designed to rule out.
//!
//! # Skipping the steady state
//!
//! A software-pipelined kernel spends almost all of its trips in a steady
//! state: once the aref ring is full, every K-loop trip replays the one
//! before it, one period later. The engine walks the prologue, a couple of
//! periods and the epilogue, and jumps over the rest **exactly**.
//!
//! The whole machine lives in one struct (`Sm`). At every loop back-edge
//! of one *anchor* actor (CTA 0's busiest looping warp group,
//! [`tawa_wsir::period::anchor_warp_group`]) it takes a **signature**: the
//! state with everything that grows linearly taken out. If the signature
//! equals one taken earlier, the interval between the two is a period; the
//! shared detector ([`tawa_wsir::period`]) validates the loop frames and
//! says how many periods `n` fit before any loop would exit, and
//! `Sm::advance` moves every clock and counter by `n ×` its change over
//! the period. Simulation then resumes event by event.
//!
//! What is in the signature, and in which form:
//!
//! * **times as offsets from now** — pending events in pop order as
//!   `(time − now, event)`, `tc_free` / `mem_free` saturating at 0 (a
//!   resource free in the past is just free), `blocked_since` only while
//!   an actor is blocked, the CUDA pipe's `last_update` (signed) only
//!   while it has jobs. A `CudaTick` compares as live or stale, not by
//!   generation number;
//! * **barrier phases as differences** — an actor's `local_phase[b]`
//!   enters as `completed_phases(b) − local_phase[b]`, and only for the
//!   barriers its program waits on: nothing else ever reads it, and for
//!   any other barrier the difference grows every period. The in-phase
//!   barrier state (`arrivals`, `tx_expected`, `tx_done`) and the
//!   `syncthreads` rendezvous counts compare as they are;
//! * **control state as it is** — status, in-flight WGMMA / cp.async
//!   counts, and every loop frame's body and `pc`. Processor-sharing job
//!   remainders compare by `f64::to_bits`: if they never repeat bit for
//!   bit, there is no skip;
//! * **trip counters through frame instances** — every pushed frame gets
//!   an instance id; the detector accepts a moved `remaining` only on the
//!   same instance at both ends and requires a re-instantiated frame to
//!   stand at an equal `remaining`, which is what lets one comparison
//!   cover both the K-loop trips and the whole tiles of a persistent
//!   kernel.
//!
//! Why this is exact: every handler computes with `t + constant`,
//! `max(t + c, resource_free)`, `now − blocked_since` and
//! `completed > local` — all unchanged when every time moves by the same
//! amount and a barrier's two phase counters move together. Loop exits
//! are the only place an absolute counter steers control, and the skip
//! stops one trip short of the first of them. So the event sequence after
//! the jump is the plain run's, shifted; all ten [`EngineStats`] counters
//! are sums over that sequence and advance linearly. `SimReport`s and
//! deadlock strings are bit-identical to walking every trip, which is why
//! [`crate::COST_MODEL_VERSION`] does not mention any of this. A kernel
//! without an exact period (or with too few trips) simply runs as before;
//! the cost of looking is bounded by the detector's miss back-off. There
//! is no switch: the plain walk survives only as the tests' reference
//! ([`run_sm_reference`]). A jump is computed with checked arithmetic: a
//! run long enough to take a clock or a counter past `u64::MAX` ends as
//! [`EngineResult::overflow`], where walking it would eventually have
//! wrapped.
//!
//! # Walking a kernel's classes as one family
//!
//! The CTA classes of a kernel differ only in their trip counts, and a
//! trip count is read only where a loop is pushed and where a back-edge
//! asks `remaining > 1`. [`run_classes`] — what `simulate` calls — walks
//! them through one [`tawa_wsir::period::Family`]: at its first skip a
//! class offers a clone of the whole `Sm` (before the jump) as a
//! checkpoint; a later class whose params provably give every question
//! asked so far the same answer starts from that clone, its live frames
//! lowered, and takes the interrupted step again; and right after a skip
//! a class standing where one that finished cleanly once stood adds that
//! one's recorded tail — cycles to the end, the ten counters — instead of
//! walking it. Per class the result is bit-identical to [`run_sm`]; only
//! [`EngineResult::events`] differs, counting what was walked for that
//! class alone. What a footprint is, why admission and tail reuse are
//! exact, and the walk order live with the detector in
//! [`tawa_wsir::period`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use tawa_wsir::period::{
    anchor_warp_group, extrapolate, lowered, waited_barriers, Family, Footprint, FrameMark,
    PeriodDetector, TailKey,
};
use tawa_wsir::{Count, CtaClass, Instr, Kernel};

use crate::device::Device;
use crate::mbarrier::Mbarrier;

/// Per-SM bandwidth configuration computed by the scheduler from device
/// constants and how many SMs are concurrently active.
#[derive(Debug, Clone, Copy)]
pub struct EngineCfg {
    /// Effective load bandwidth per SM (bytes/cycle) for TMA transfers.
    pub load_bw: f64,
    /// Effective store bandwidth per SM (bytes/cycle).
    pub store_bw: f64,
}

/// Counters accumulated during one SM simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total simulated cycles (completion of the slowest actor + drains).
    pub cycles: u64,
    /// Cycles the Tensor Core pipeline was busy.
    pub tc_busy: u64,
    /// Cycles the CUDA-core pipeline was busy.
    pub cuda_busy: u64,
    /// Cycles the memory channel was busy.
    pub mem_busy: u64,
    /// Bytes loaded from global memory.
    pub bytes_loaded: u64,
    /// Bytes stored to global memory.
    pub bytes_stored: u64,
    /// Tensor-core FLOPs executed.
    pub tc_flops: u64,
    /// Cycles actors spent blocked on mbarrier waits (by role name).
    pub stall_barrier: u64,
    /// Cycles actors spent blocked on WGMMA pipeline waits.
    pub stall_wgmma: u64,
    /// Cycles actors spent blocked on cp.async waits.
    pub stall_cpasync: u64,
    /// Cycles actors spent blocked at CTA-wide syncthreads.
    pub stall_sync: u64,
}

impl EngineStats {
    /// Sets each of the ten running counters to `f(it, its value in
    /// other)`; `None` as soon as one `f` is. `cycles` is not a running
    /// counter: it is derived once, when the run ends.
    fn combine(&mut self, other: &EngineStats, f: impl Fn(u64, u64) -> Option<u64>) -> Option<()> {
        for (cur, other) in [
            (&mut self.tc_busy, other.tc_busy),
            (&mut self.cuda_busy, other.cuda_busy),
            (&mut self.mem_busy, other.mem_busy),
            (&mut self.bytes_loaded, other.bytes_loaded),
            (&mut self.bytes_stored, other.bytes_stored),
            (&mut self.tc_flops, other.tc_flops),
            (&mut self.stall_barrier, other.stall_barrier),
            (&mut self.stall_wgmma, other.stall_wgmma),
            (&mut self.stall_cpasync, other.stall_cpasync),
            (&mut self.stall_sync, other.stall_sync),
        ] {
            *cur = f(*cur, other)?;
        }
        Some(())
    }
}

/// Result of simulating one SM-wave.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Accumulated counters.
    pub stats: EngineStats,
    /// If the kernel deadlocked, a description of the blocked state.
    pub deadlock: Option<String>,
    /// Events popped from the queue — the engine's unit of host work.
    /// Deterministic, and deliberately outside [`EngineStats`] so no
    /// serialized report carries it.
    pub events: u64,
    /// Loop trips (over all actors) that were jumped rather than walked.
    pub fast_forwarded_trips: u64,
    /// A jump would have taken a clock or a counter past `u64::MAX`, as
    /// walking every trip eventually would: `stats` mean nothing.
    pub overflow: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    BlockedBar(usize),
    BlockedWgmma(u32),
    BlockedCp(u32),
    BlockedSync,
    Done,
}

#[derive(Clone)]
struct Frame<'k> {
    body: &'k [Instr],
    pc: usize,
    remaining: u64,
    /// Instance id, unique per push (see the module docs on frames).
    id: u64,
    /// The `Count::Param` the trip count came from, if it was one.
    param: Option<usize>,
}

#[derive(Clone)]
struct Actor<'k> {
    cta: usize,
    wg: usize,
    frames: Vec<Frame<'k>>,
    status: Status,
    local_phase: Vec<u64>,
    wgmma_inflight: u32,
    cpasync_inflight: u32,
    blocked_since: u64,
}

impl Actor<'_> {
    fn is_blocked(&self) -> bool {
        !matches!(self.status, Status::Running | Status::Done)
    }

    /// Ends a stall that began at `blocked_since`, charging it to `stalled`.
    fn unstall(&mut self, now: u64, stalled: &mut u64) {
        *stalled += now.saturating_sub(self.blocked_since);
        self.status = Status::Running;
    }
}

// `Ord` only so events can sit in the heap entry: `(time, seq)` is unique,
// so the order on `Event` itself is never consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Execute the next instruction of actor `i`.
    Step(usize),
    /// A TMA transfer completed into global barrier `gbar` with `bytes`.
    TmaDone { gbar: usize, bytes: u64 },
    /// A WGMMA group issued by actor `i` retired.
    WgmmaDone(usize),
    /// A cp.async group issued by actor `i` landed.
    CpDone(usize),
    /// Re-evaluate the processor-shared CUDA pipeline (generation-tagged so
    /// stale completions are ignored after rate changes).
    CudaTick(u64),
}

/// Pending events, popped in `(time, push order)` order.
#[derive(Clone, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, t: u64, e: Event) {
        self.heap.push(Reverse((t, self.seq, e)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e))
    }

    /// Moves every pending event `dt` cycles later; a uniform shift keeps
    /// the pop order. `None` when a time would overflow.
    fn shift(&mut self, dt: u64) -> Option<()> {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        for Reverse((t, _, _)) in &mut entries {
            *t = t.checked_add(dt)?;
        }
        self.heap = BinaryHeap::from(entries);
        Some(())
    }

    /// The pending `(time, push order, event)` entries in pop order.
    fn in_order(&self) -> Vec<(u64, u64, Event)> {
        let mut entries: Vec<_> = self.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        entries
    }
}

/// The CUDA-core / SFU pipeline as a processor-sharing server: `n`
/// concurrent warp groups each progress at `1/n` of the issue rate, exactly
/// as a fair round-robin warp scheduler interleaves them. This is what
/// keeps two cooperative consumer warp groups phase-locked when both run
/// softmax simultaneously — the effect FlashAttention-3's ping-pong
/// scheduling (and Tawa's coarse pipeline) is designed to break.
#[derive(Debug, Clone, Default)]
struct CudaPs {
    /// Active jobs: `(actor, remaining full-rate cycles)`.
    jobs: Vec<(usize, f64)>,
    last_update: u64,
    gen: u64,
}

impl CudaPs {
    /// Advances all jobs to time `t`, returning actors whose work finished.
    fn update(&mut self, t: u64, busy: &mut u64) -> Vec<usize> {
        let elapsed = t.saturating_sub(self.last_update);
        self.last_update = t;
        if !self.jobs.is_empty() && elapsed > 0 {
            *busy += elapsed;
            let share = elapsed as f64 / self.jobs.len() as f64;
            for job in &mut self.jobs {
                job.1 -= share;
            }
        }
        let mut done = Vec::new();
        self.jobs.retain(|&(actor, rem)| {
            if rem <= 1e-6 {
                done.push(actor);
                false
            } else {
                true
            }
        });
        done
    }

    /// Next completion time under the current sharing rate.
    fn next_completion(&mut self) -> Option<(u64, u64)> {
        let min = self
            .jobs
            .iter()
            .map(|&(_, r)| r)
            .fold(f64::INFINITY, f64::min);
        if !min.is_finite() {
            return None;
        }
        self.gen += 1;
        let dt = (min * self.jobs.len() as f64).ceil().max(1.0) as u64;
        Some((self.last_update + dt, self.gen))
    }
}

/// Absolute clocks and counters at a snapshot: what [`Sm::advance`]
/// extrapolates from.
#[derive(Clone)]
struct Mark {
    t: u64,
    stats: EngineStats,
    /// Every barrier's completed phases, then every actor's `local_phase`.
    phases: Vec<u64>,
}

/// What a class added to its clocks and counters walking from a
/// [`TailKey`] to a clean end: `cycles` is the end's distance from the key's
/// time, the running counters their growth.
struct Tail(EngineStats);

/// Why a run ended before its queue did.
#[derive(Clone, Copy, PartialEq)]
enum Halt {
    /// An earlier class's tail stands in for the rest (and has been added).
    TailReused,
    Overflow,
}

/// A kernel's classes as the engine walks them: the checkpoint is the whole
/// machine plus the time of the step (the anchor's) it was taken in.
type Classes<'k> = Family<'k, (Sm<'k>, u64), Tail>;

/// One SM with its resident CTAs: the engine's whole state.
#[derive(Clone)]
struct Sm<'k> {
    kernel: &'k Kernel,
    device: &'k Device,
    cfg: &'k EngineCfg,
    residents: Vec<&'k CtaClass>,
    nbars: usize,
    /// `residents.len() × nbars` barriers, CTA-major.
    barriers: Vec<Mbarrier>,
    actors: Vec<Actor<'k>>,
    queue: EventQueue,
    tc_free: u64,
    cuda: CudaPs,
    mem_free: u64,
    stats: EngineStats,
    /// `syncthreads` rendezvous state per CTA.
    sync_arrived: Vec<u32>,
    done_count: usize,
    last_time: u64,
    next_frame_id: u64,
    /// Per warp group, the barriers its program waits on.
    waits: Rc<[Vec<usize>]>,
    /// The actor whose back-edges are snapshotted, if any loops.
    anchor: Option<usize>,
    detector: PeriodDetector<Mark>,
    /// Every answer a trip count has given so far — kept until the first
    /// skip, and only while a later class might start from this one.
    footprint: Option<Footprint>,
    /// The states this class stood in right after each skip, with its time
    /// and counters then.
    skips: Vec<(TailKey, u64, EngineStats)>,
    halt: Option<Halt>,
    events: u64,
    fast_forwarded_trips: u64,
}

/// Simulates `residents` CTAs of `kernel` sharing one SM.
///
/// Each entry of `residents` selects the CTA class executed by that
/// resident. Returns aggregate statistics; `deadlock` is set (instead of
/// panicking) when no progress is possible. Periodic stretches of the
/// instruction stream are skipped exactly (see the module docs).
pub fn run_sm(
    kernel: &Kernel,
    device: &Device,
    residents: &[&CtaClass],
    cfg: &EngineCfg,
) -> EngineResult {
    Sm::new(kernel, device, residents.to_vec(), cfg, true, false).run(&mut Family::default())
}

/// [`run_sm`] walking every trip of every loop: the reference the
/// differential tests hold the fast-forwarding engine against. Not a mode
/// of the product — nothing outside tests calls it.
#[doc(hidden)]
pub fn run_sm_reference(
    kernel: &Kernel,
    device: &Device,
    residents: &[&CtaClass],
    cfg: &EngineCfg,
) -> EngineResult {
    Sm::new(kernel, device, residents.to_vec(), cfg, false, false).run(&mut Family::default())
}

/// Simulates one SM-wave of every CTA class of `kernel`, `occ` residents
/// of the class each, and returns the results in class order — what
/// [`run_sm`] returns per class, except that `events` and
/// `fast_forwarded_trips` count only what was walked and jumped *for* that
/// class: the classes run as one family (module docs), so a class that
/// starts from another's checkpoint does not count the shared prefix, and
/// one that reuses a known tail does not count the tail.
pub fn run_classes(
    kernel: &Kernel,
    device: &Device,
    occ: u32,
    cfg: &EngineCfg,
) -> Vec<EngineResult> {
    let mut family: Classes<'_> = Family::of(kernel);
    let mut results: Vec<Option<EngineResult>> = vec![None; kernel.classes.len()];
    while let Some(ci) = family.next_class() {
        let class = &kernel.classes[ci];
        let result = match family.admit(&class.params) {
            Some(((checkpoint, t), lower_by)) => {
                // Take the interrupted step again, then the queue.
                let (mut sm, t) = (checkpoint.resumed(class, &lower_by), *t);
                if let Some(anchor) = sm.anchor {
                    sm.step(anchor, t, &mut family);
                }
                sm.run(&mut family)
            }
            None => {
                let residents = (0..occ).map(|_| class).collect();
                let track = family.has_pending();
                Sm::new(kernel, device, residents, cfg, true, track).run(&mut family)
            }
        };
        results[ci] = Some(result);
    }
    results.into_iter().flatten().collect()
}

impl<'k> Sm<'k> {
    /// The machine at launch. `fast_forward = false` walks every trip;
    /// `track` keeps a [`Footprint`] so a later class may start from here.
    fn new(
        kernel: &'k Kernel,
        device: &'k Device,
        residents: Vec<&'k CtaClass>,
        cfg: &'k EngineCfg,
        fast_forward: bool,
        track: bool,
    ) -> Sm<'k> {
        let nbars = kernel.barriers.len();
        let mut barriers: Vec<Mbarrier> = Vec::with_capacity(nbars * residents.len());
        for _ in &residents {
            for b in &kernel.barriers {
                barriers.push(Mbarrier::new(b.arrive_count, b.init_phases));
            }
        }

        let mut actors: Vec<Actor<'_>> = Vec::new();
        let mut queue = EventQueue::default();
        for (cta, _) in residents.iter().enumerate() {
            for (wg, wgp) in kernel.warp_groups.iter().enumerate() {
                // CTA start cost staggers actor start slightly (descriptor
                // setup etc).
                queue.push(device.cta_start_cycles, Event::Step(actors.len()));
                actors.push(Actor {
                    cta,
                    wg,
                    frames: vec![Frame {
                        body: &wgp.body,
                        pc: 0,
                        remaining: 1,
                        id: actors.len() as u64,
                        param: None,
                    }],
                    status: Status::Running,
                    local_phase: vec![0; nbars],
                    wgmma_inflight: 0,
                    cpasync_inflight: 0,
                    blocked_since: 0,
                });
            }
        }

        // CTA 0's actors come first, so its warp group index is the actor
        // index.
        let anchor = residents
            .first()
            .filter(|_| fast_forward)
            .and_then(|class| anchor_warp_group(kernel, &class.params));
        let nparams = residents.first().map_or(0, |class| class.params.len());
        Sm {
            kernel,
            device,
            cfg,
            nbars,
            barriers,
            queue,
            tc_free: 0,
            cuda: CudaPs::default(),
            mem_free: 0,
            stats: EngineStats::default(),
            sync_arrived: vec![0; residents.len()],
            done_count: 0,
            last_time: 0,
            next_frame_id: actors.len() as u64,
            waits: kernel
                .warp_groups
                .iter()
                .map(|wg| {
                    let mut waited = waited_barriers(&wg.body);
                    waited.retain(|&b| b < nbars);
                    waited
                })
                .collect(),
            anchor,
            detector: PeriodDetector::default(),
            footprint: (track && anchor.is_some()).then(|| Footprint::new(nparams)),
            skips: Vec::new(),
            halt: None,
            residents,
            actors,
            events: 0,
            fast_forwarded_trips: 0,
        }
    }

    /// This checkpoint as the machine of `class`, whose params are lower
    /// than the checkpointed class's by `lower_by` and otherwise ask nothing
    /// the prefix has not answered the same way: every live frame (here and
    /// in the detector's history) stands that much lower.
    fn resumed(&self, class: &'k CtaClass, lower_by: &[u64]) -> Sm<'k> {
        let mut sm = self.clone();
        sm.residents.fill(class);
        sm.events = 0;
        sm.fast_forwarded_trips = 0;
        for f in sm.actors.iter_mut().flat_map(|a| &mut a.frames) {
            f.remaining -= lowered(f.param, lower_by);
        }
        sm.detector.lower(lower_by);
        sm
    }

    fn run(mut self, family: &mut Classes<'k>) -> EngineResult {
        while self.halt.is_none() && self.done_count != self.actors.len() {
            let Some((t, event)) = self.queue.pop() else {
                break;
            };
            self.events += 1;
            self.last_time = self.last_time.max(t);
            match event {
                Event::TmaDone { gbar, bytes } => {
                    if self.barriers[gbar].arrive_tx(bytes) {
                        self.wake_waiters(gbar, t);
                    }
                }
                Event::WgmmaDone(i) => {
                    let a = &mut self.actors[i];
                    a.wgmma_inflight -= 1;
                    if matches!(a.status, Status::BlockedWgmma(p) if a.wgmma_inflight <= p) {
                        a.unstall(t, &mut self.stats.stall_wgmma);
                        self.queue
                            .push(t + self.device.wgmma_drain_cycles, Event::Step(i));
                    }
                }
                Event::CpDone(i) => {
                    let a = &mut self.actors[i];
                    a.cpasync_inflight -= 1;
                    if matches!(a.status, Status::BlockedCp(p) if a.cpasync_inflight <= p) {
                        a.unstall(t, &mut self.stats.stall_cpasync);
                        self.queue.push(t, Event::Step(i));
                    }
                }
                Event::CudaTick(gen) => {
                    // A tick superseded by a rate change is ignored.
                    if gen == self.cuda.gen {
                        self.settle_cuda(t);
                        self.tick_cuda();
                    }
                }
                Event::Step(i) => {
                    if self.actors[i].status == Status::Running {
                        self.step(i, t, family);
                    }
                }
            }
        }

        let overflow = self.halt == Some(Halt::Overflow);
        let mut deadlock = None;
        if self.halt.is_none() {
            deadlock = (self.done_count != self.actors.len()).then(|| self.describe_deadlock());
            self.stats.cycles = self
                .last_time
                .max(self.mem_free)
                .max(self.tc_free)
                .max(self.cuda.last_update);
        }
        // A clean end: what this class added since each of its skips is
        // what any class standing at an equal key will add.
        if !overflow && deadlock.is_none() && family.has_pending() {
            for (key, t, at) in std::mem::take(&mut self.skips) {
                let mut tail = self.stats.clone();
                tail.cycles = tail.cycles.saturating_sub(t);
                if tail.combine(&at, u64::checked_sub).is_some() {
                    family.record(key, Tail(tail));
                }
            }
        }
        EngineResult {
            stats: self.stats,
            deadlock,
            events: self.events,
            fast_forwarded_trips: self.fast_forwarded_trips,
            overflow,
        }
    }

    /// A phase of `gbar` completed at `t`: wake the actors blocked on it.
    /// Their PC already moved past the wait, so the phase is consumed here.
    fn wake_waiters(&mut self, gbar: usize, t: u64) {
        for (i, a) in self.actors.iter_mut().enumerate() {
            if a.status == Status::BlockedBar(gbar) {
                a.local_phase[gbar % self.nbars] += 1;
                a.unstall(t, &mut self.stats.stall_barrier);
                self.queue
                    .push(t + self.device.mbar_wake_cycles, Event::Step(i));
            }
        }
    }

    /// Brings the CUDA pipe to time `t` and resumes the actors whose jobs
    /// finished.
    fn settle_cuda(&mut self, t: u64) {
        for a in self.cuda.update(t, &mut self.stats.cuda_busy) {
            self.queue.push(t, Event::Step(a));
        }
    }

    /// Schedules the CUDA pipe's next completion under its current rate.
    fn tick_cuda(&mut self) {
        if let Some((tn, gen)) = self.cuda.next_completion() {
            self.queue.push(tn, Event::CudaTick(gen));
        }
    }

    /// Occupies the memory channel for `bytes` at `bw` no earlier than
    /// `ready`; returns when the transfer has left the channel.
    fn transfer(&mut self, ready: u64, bytes: u64, bw: f64) -> u64 {
        let start = ready.max(self.mem_free);
        let dur = (bytes as f64 / bw).ceil() as u64;
        self.mem_free = start + dur;
        self.stats.mem_busy += dur;
        self.mem_free
    }

    /// Fetches actor `i`'s next instruction, unwinding finished frames and
    /// taking loop back-edges. At the anchor's back-edges the period
    /// detector may move the whole machine — `t` included — forward, or end
    /// the run (`halt`).
    fn fetch(&mut self, i: usize, t: &mut u64, family: &mut Classes<'k>) -> Option<&'k Instr> {
        loop {
            let frame = self.actors[i].frames.last_mut()?;
            if frame.pc < frame.body.len() {
                let ins = &frame.body[frame.pc];
                frame.pc += 1;
                return Some(ins);
            }
            if frame.remaining > 1 && self.anchor == Some(i) && self.detector.due() {
                self.fast_forward(t, family);
                if self.halt.is_some() {
                    return None;
                }
            }
            let frames = &mut self.actors[i].frames;
            let frame = frames.last_mut()?;
            if let (Some(footprint), Some(p)) = (&mut self.footprint, frame.param) {
                footprint.tested(p, frame.remaining);
            }
            if frame.remaining > 1 {
                frame.remaining -= 1;
                frame.pc = 0;
            } else {
                frames.pop();
            }
        }
    }

    fn step(&mut self, i: usize, mut t: u64, family: &mut Classes<'k>) {
        let Some(instr) = self.fetch(i, &mut t, family) else {
            if self.halt.is_none() {
                self.actors[i].status = Status::Done;
                self.done_count += 1;
            }
            return;
        };
        let device = self.device;
        let issue = device.instr_issue_cycles;
        let cta = self.actors[i].cta;
        match *instr {
            Instr::Loop { count, ref body } => {
                let trips = count.resolve(&self.residents[cta].params);
                let param = match count {
                    Count::Param(p) if !body.is_empty() => Some(p),
                    _ => None,
                };
                if let (Some(footprint), Some(p)) = (&mut self.footprint, param) {
                    footprint.resolved(p, trips);
                }
                if trips > 0 && !body.is_empty() {
                    self.actors[i].frames.push(Frame {
                        body,
                        pc: 0,
                        remaining: trips,
                        id: self.next_frame_id,
                        param,
                    });
                    self.next_frame_id += 1;
                }
                self.queue
                    .push(t + device.loop_overhead_cycles, Event::Step(i));
            }
            Instr::TmaLoad { bytes, bar } => {
                let gbar = cta * self.nbars + bar.0 as usize;
                self.barriers[gbar].expect_tx(bytes);
                let landed = self.transfer(t + issue, bytes, self.cfg.load_bw);
                self.stats.bytes_loaded += bytes;
                self.queue.push(
                    landed + device.tma_latency_cycles,
                    Event::TmaDone { gbar, bytes },
                );
                self.queue.push(t + issue, Event::Step(i));
            }
            Instr::TmaStore { bytes } => {
                self.transfer(t + issue, bytes, self.cfg.store_bw);
                self.stats.bytes_stored += bytes;
                self.queue.push(t + issue, Event::Step(i));
            }
            Instr::CpAsync { bytes } => {
                // Issue occupies the warp group proportionally to size.
                let issue_cost =
                    ((bytes as f64 / 2048.0) * device.cp_async_issue_cycles_per_2kb).ceil() as u64;
                let bw = self.cfg.load_bw * device.cp_async_efficiency;
                let landed = self.transfer(t + issue_cost, bytes, bw);
                self.stats.bytes_loaded += bytes;
                self.actors[i].cpasync_inflight += 1;
                self.queue
                    .push(landed + device.global_load_latency_cycles, Event::CpDone(i));
                self.queue.push(t + issue_cost, Event::Step(i));
            }
            Instr::CpAsyncWait { pending } => {
                if self.actors[i].cpasync_inflight <= pending {
                    self.queue.push(t + issue, Event::Step(i));
                } else {
                    self.actors[i].status = Status::BlockedCp(pending);
                    self.actors[i].blocked_since = t;
                }
            }
            Instr::MbarArrive { bar } => {
                let gbar = cta * self.nbars + bar.0 as usize;
                if self.barriers[gbar].arrive() {
                    self.wake_waiters(gbar, t);
                }
                self.queue.push(t + issue, Event::Step(i));
            }
            Instr::MbarWait { bar } => {
                let b = bar.0 as usize;
                let gbar = cta * self.nbars + b;
                let a = &mut self.actors[i];
                if self.barriers[gbar].completed_phases() > a.local_phase[b] {
                    a.local_phase[b] += 1;
                    self.queue.push(t + issue, Event::Step(i));
                } else {
                    a.status = Status::BlockedBar(gbar);
                    a.blocked_since = t;
                }
            }
            Instr::WgmmaIssue { m, n, k, dtype } => {
                let flops = 2 * m as u64 * n as u64 * k as u64;
                let rate = device.tc_flops_per_cycle(dtype);
                let start = (t + issue).max(self.tc_free);
                let dur = (flops as f64 / rate).ceil() as u64;
                self.tc_free = start + dur;
                self.stats.tc_busy += dur;
                self.stats.tc_flops += flops;
                self.actors[i].wgmma_inflight += 1;
                self.queue.push(start + dur, Event::WgmmaDone(i));
                self.queue.push(t + issue, Event::Step(i));
            }
            Instr::WgmmaWait { pending } => {
                if self.actors[i].wgmma_inflight <= pending {
                    self.queue.push(t + issue, Event::Step(i));
                } else {
                    self.actors[i].status = Status::BlockedWgmma(pending);
                    self.actors[i].blocked_since = t;
                }
            }
            Instr::CudaOp { flops, sfu, .. } => {
                let work = flops as f64 / device.cuda_flops_per_cycle
                    + sfu as f64 / device.sfu_ops_per_cycle;
                self.settle_cuda(t + issue);
                self.cuda.jobs.push((i, work.max(1.0)));
                // The actor resumes when its own job completes (via
                // CudaTick); no Step is scheduled here.
                self.tick_cuda();
            }
            Instr::GlobalStore { bytes } => {
                // st.global issue: 512 B/cycle per warp group.
                let issue_cost = (bytes as f64 / 512.0).ceil() as u64;
                self.transfer(t + issue_cost, bytes, self.cfg.store_bw);
                self.stats.bytes_stored += bytes;
                self.queue.push(t + issue_cost, Event::Step(i));
            }
            Instr::GlobalLoad { bytes } => {
                let landed = self.transfer(t + issue, bytes, self.cfg.load_bw);
                self.stats.bytes_loaded += bytes;
                // Synchronous: the actor resumes after the data lands.
                self.queue
                    .push(landed + device.global_load_latency_cycles, Event::Step(i));
            }
            Instr::Syncthreads => {
                self.sync_arrived[cta] += 1;
                if self.sync_arrived[cta] == self.kernel.warp_groups.len() as u32 {
                    self.sync_arrived[cta] = 0;
                    for (j, a) in self.actors.iter_mut().enumerate() {
                        if a.cta == cta && a.status == Status::BlockedSync {
                            a.unstall(t, &mut self.stats.stall_sync);
                            self.queue.push(t + issue, Event::Step(j));
                        }
                    }
                    self.queue.push(t + issue, Event::Step(i));
                } else {
                    self.actors[i].status = Status::BlockedSync;
                    self.actors[i].blocked_since = t;
                }
            }
            Instr::SetMaxNReg { .. } => self.queue.push(t, Event::Step(i)),
            Instr::Delay { cycles } => self.queue.push(t + cycles, Event::Step(i)),
        }
    }

    /// The state at time `t` with everything linear taken out (module
    /// docs), plus every live loop frame in actor order.
    fn signature(&self, t: u64) -> (Vec<u64>, Vec<FrameMark>) {
        let mut sig = Vec::with_capacity(128);
        for a in &self.actors {
            let (tag, arg) = match a.status {
                Status::Running => (0, 0),
                Status::BlockedBar(gbar) => (1, gbar as u64),
                Status::BlockedWgmma(p) => (2, p as u64),
                Status::BlockedCp(p) => (3, p as u64),
                Status::BlockedSync => (4, 0),
                Status::Done => (5, 0),
            };
            let stalled_for = if a.is_blocked() {
                t - a.blocked_since
            } else {
                0
            };
            sig.extend([
                tag,
                arg,
                stalled_for,
                a.wgmma_inflight as u64,
                a.cpasync_inflight as u64,
                a.frames.len() as u64,
            ]);
            for f in &a.frames {
                sig.extend([f.body.as_ptr() as u64, f.pc as u64]);
            }
            for &b in &self.waits[a.wg] {
                let completed = self.barriers[a.cta * self.nbars + b].completed_phases();
                sig.push(completed - a.local_phase[b]);
            }
        }
        for b in &self.barriers {
            sig.extend(b.in_phase_state());
        }
        sig.extend(self.sync_arrived.iter().map(|&n| n as u64));
        sig.extend([
            self.tc_free.saturating_sub(t),
            self.mem_free.saturating_sub(t),
            self.cuda.jobs.len() as u64,
        ]);
        for &(actor, rem) in &self.cuda.jobs {
            sig.extend([actor as u64, rem.to_bits()]);
        }
        if !self.cuda.jobs.is_empty() {
            sig.push(self.cuda.last_update.wrapping_sub(t));
        }
        let pending = self.queue.in_order();
        sig.push(pending.len() as u64);
        for (time, _, event) in pending {
            let (tag, a, b) = match event {
                Event::Step(i) => (0, i as u64, 0),
                Event::TmaDone { gbar, bytes } => (1, gbar as u64, bytes),
                Event::WgmmaDone(i) => (2, i as u64, 0),
                Event::CpDone(i) => (3, i as u64, 0),
                Event::CudaTick(gen) => (4, (gen == self.cuda.gen) as u64, 0),
            };
            sig.extend([time - t, tag, a, b]);
        }
        (sig, self.frame_marks())
    }

    /// Every live loop frame in actor order.
    fn frame_marks(&self) -> Vec<FrameMark> {
        (self.actors.iter().flat_map(|a| &a.frames))
            .map(|f| FrameMark {
                id: f.id,
                remaining: f.remaining,
                param: f.param,
            })
            .collect()
    }

    /// The trip counts of the class being walked (CTA 0's: a family's
    /// residents all run one class).
    fn params(&self) -> &'k [u64] {
        self.residents.first().map_or(&[], |class| &class.params)
    }

    fn mark(&self, t: u64) -> Mark {
        let completed = self.barriers.iter().map(Mbarrier::completed_phases);
        let local = self
            .actors
            .iter()
            .flat_map(|a| a.local_phase.iter().copied());
        Mark {
            t,
            stats: self.stats.clone(),
            phases: completed.chain(local).collect(),
        }
    }

    /// At an anchor back-edge at time `*t`: if this state was seen before,
    /// jump as many whole periods as fit — and, standing where an earlier
    /// class stood, add its tail instead of walking it.
    fn fast_forward(&mut self, t: &mut u64, family: &mut Classes<'k>) {
        let (sig, frames) = self.signature(*t);
        let Some(skip) = self.detector.observe(sig, frames, self.mark(*t)) else {
            return;
        };
        // The first skip: what comes before it is what classes can share.
        if let Some(footprint) = self.footprint.take() {
            family.offer(&footprint, self.params(), || (self.clone(), *t));
        }
        if self
            .advance(&skip.then, skip.periods, &skip.frame_deltas, t)
            .is_none()
        {
            self.halt = Some(Halt::Overflow);
            return;
        }
        self.fast_forwarded_trips += skip.trips(skip.periods);
        if !family.is_family() {
            return;
        }

        let key = family.tail_key(
            skip.sig,
            &self.frame_marks(),
            self.params(),
            self.residents.len(),
        );
        match family.tail(&key) {
            Some(Tail(tail)) => {
                let cycles = (self.stats.combine(tail, u64::checked_add))
                    .and_then(|()| t.checked_add(tail.cycles));
                self.stats.cycles = cycles.unwrap_or_default();
                self.halt = Some(match cycles {
                    Some(_) => Halt::TailReused,
                    None => Halt::Overflow,
                });
            }
            None if family.has_pending() => self.skips.push((key, *t, self.stats.clone())),
            None => {}
        }
    }

    /// Moves the machine `n` periods forward, a period being what happened
    /// between `then` and now (`*t`): every clock by `n ×` the period's
    /// length, every counter by `n ×` its growth, every loop frame by `n ×`
    /// its trips. `None` when a clock or a counter would overflow, which is
    /// where walking every trip would have — the machine is then half
    /// moved and good for nothing.
    fn advance(&mut self, then: &Mark, n: u64, frame_deltas: &[u64], t: &mut u64) -> Option<()> {
        let shift = n.checked_mul(*t - then.t)?;
        self.queue.shift(shift)?;
        *t = t.checked_add(shift)?;
        self.last_time = *t;
        // A resource time in the past stays in the past: moving it along is
        // as unobservable as leaving it.
        self.tc_free = self.tc_free.checked_add(shift)?;
        self.mem_free = self.mem_free.checked_add(shift)?;
        self.cuda.last_update = self.cuda.last_update.checked_add(shift)?;
        (self.stats).combine(&then.stats, |cur, was| extrapolate(cur, was, n))?;

        let mut then_phases = then.phases.iter();
        for (b, was) in self.barriers.iter_mut().zip(&mut then_phases) {
            b.advance_phases(n.checked_mul(b.completed_phases() - was)?)?;
        }
        let mut deltas = frame_deltas.iter();
        for a in &mut self.actors {
            if a.is_blocked() {
                a.blocked_since = a.blocked_since.checked_add(shift)?;
            }
            for (cur, was) in a.local_phase.iter_mut().zip(&mut then_phases) {
                *cur = extrapolate(*cur, *was, n)?;
            }
            for (f, delta) in a.frames.iter_mut().zip(&mut deltas) {
                // The detector leaves every moved frame its last trip.
                f.remaining = (n.checked_mul(*delta))
                    .and_then(|trips| f.remaining.checked_sub(trips))
                    .filter(|&left| left > 0)?;
            }
        }
        Some(())
    }

    fn describe_deadlock(&self) -> String {
        let mut desc = String::from("deadlock: ");
        for a in &self.actors {
            if a.status == Status::Done {
                continue;
            }
            // Name the barrier and its phase state so dynamic reports
            // cross-reference the static `analyze` lints.
            if let Status::BlockedBar(gbar) = a.status {
                let b = gbar % self.nbars;
                let bar = &self.barriers[gbar];
                desc.push_str(&format!(
                    "[cta{} wg{} BlockedBar({} \"{}\" waiting phase {}, {}/{} arrivals, \
                     {} completed, {} tx bytes pending) since {}] ",
                    a.cta,
                    a.wg,
                    tawa_wsir::BarId(b as u32),
                    self.kernel.barriers[b].name,
                    a.local_phase[b],
                    bar.arrivals(),
                    bar.arrive_count,
                    bar.completed_phases(),
                    bar.tx_pending(),
                    a.blocked_since
                ));
            } else {
                desc.push_str(&format!(
                    "[cta{} wg{} {:?} since {}] ",
                    a.cta, a.wg, a.status, a.blocked_since
                ));
            }
        }
        desc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_wsir::{Instr, Kernel, MmaDtype, Role};

    fn cfg() -> EngineCfg {
        EngineCfg {
            load_bw: 38.0,
            store_bw: 14.0,
        }
    }

    fn one_class() -> CtaClass {
        CtaClass {
            params: vec![],
            multiplicity: 1,
        }
    }

    /// A minimal double-buffered producer/consumer kernel.
    fn ws_kernel(iters: u64, depth: u64) -> Kernel {
        let mut k = Kernel::new("ws");
        k.uniform_grid(1);
        let d = depth as usize;
        let mut full = Vec::new();
        let mut empty = Vec::new();
        for s in 0..d {
            full.push(k.add_barrier(&format!("full{s}"), 1));
            empty.push(k.add_barrier_init(&format!("empty{s}"), 1, 1));
        }
        // Producer: per iteration wait empty[k%D], tma -> full[k%D].
        let mut pbody = Vec::new();
        for s in 0..d {
            pbody.push(Instr::MbarWait { bar: empty[s] });
            pbody.push(Instr::TmaLoad {
                bytes: 32768,
                bar: full[s],
            });
        }
        // Consumer: wait full, mma, arrive empty.
        let mut cbody = Vec::new();
        for s in 0..d {
            cbody.push(Instr::MbarWait { bar: full[s] });
            cbody.push(Instr::WgmmaIssue {
                m: 128,
                n: 128,
                k: 64,
                dtype: MmaDtype::F16,
            });
            cbody.push(Instr::WgmmaWait { pending: 0 });
            cbody.push(Instr::MbarArrive { bar: empty[s] });
        }
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(iters / depth, pbody)],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![Instr::loop_const(iters / depth, cbody)],
        );
        k
    }

    #[test]
    fn ws_pipeline_runs_to_completion() {
        let dev = Device::h100_sxm5();
        let k = ws_kernel(32, 2);
        let class = one_class();
        let r = run_sm(&k, &dev, &[&class], &cfg());
        assert!(r.deadlock.is_none(), "{:?}", r.deadlock);
        assert_eq!(r.stats.bytes_loaded, 32 * 32768);
        assert_eq!(r.stats.tc_flops, 32 * 2 * 128 * 128 * 64);
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn deeper_ring_overlaps_better() {
        let dev = Device::h100_sxm5();
        let class = one_class();
        let shallow = run_sm(&ws_kernel(64, 1), &dev, &[&class], &cfg());
        let deep = run_sm(&ws_kernel(64, 2), &dev, &[&class], &cfg());
        assert!(shallow.deadlock.is_none() && deep.deadlock.is_none());
        assert!(
            deep.stats.cycles < shallow.stats.cycles,
            "D=2 ({}) should beat D=1 ({})",
            deep.stats.cycles,
            shallow.stats.cycles
        );
    }

    #[test]
    fn detects_deadlock_on_missing_arrive() {
        let dev = Device::h100_sxm5();
        let mut k = Kernel::new("bad");
        k.uniform_grid(1);
        let full = k.add_barrier("full", 1);
        // Producer never loads; consumer waits forever.
        k.add_warp_group(Role::Producer, 24, vec![Instr::Delay { cycles: 10 }]);
        k.add_warp_group(Role::Consumer, 240, vec![Instr::MbarWait { bar: full }]);
        let class = one_class();
        let r = run_sm(&k, &dev, &[&class], &cfg());
        assert!(r.deadlock.is_some());
        let msg = r.deadlock.unwrap();
        assert!(msg.contains("BlockedBar"), "{msg}");
    }

    #[test]
    fn wgmma_wait_enforces_pipeline_depth() {
        let dev = Device::h100_sxm5();
        // Issue 4 WGMMAs then wait for 0 pending: total TC time is serial.
        let mut k = Kernel::new("mma");
        k.uniform_grid(1);
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::WgmmaIssue {
                    m: 64,
                    n: 128,
                    k: 16,
                    dtype: MmaDtype::F16,
                },
                Instr::WgmmaIssue {
                    m: 64,
                    n: 128,
                    k: 16,
                    dtype: MmaDtype::F16,
                },
                Instr::WgmmaIssue {
                    m: 64,
                    n: 128,
                    k: 16,
                    dtype: MmaDtype::F16,
                },
                Instr::WgmmaIssue {
                    m: 64,
                    n: 128,
                    k: 16,
                    dtype: MmaDtype::F16,
                },
                Instr::WgmmaWait { pending: 0 },
            ],
        );
        let class = one_class();
        let r = run_sm(&k, &dev, &[&class], &cfg());
        assert!(r.deadlock.is_none());
        let per = (2.0 * 64.0 * 128.0 * 16.0 / dev.tc_fp16_flops_per_cycle).ceil() as u64;
        assert!(
            r.stats.cycles >= dev.cta_start_cycles + 4 * per,
            "cycles {} vs expected >= {}",
            r.stats.cycles,
            dev.cta_start_cycles + 4 * per
        );
    }

    #[test]
    fn syncthreads_joins_warp_groups() {
        let dev = Device::h100_sxm5();
        let mut k = Kernel::new("sync");
        k.uniform_grid(1);
        k.add_warp_group(
            Role::Uniform,
            128,
            vec![Instr::Delay { cycles: 1000 }, Instr::Syncthreads],
        );
        k.add_warp_group(Role::Uniform, 128, vec![Instr::Syncthreads]);
        let class = one_class();
        let r = run_sm(&k, &dev, &[&class], &cfg());
        assert!(r.deadlock.is_none());
        assert!(r.stats.cycles >= dev.cta_start_cycles + 1000);
        assert!(r.stats.stall_sync >= 900, "stall {}", r.stats.stall_sync);
    }

    #[test]
    fn two_residents_share_tensor_core() {
        let dev = Device::h100_sxm5();
        let k = ws_kernel(32, 2);
        let class = one_class();
        let one = run_sm(&k, &dev, &[&class], &cfg());
        let two = run_sm(&k, &dev, &[&class, &class], &cfg());
        assert!(two.deadlock.is_none());
        // Two CTAs do twice the work; with shared TC + memory it takes
        // longer than one but (due to overlap) less than 2.2×.
        assert!(two.stats.cycles > one.stats.cycles);
        assert!(two.stats.cycles < one.stats.cycles * 23 / 10);
        assert_eq!(two.stats.tc_flops, 2 * one.stats.tc_flops);
    }

    /// Runs both walkers and requires the same result from the
    /// fast-forwarding one; returns (fast, reference).
    fn both(k: &Kernel, residents: &[&CtaClass]) -> (EngineResult, EngineResult) {
        let dev = Device::h100_sxm5();
        let fast = run_sm(k, &dev, residents, &cfg());
        let plain = run_sm_reference(k, &dev, residents, &cfg());
        assert_eq!(fast.stats, plain.stats, "{}", k.name);
        assert_eq!(fast.deadlock, plain.deadlock, "{}", k.name);
        assert_eq!(plain.fast_forwarded_trips, 0);
        (fast, plain)
    }

    #[test]
    fn steady_state_is_skipped_exactly() {
        let class = one_class();
        for depth in 1..=4 {
            for residents in [&[&class][..], &[&class, &class][..]] {
                let (fast, plain) = both(&ws_kernel(2400, depth), residents);
                assert!(
                    fast.events * 20 < plain.events,
                    "D={depth}: {} vs {} events",
                    fast.events,
                    plain.events
                );
                assert!(fast.fast_forwarded_trips > 0);
            }
        }
        // Too few trips to repeat: nothing is skipped, nothing changes.
        let (fast, plain) = both(&ws_kernel(4, 2), &[&class]);
        assert_eq!(fast.events, plain.events);
    }

    #[test]
    fn deadlocks_past_a_long_loop_are_reported_identically() {
        // The consumer waits for `extra` more tiles than the producer ever
        // loads: the hang comes 1..7 waits after 600 skipped trips, and its
        // report (phases, arrivals, `since` times) must not show the jump.
        let class = one_class();
        for extra in 1..=7 {
            let mut k = ws_kernel(600, 1);
            let full = tawa_wsir::BarId(0);
            let empty = tawa_wsir::BarId(1);
            for _ in 0..extra {
                k.warp_groups[1].body.extend([
                    Instr::MbarArrive { bar: empty },
                    Instr::MbarWait { bar: full },
                ]);
            }
            k.warp_groups[0].body.push(Instr::loop_const(
                extra - 1,
                vec![
                    Instr::MbarWait { bar: empty },
                    Instr::TmaLoad {
                        bytes: 32768,
                        bar: full,
                    },
                ],
            ));
            let (fast, plain) = both(&k, &[&class, &class]);
            assert!(fast.deadlock.is_some(), "extra={extra}");
            assert!(fast.events * 5 < plain.events, "extra={extra}");
        }
    }

    #[test]
    fn nested_and_param_loops_skip_at_both_levels() {
        // A persistent-kernel shape: `$p1` outer trips of a `$p0`-trip
        // K-loop plus an epilogue store, trip counts from the CTA class.
        let mut k = ws_kernel(2, 1);
        let tiles = |body: Vec<Instr>, tail: Vec<Instr>| {
            let mut tile = vec![Instr::loop_param(0, body)];
            tile.extend(tail);
            vec![Instr::loop_param(1, tile)]
        };
        let Instr::Loop { body: pbody, .. } = k.warp_groups[0].body[0].clone() else {
            unreachable!()
        };
        let Instr::Loop { body: cbody, .. } = k.warp_groups[1].body[0].clone() else {
            unreachable!()
        };
        k.warp_groups[0].body = tiles(pbody, vec![]);
        k.warp_groups[1].body = tiles(cbody, vec![Instr::GlobalStore { bytes: 32768 }]);
        let class = CtaClass {
            params: vec![96, 40],
            multiplicity: 1,
        };
        let (fast, plain) = both(&k, &[&class]);
        assert_eq!(plain.stats.bytes_loaded, 96 * 40 * 32768);
        // Inner skips alone would leave ≥ 40 tiles' prologues to walk.
        assert!(
            fast.events * 40 < plain.events,
            "{} vs {} events",
            fast.events,
            plain.events
        );
    }

    #[test]
    fn a_cuda_pipe_share_without_an_exact_period_falls_back() {
        // Two looping warp groups share the CUDA pipe with a third whose one
        // long job outlasts them: its processor-sharing remainder shrinks
        // all the way through, so no two back-edges agree bit for bit and
        // the engine must walk every trip rather than guess.
        let mut k = Kernel::new("share3");
        k.uniform_grid(1);
        let cuda = |flops| Instr::CudaOp {
            flops,
            sfu: 7,
            label: "softmax",
        };
        k.add_warp_group(Role::Consumer, 64, vec![cuda(256 * 100_000)]);
        for (flops, gap) in [(1000, 3), (1700, 5)] {
            k.add_warp_group(
                Role::Consumer,
                64,
                vec![Instr::loop_const(
                    300,
                    vec![cuda(flops), Instr::Delay { cycles: gap }],
                )],
            );
        }
        let class = one_class();
        let (fast, plain) = both(&k, &[&class]);
        assert!(plain.deadlock.is_none());
        assert_eq!(fast.fast_forwarded_trips, 0);
        assert_eq!(fast.events, plain.events);
    }

    #[test]
    fn phase_locked_cuda_sharing_is_skipped_bit_for_bit() {
        // Three loops at different paces lock into a common rhythm on the
        // shared pipe; the remainders then do repeat, and the skip is exact.
        let mut k = Kernel::new("share3-locked");
        k.uniform_grid(1);
        for (flops, sfu, gap) in [(1000, 7, 3), (1700, 11, 5), (2900, 13, 7)] {
            k.add_warp_group(
                Role::Consumer,
                64,
                vec![Instr::loop_const(
                    300,
                    vec![
                        Instr::CudaOp {
                            flops,
                            sfu,
                            label: "softmax",
                        },
                        Instr::Delay { cycles: gap },
                    ],
                )],
            );
        }
        let class = one_class();
        let (fast, _) = both(&k, &[&class]);
        assert!(fast.fast_forwarded_trips > 0);
    }

    /// `ws_kernel(_, 2)` with both loops reading `$p0`, one class per entry
    /// of `trips`.
    fn ws_param_kernel(trips: &[u64]) -> Kernel {
        let mut k = ws_kernel(2, 2);
        for wg in &mut k.warp_groups {
            let Instr::Loop { body, .. } = wg.body.remove(0) else {
                unreachable!()
            };
            wg.body.push(Instr::loop_param(0, body));
        }
        k.classes = (trips.iter())
            .map(|&t| CtaClass {
                params: vec![t],
                multiplicity: 1,
            })
            .collect();
        k
    }

    #[test]
    fn a_jump_past_u64_is_an_overflow_not_a_report() {
        // Release builds wrap silently where debug builds panic, and a
        // wrapped counter used to be published as a report: 2^56 trips of
        // two 32 KiB loads do not fit `bytes_loaded`. On the direct path ...
        let dev = Device::h100_sxm5();
        let class = one_class();
        let r = run_sm(&ws_kernel(1 << 41, 2), &dev, &[&class], &cfg());
        assert!(!r.overflow && r.deadlock.is_none());
        assert_eq!(r.stats.bytes_loaded, (1 << 41) * 32768);
        assert_eq!(r.stats.tc_flops, (1 << 41) * 2 * 128 * 128 * 64);
        assert!(r.events < 400, "{} events", r.events);
        for iters in [1 << 57, u64::MAX] {
            let r = run_sm(&ws_kernel(iters, 2), &dev, &[&class, &class], &cfg());
            assert!(r.overflow, "{iters} trips: {:?}", r.stats);
        }
        // ... and in a class that starts from another's checkpoint: the
        // second class of each kernel is three trips short of the first.
        for (trips, overflow) in [(1 << 40, false), (1 << 56, true), (u64::MAX, true)] {
            let k = ws_param_kernel(&[trips, trips - 3]);
            let results = run_classes(&k, &dev, 1, &cfg());
            assert!(results[1].events < results[0].events, "not resumed");
            for (r, trips) in results.iter().zip([trips, trips - 3]) {
                assert_eq!(r.overflow, overflow, "{trips} trips: {:?}", r.stats);
                if !overflow {
                    assert_eq!(r.stats.bytes_loaded, trips * 2 * 32768);
                    assert_eq!(r.stats.tc_flops, trips * 2 * 2 * 128 * 128 * 64);
                }
            }
        }
        // A class that overflows leaves the ones that do not their results.
        let k = ws_param_kernel(&[1 << 56, 1000, u64::MAX, 997]);
        let results = run_classes(&k, &dev, 1, &cfg());
        let overflowed: Vec<bool> = results.iter().map(|r| r.overflow).collect();
        assert_eq!(overflowed, [true, false, true, false]);
        for (ci, class) in k.classes.iter().enumerate().filter(|(ci, _)| ci % 2 == 1) {
            let own = run_sm_reference(&k, &dev, &[class], &cfg());
            assert_eq!(results[ci].stats, own.stats);
        }
    }

    #[test]
    fn classes_of_one_family_get_their_own_results() {
        // Five classes two trips apart, one duplicate, one too short to be
        // admitted anywhere, in shuffled order: each equals its own plain
        // walk; those that start from the first one's checkpoint walk less,
        // and the duplicate of a finished class walks nothing at all.
        let dev = Device::h100_sxm5();
        let k = ws_param_kernel(&[394, 400, 2, 398, 400, 396]);
        for occ in [1, 2] {
            let results = run_classes(&k, &dev, occ, &cfg());
            for (class, r) in k.classes.iter().zip(&results) {
                let residents = vec![class; occ as usize];
                let own = run_sm_reference(&k, &dev, &residents, &cfg());
                assert_eq!((&r.stats, &r.deadlock), (&own.stats, &own.deadlock));
            }
            let events: Vec<u64> = results.iter().map(|r| r.events).collect();
            assert!(events[0] < events[1] && events[3] < events[1], "{events:?}");
            assert_eq!(events[4], 0, "{events:?}");
        }
    }

    #[test]
    fn param_loops_resolve_per_class() {
        let dev = Device::h100_sxm5();
        let mut k = Kernel::new("p");
        k.classes = vec![CtaClass {
            params: vec![5],
            multiplicity: 1,
        }];
        k.add_warp_group(
            Role::Uniform,
            64,
            vec![Instr::loop_param(
                0,
                vec![Instr::CudaOp {
                    flops: 256,
                    sfu: 0,
                    label: "body",
                }],
            )],
        );
        let c = k.classes[0].clone();
        let r = run_sm(&k, &dev, &[&c], &cfg());
        assert!(r.deadlock.is_none());
        // 5 iterations × 1 cycle of CUDA work (256 flops / 256 per cycle).
        assert_eq!(r.stats.cuda_busy, 5);
    }
}
