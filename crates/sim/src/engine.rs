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
//! # What the engine is, and what it borrows
//!
//! The engine is its event queue, its three pipes (tensor core, memory
//! channel, the processor-shared CUDA pipe), the bandwidth it is
//! provisioned with, the ten [`EngineStats`] counters and the deadlock
//! report. How actors move through their programs (loop frames, trip
//! counts), the barriers, skipping a loop's steady state and walking a
//! kernel's CTA classes as one family are [`tawa_wsir::walk`]'s: the
//! engine is one [`Walker`], the static gate the other, and what makes a
//! skip or a shared prefix exact is told in [`tawa_wsir::period`]. An
//! actor's cursor moves past an instruction as soon as it is fetched, so a
//! woken waiter has already consumed its wait.
//!
//! # The engine's signature
//!
//! At the anchor's back-edges the walker asks for a signature: the state
//! with everything that grows linearly taken out. The engine's holds
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
//!   counts, and every cursor's frames. Processor-sharing job remainders
//!   compare by `f64::to_bits`: if they never repeat bit for bit, there is
//!   no skip.
//!
//! Why a jump of the engine's own clocks and counters is exact: every
//! handler computes with `t + constant`, `max(t + c, resource_free)`,
//! `now − blocked_since` and `completed > local` — all unchanged when
//! every time moves by the same amount and a barrier's two phase counters
//! move together. So the event sequence after the jump is the plain run's,
//! shifted, and all ten counters are sums over it. `SimReport`s and
//! deadlock strings are bit-identical to walking every trip, which is why
//! [`crate::COST_MODEL_VERSION`] does not mention any of this; the plain
//! walk survives only as the tests' reference ([`run_sm_reference`], a
//! walk without an anchor).
//!
//! Every add the engine makes to a clock, a byte count or a counter is
//! checked, per event and per jump: a run that would take one past
//! `u64::MAX` ends as [`EngineResult::overflow`] where walking it would
//! have wrapped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use tawa_wsir::period::{waited_barriers, Family};
use tawa_wsir::walk::{walk_classes, Classes, Halt, Mbarrier, Walk, Walker};
use tawa_wsir::{CtaClass, Instr, Kernel};

use crate::device::Device;

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
    /// The ten running counters. `cycles` is not one: it is derived once,
    /// when the run ends.
    fn running(&mut self) -> [&mut u64; 10] {
        [
            &mut self.tc_busy,
            &mut self.cuda_busy,
            &mut self.mem_busy,
            &mut self.bytes_loaded,
            &mut self.bytes_stored,
            &mut self.tc_flops,
            &mut self.stall_barrier,
            &mut self.stall_wgmma,
            &mut self.stall_cpasync,
            &mut self.stall_sync,
        ]
    }

    /// Sets each running counter to `f(it, its value in other)`; `None` as
    /// soon as one `f` is.
    fn combine(&mut self, other: &EngineStats, f: impl Fn(u64, u64) -> Option<u64>) -> Option<()> {
        for (cur, other) in self.running().into_iter().zip(other.clone().running()) {
            *cur = f(*cur, *other)?;
        }
        Some(())
    }
}

/// `*counter += by`; `None` on overflow.
fn add(counter: &mut u64, by: u64) -> Option<()> {
    *counter = counter.checked_add(by)?;
    Some(())
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
    /// A clock or a counter would have gone past `u64::MAX`, as walking
    /// every trip eventually would: `stats` mean nothing.
    pub overflow: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Status {
    #[default]
    Running,
    BlockedBar(usize),
    BlockedWgmma(u32),
    BlockedCp(u32),
    BlockedSync,
    Done,
}

#[derive(Clone, Default)]
struct Actor {
    cta: usize,
    wg: usize,
    status: Status,
    local_phase: Vec<u64>,
    wgmma_inflight: u32,
    cpasync_inflight: u32,
    blocked_since: u64,
}

impl Actor {
    fn is_blocked(&self) -> bool {
        !matches!(self.status, Status::Running | Status::Done)
    }

    /// Ends a stall that began at `blocked_since`, charging it to `stalled`.
    fn unstall(&mut self, now: u64, stalled: &mut u64) -> Option<()> {
        self.status = Status::Running;
        add(stalled, now.saturating_sub(self.blocked_since))
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
    fn update(&mut self, t: u64, busy: &mut u64) -> Option<Vec<usize>> {
        let elapsed = t.saturating_sub(self.last_update);
        self.last_update = t;
        if !self.jobs.is_empty() && elapsed > 0 {
            add(busy, elapsed)?;
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
        Some(done)
    }

    /// Next completion, as a distance from `last_update`, under the
    /// current sharing rate.
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
        Some((dt, self.gen))
    }
}

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
    actors: Vec<Actor>,
    /// One cursor per actor; a tail is what a clean end added to the
    /// counters, its `cycles` the distance from the key's time.
    walk: Walk<'k, EngineStats>,
    queue: EventQueue,
    tc_free: u64,
    cuda: CudaPs,
    mem_free: u64,
    stats: EngineStats,
    /// `syncthreads` rendezvous state per CTA.
    sync_arrived: Vec<u32>,
    done_count: usize,
    last_time: u64,
    /// The time of the step being taken.
    now: u64,
    /// Per warp group, the barriers its program waits on.
    waits: Rc<[Vec<usize>]>,
    deadlock: Option<String>,
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
    alone(kernel, device, residents, cfg, false)
}

/// [`run_sm`] walking every trip of every loop (no anchor): the reference
/// the differential tests hold the fast-forwarding engine against. Not a
/// mode of the product — nothing outside tests calls it.
#[doc(hidden)]
pub fn run_sm_reference(
    kernel: &Kernel,
    device: &Device,
    residents: &[&CtaClass],
    cfg: &EngineCfg,
) -> EngineResult {
    alone(kernel, device, residents, cfg, true)
}

/// One SM as a family of one class.
fn alone(
    kernel: &Kernel,
    device: &Device,
    residents: &[&CtaClass],
    cfg: &EngineCfg,
    reference: bool,
) -> EngineResult {
    let mut sm = Sm::new(kernel, device, residents.to_vec(), cfg, reference, false);
    let clean = sm.run(&mut Family::default());
    sm.finish(clean)
}

/// Simulates one SM-wave of every CTA class of `kernel`, `occ` residents
/// of the class each, and returns the results in class order — what
/// [`run_sm`] returns per class, except that `events` and
/// `fast_forwarded_trips` count only what was walked and jumped *for* that
/// class: the classes run as one family ([`walk_classes`]), so a class that
/// starts from another's checkpoint does not count the shared prefix, and
/// one that reuses a known tail does not count the tail.
pub fn run_classes(
    kernel: &Kernel,
    device: &Device,
    occ: u32,
    cfg: &EngineCfg,
) -> Vec<EngineResult> {
    walk_classes(kernel, |ci, track| {
        let residents = vec![&kernel.classes[ci]; occ as usize];
        Sm::new(kernel, device, residents, cfg, false, track)
    })
}

impl<'k> Sm<'k> {
    /// The machine at launch. `reference` walks every trip; `track` keeps a
    /// footprint so a later class may start from here.
    fn new(
        kernel: &'k Kernel,
        device: &'k Device,
        residents: Vec<&'k CtaClass>,
        cfg: &'k EngineCfg,
        reference: bool,
        track: bool,
    ) -> Sm<'k> {
        let nbars = kernel.barriers.len();
        let mut barriers = Vec::with_capacity(nbars * residents.len());
        let mut actors = Vec::new();
        let mut queue = EventQueue::default();
        for cta in 0..residents.len() {
            barriers.extend(
                (kernel.barriers.iter()).map(|b| Mbarrier::new(b.arrive_count, b.init_phases)),
            );
            for wg in 0..kernel.warp_groups.len() {
                // CTA start cost staggers actor start slightly (descriptor
                // setup etc).
                queue.push(device.cta_start_cycles, Event::Step(actors.len()));
                actors.push(Actor {
                    cta,
                    wg,
                    local_phase: vec![0; nbars],
                    ..Actor::default()
                });
            }
        }
        // CTA 0's actors come first, so its warp group index is the actor
        // index.
        let bodies =
            (residents.iter()).flat_map(move |_| kernel.warp_groups.iter().map(|wg| &wg.body[..]));
        let params = residents.first().map_or(&[][..], |&class| &class.params);
        let walk = Walk::new(kernel, bodies, params, residents.len(), reference, track);
        Sm {
            kernel,
            device,
            cfg,
            nbars,
            barriers,
            walk,
            queue,
            tc_free: 0,
            cuda: CudaPs::default(),
            mem_free: 0,
            stats: EngineStats::default(),
            sync_arrived: vec![0; residents.len()],
            done_count: 0,
            last_time: 0,
            now: 0,
            waits: kernel
                .warp_groups
                .iter()
                .map(|wg| {
                    let mut waited = waited_barriers(&wg.body);
                    waited.retain(|&b| b < nbars);
                    waited
                })
                .collect(),
            deadlock: None,
            residents,
            actors,
        }
    }

    /// Handles one event popped at `t`; `None` on overflow.
    fn handle(&mut self, t: u64, event: Event, family: &mut Classes<'k, Self>) -> Option<()> {
        match event {
            Event::TmaDone { gbar, bytes } => {
                if self.barriers[gbar].arrive_tx(bytes)? {
                    self.wake_waiters(gbar, t)?;
                }
            }
            Event::WgmmaDone(i) => {
                let a = &mut self.actors[i];
                a.wgmma_inflight -= 1;
                if matches!(a.status, Status::BlockedWgmma(p) if a.wgmma_inflight <= p) {
                    a.unstall(t, &mut self.stats.stall_wgmma)?;
                    self.at(t, self.device.wgmma_drain_cycles, Event::Step(i))?;
                }
            }
            Event::CpDone(i) => {
                let a = &mut self.actors[i];
                a.cpasync_inflight -= 1;
                if matches!(a.status, Status::BlockedCp(p) if a.cpasync_inflight <= p) {
                    a.unstall(t, &mut self.stats.stall_cpasync)?;
                    self.queue.push(t, Event::Step(i));
                }
            }
            Event::CudaTick(gen) => {
                // A tick superseded by a rate change is ignored.
                if gen == self.cuda.gen {
                    self.settle_cuda(t)?;
                    self.tick_cuda()?;
                }
            }
            Event::Step(i) => {
                if self.actors[i].status == Status::Running {
                    self.now = t;
                    self.step(i, family)?;
                }
            }
        }
        Some(())
    }

    /// Schedules `e` at `t + dt`; `None` on overflow.
    fn at(&mut self, t: u64, dt: u64, e: Event) -> Option<()> {
        self.queue.push(t.checked_add(dt)?, e);
        Some(())
    }

    /// A phase of `gbar` completed at `t`: wake the actors blocked on it.
    /// Their cursor already moved past the wait, so the phase is consumed
    /// here.
    fn wake_waiters(&mut self, gbar: usize, t: u64) -> Option<()> {
        for i in 0..self.actors.len() {
            let a = &mut self.actors[i];
            if a.status == Status::BlockedBar(gbar) {
                a.local_phase[gbar % self.nbars] += 1;
                a.unstall(t, &mut self.stats.stall_barrier)?;
                self.at(t, self.device.mbar_wake_cycles, Event::Step(i))?;
            }
        }
        Some(())
    }

    /// Brings the CUDA pipe to time `t` and resumes the actors whose jobs
    /// finished.
    fn settle_cuda(&mut self, t: u64) -> Option<()> {
        for a in self.cuda.update(t, &mut self.stats.cuda_busy)? {
            self.queue.push(t, Event::Step(a));
        }
        Some(())
    }

    /// Schedules the CUDA pipe's next completion under its current rate.
    fn tick_cuda(&mut self) -> Option<()> {
        if let Some((dt, gen)) = self.cuda.next_completion() {
            self.at(self.cuda.last_update, dt, Event::CudaTick(gen))?;
        }
        Some(())
    }

    /// Actor `i` goes on after the issue cost if `ready`, else blocks as
    /// `blocked` from now.
    fn wait(&mut self, i: usize, ready: bool, blocked: Status) -> Option<()> {
        if ready {
            return self.at(self.now, self.device.instr_issue_cycles, Event::Step(i));
        }
        self.actors[i].status = blocked;
        self.actors[i].blocked_since = self.now;
        Some(())
    }

    /// Occupies the memory channel for `bytes` at `bw` no earlier than
    /// `ready`; returns when the transfer has left the channel.
    fn transfer(&mut self, ready: u64, bytes: u64, bw: f64) -> Option<u64> {
        let start = ready.max(self.mem_free);
        let dur = (bytes as f64 / bw).ceil() as u64;
        self.mem_free = start.checked_add(dur)?;
        add(&mut self.stats.mem_busy, dur)?;
        Some(self.mem_free)
    }

    /// Takes actor `i`'s next step at `self.now`; `None` on overflow.
    fn step(&mut self, i: usize, family: &mut Classes<'k, Self>) -> Option<()> {
        let Some(instr) = self.fetch(i, family) else {
            if self.walk.halt.is_none() {
                self.actors[i].status = Status::Done;
                self.done_count += 1;
            }
            return Some(());
        };
        let (t, device, cta) = (self.now, self.device, self.actors[i].cta);
        let issue = device.instr_issue_cycles;
        if !matches!(instr, Instr::Loop { .. }) {
            self.walk.cursors[i].advance();
        }
        match *instr {
            Instr::Loop { count, ref body } => {
                self.walk.enter(i, count, body, &self.residents[cta].params);
                self.at(t, device.loop_overhead_cycles, Event::Step(i))?;
            }
            Instr::TmaLoad { bytes, bar } => {
                let gbar = cta * self.nbars + bar.0 as usize;
                self.barriers[gbar].expect_tx(bytes)?;
                let landed = self.transfer(t.checked_add(issue)?, bytes, self.cfg.load_bw)?;
                add(&mut self.stats.bytes_loaded, bytes)?;
                let done = Event::TmaDone { gbar, bytes };
                self.at(landed, device.tma_latency_cycles, done)?;
                self.at(t, issue, Event::Step(i))?;
            }
            Instr::TmaStore { bytes } => {
                self.transfer(t.checked_add(issue)?, bytes, self.cfg.store_bw)?;
                add(&mut self.stats.bytes_stored, bytes)?;
                self.at(t, issue, Event::Step(i))?;
            }
            Instr::CpAsync { bytes } => {
                // Issue occupies the warp group proportionally to size.
                let issue_cost =
                    ((bytes as f64 / 2048.0) * device.cp_async_issue_cycles_per_2kb).ceil() as u64;
                let bw = self.cfg.load_bw * device.cp_async_efficiency;
                let landed = self.transfer(t.checked_add(issue_cost)?, bytes, bw)?;
                add(&mut self.stats.bytes_loaded, bytes)?;
                self.actors[i].cpasync_inflight += 1;
                self.at(landed, device.global_load_latency_cycles, Event::CpDone(i))?;
                self.at(t, issue_cost, Event::Step(i))?;
            }
            Instr::CpAsyncWait { pending } => {
                let ready = self.actors[i].cpasync_inflight <= pending;
                self.wait(i, ready, Status::BlockedCp(pending))?;
            }
            Instr::MbarArrive { bar } => {
                let gbar = cta * self.nbars + bar.0 as usize;
                if self.barriers[gbar].arrive() {
                    self.wake_waiters(gbar, t)?;
                }
                self.at(t, issue, Event::Step(i))?;
            }
            Instr::MbarWait { bar } => {
                let b = bar.0 as usize;
                let gbar = cta * self.nbars + b;
                let ready = self.barriers[gbar].completed_phases() > self.actors[i].local_phase[b];
                self.actors[i].local_phase[b] += ready as u64;
                self.wait(i, ready, Status::BlockedBar(gbar))?;
            }
            Instr::WgmmaIssue { m, n, k, dtype } => {
                let flops: u64 = (2 * m as u128 * n as u128 * k as u128).try_into().ok()?;
                let rate = device.tc_flops_per_cycle(dtype);
                let start = t.checked_add(issue)?.max(self.tc_free);
                let dur = (flops as f64 / rate).ceil() as u64;
                self.tc_free = start.checked_add(dur)?;
                add(&mut self.stats.tc_busy, dur)?;
                add(&mut self.stats.tc_flops, flops)?;
                self.actors[i].wgmma_inflight += 1;
                self.queue.push(self.tc_free, Event::WgmmaDone(i));
                self.at(t, issue, Event::Step(i))?;
            }
            Instr::WgmmaWait { pending } => {
                let ready = self.actors[i].wgmma_inflight <= pending;
                self.wait(i, ready, Status::BlockedWgmma(pending))?;
            }
            Instr::CudaOp { flops, sfu, .. } => {
                let work = flops as f64 / device.cuda_flops_per_cycle
                    + sfu as f64 / device.sfu_ops_per_cycle;
                self.settle_cuda(t.checked_add(issue)?)?;
                self.cuda.jobs.push((i, work.max(1.0)));
                // The actor resumes when its own job completes (via
                // CudaTick); no Step is scheduled here.
                self.tick_cuda()?;
            }
            Instr::GlobalStore { bytes } => {
                // st.global issue: 512 B/cycle per warp group.
                let issue_cost = (bytes as f64 / 512.0).ceil() as u64;
                self.transfer(t.checked_add(issue_cost)?, bytes, self.cfg.store_bw)?;
                add(&mut self.stats.bytes_stored, bytes)?;
                self.at(t, issue_cost, Event::Step(i))?;
            }
            Instr::GlobalLoad { bytes } => {
                let landed = self.transfer(t.checked_add(issue)?, bytes, self.cfg.load_bw)?;
                add(&mut self.stats.bytes_loaded, bytes)?;
                // Synchronous: the actor resumes after the data lands.
                self.at(landed, device.global_load_latency_cycles, Event::Step(i))?;
            }
            Instr::Syncthreads => {
                self.sync_arrived[cta] += 1;
                let ready = self.sync_arrived[cta] == self.kernel.warp_groups.len() as u32;
                if ready {
                    self.sync_arrived[cta] = 0;
                    for j in 0..self.actors.len() {
                        let a = &mut self.actors[j];
                        if a.cta == cta && a.status == Status::BlockedSync {
                            a.unstall(t, &mut self.stats.stall_sync)?;
                            self.at(t, issue, Event::Step(j))?;
                        }
                    }
                }
                self.wait(i, ready, Status::BlockedSync)?;
            }
            Instr::SetMaxNReg { .. } => self.queue.push(t, Event::Step(i)),
            Instr::Delay { cycles } => self.at(t, cycles, Event::Step(i))?,
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

impl<'k> Walker<'k> for Sm<'k> {
    type Tail = EngineStats;
    type Out = EngineResult;

    fn walk(&mut self) -> &mut Walk<'k, EngineStats> {
        &mut self.walk
    }

    /// The state at `now` with everything linear taken out (module docs).
    fn signature(&self) -> Vec<u64> {
        let t = self.now;
        let mut sig = Vec::with_capacity(128);
        for (a, cursor) in self.actors.iter().zip(&self.walk.cursors) {
            let (tag, arg) = match a.status {
                Status::Running => (0, 0),
                Status::BlockedBar(gbar) => (1, gbar as u64),
                Status::BlockedWgmma(p) => (2, p as u64),
                Status::BlockedCp(p) => (3, p as u64),
                Status::BlockedSync => (4, 0),
                Status::Done => (5, 0),
            };
            let stalled_for = a.is_blocked().then(|| t - a.blocked_since);
            sig.extend([
                tag,
                arg,
                stalled_for.unwrap_or_default(),
                a.wgmma_inflight as u64,
                a.cpasync_inflight as u64,
            ]);
            cursor.sig(&mut sig);
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
        sig
    }

    fn clock(&self) -> u64 {
        self.now
    }

    /// The ten running statistics, every barrier's completed phases, every
    /// actor's consumed ones.
    fn counters(&mut self) -> impl Iterator<Item = &mut u64> {
        let phases = self.barriers.iter_mut().map(Mbarrier::phases_mut);
        let local = self.actors.iter_mut().flat_map(|a| &mut a.local_phase);
        self.stats.running().into_iter().chain(phases).chain(local)
    }

    /// Every time by `n ×` the period's length: pending events, the pipes'
    /// clocks, the start of every stall.
    fn jump(&mut self, then: u64, n: u64) -> Option<()> {
        let shift = n.checked_mul(self.now - then)?;
        self.queue.shift(shift)?;
        self.now = self.now.checked_add(shift)?;
        self.last_time = self.now;
        // A resource time in the past stays in the past: moving it along is
        // as unobservable as leaving it.
        self.tc_free = self.tc_free.checked_add(shift)?;
        self.mem_free = self.mem_free.checked_add(shift)?;
        self.cuda.last_update = self.cuda.last_update.checked_add(shift)?;
        for a in self.actors.iter_mut().filter(|a| a.is_blocked()) {
            a.blocked_since = a.blocked_since.checked_add(shift)?;
        }
        Some(())
    }

    /// The counters now, `cycles` standing for the time.
    fn since(&self) -> EngineStats {
        EngineStats {
            cycles: self.now,
            ..self.stats.clone()
        }
    }

    fn tail(&self, since: EngineStats) -> Option<EngineStats> {
        let mut tail = self.stats.clone();
        tail.cycles = tail.cycles.saturating_sub(since.cycles);
        tail.combine(&since, u64::checked_sub)?;
        Some(tail)
    }

    fn reuse(&mut self, tail: &EngineStats) -> bool {
        let cycles = (self.stats.combine(tail, u64::checked_add))
            .and_then(|()| self.now.checked_add(tail.cycles));
        self.stats.cycles = cycles.unwrap_or_default();
        self.walk.halt = Some(cycles.map_or(Halt::Overflow, |_| Halt::TailReused));
        true
    }

    /// Takes the anchor's interrupted step again, at the time it was taken.
    fn resume(&mut self, ci: usize, family: &mut Classes<'k, Self>) {
        self.residents.fill(&self.kernel.classes[ci]);
        if let Some(None) = self.walk.anchor.map(|anchor| self.step(anchor, family)) {
            self.walk.halt = Some(Halt::Overflow);
        }
    }

    fn run(&mut self, family: &mut Classes<'k, Self>) -> bool {
        while self.walk.halt.is_none() && self.done_count != self.actors.len() {
            let Some((t, event)) = self.queue.pop() else {
                break;
            };
            self.walk.work += 1;
            self.last_time = self.last_time.max(t);
            if self.handle(t, event, family).is_none() {
                self.walk.halt = Some(Halt::Overflow);
            }
        }
        if self.walk.halt.is_none() {
            self.deadlock =
                (self.done_count != self.actors.len()).then(|| self.describe_deadlock());
            self.stats.cycles = self
                .last_time
                .max(self.mem_free)
                .max(self.tc_free)
                .max(self.cuda.last_update);
        }
        self.walk.halt != Some(Halt::Overflow) && self.deadlock.is_none()
    }

    fn finish(self, _clean: bool) -> EngineResult {
        EngineResult {
            stats: self.stats,
            deadlock: self.deadlock,
            events: self.walk.work,
            fast_forwarded_trips: self.walk.jumped_trips,
            overflow: self.walk.halt == Some(Halt::Overflow),
        }
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
    fn a_deadlock_past_a_long_loop_reads_as_walked() {
        // The `extra = 3` kernel above, its report in full: phases, arrivals
        // and `since` times as walking all 600 trips leaves them.
        let mut k = ws_kernel(600, 1);
        let (full, empty) = (tawa_wsir::BarId(0), tawa_wsir::BarId(1));
        for _ in 0..3 {
            k.warp_groups[1].body.extend([
                Instr::MbarArrive { bar: empty },
                Instr::MbarWait { bar: full },
            ]);
        }
        k.warp_groups[0].body.push(Instr::loop_const(
            2,
            vec![
                Instr::MbarWait { bar: empty },
                Instr::TmaLoad {
                    bytes: 32768,
                    bar: full,
                },
            ],
        ));
        let class = one_class();
        let r = run_sm(&k, &Device::h100_sxm5(), &[&class, &class], &cfg());
        assert_eq!(
            r.deadlock.as_deref(),
            Some(
                "deadlock: [cta0 wg1 BlockedBar(bar0 \"full0\" waiting phase 601, 1/1 arrivals, \
                 601 completed, 0 tx bytes pending) since 1407130] [cta1 wg1 BlockedBar(bar0 \
                 \"full0\" waiting phase 601, 1/1 arrivals, 601 completed, 0 tx bytes pending) \
                 since 1408856] "
            )
        );
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
