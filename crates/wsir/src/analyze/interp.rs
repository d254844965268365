//! Protocol tier: abstract interpretation of the mbarrier parity
//! discipline.
//!
//! Each CTA class gets its own verdict (its `Count::Param` trip counts
//! resolve differently). All warp groups of one CTA are co-executed
//! over an abstract machine that models exactly the liveness-relevant
//! state: per-barrier phase/arrival counters (the lattice the Hopper
//! mbarrier steps through) and per-warp-group phase parities, with `Loop`
//! bodies executed across their real iteration parities. Non-blocking
//! instructions (WGMMA, CUDA ops, stores) are timing, not liveness, and
//! execute in zero steps; asynchronous TMA completions are delivered
//! immediately, which is sound for liveness because the simulator always
//! delivers them eventually.
//!
//! Because arrivals only ever accumulate and waits only advance private
//! parity counters, the system is monotone: run-to-fixpoint scheduling is
//! confluent, so "no warp group can take a step" here means *no*
//! interleaving of the real machine can avoid the deadlock — the verdict
//! is definite, not heuristic.
//!
//! The interpreter does not walk every trip of a long loop: once the
//! rounds repeat — the abstract counterpart of a pipeline's steady state —
//! it recognises the repeated state at a loop back-edge and advances its
//! counters over the remaining periods at once, exactly (see [`Machine`]
//! and [`crate::period`]). Lints, and the step on which the budget runs
//! out, are those of the full walk.
//!
//! Nor does it walk every class from nothing. The classes of a kernel are
//! one [`Family`]: at its first skip a class offers a clone of its machine
//! as a checkpoint, a later class whose trip counts answer every question
//! asked so far the same way starts from the clone, and a class that comes
//! to stand where an earlier one walked to a clean end without a new lint
//! (and with fuel to spare) takes that tail as walked. Classes are walked
//! largest first; their lints are folded and deduplicated in class order,
//! each exactly what interpreting that class alone gives.
//!
//! The shared-memory tile ownership map is recovered from the aref
//! discipline the code generator emits (paper Fig. 4): a barrier written
//! by TMA (`full`) is paired with the credit-initialized barrier its
//! writer waits on (`empty`); the pair guards one tile slot. Writes and
//! releases are then checked for a barrier edge in every parity — a
//! missing edge is a shared-memory race.

use std::collections::{HashSet, VecDeque};

use super::{InstrPath, Lint, LintKind};
use crate::instr::{BarId, Count, Instr, Role};
use crate::kernel::Kernel;
use crate::period::{
    anchor_warp_group, lowered, waited_barriers, Family, Footprint, FrameMark, PeriodDetector,
    TailKey,
};

/// The lints of the protocol tier and the abstract steps executed to find
/// them. `fast_forward = false` walks every trip of every loop of every
/// class: the reference the differential tests hold the skipping
/// interpreter against.
pub(super) fn check(k: &Kernel, fuel: u64, fast_forward: bool) -> (Vec<Lint>, u64) {
    let mut lints = Vec::new();
    scan_static(k, &mut lints);
    let pairs = derive_pairs(k);
    let reach: Vec<Reach> = k
        .warp_groups
        .iter()
        .map(|wg| Reach::of(&wg.body, &pairs))
        .collect();
    // Classes are walked as one family, largest first; their findings are
    // folded in class order.
    let mut family = Family::of(k);
    let mut per_class = vec![Vec::new(); k.classes.len()];
    let mut steps = 0;
    while let Some(ci) = family.next_class() {
        let (found, walked) = interp_class(k, ci, &pairs, &reach, fuel, fast_forward, &mut family);
        steps += walked;
        per_class[ci] = found;
    }
    let mut seen: HashSet<String> = HashSet::new();
    for lint in per_class.into_iter().flatten() {
        if seen.insert(dedup_key(&lint)) {
            lints.push(lint);
        }
    }
    (lints, steps)
}

/// Collapses per-class noise so the same finding reported from several CTA
/// classes (which usually share one program) appears once.
fn dedup_key(l: &Lint) -> String {
    let mut kind = l.kind.clone();
    match &mut kind {
        LintKind::StaticDeadlock {
            class,
            waiting_phase,
            completed_phases,
            arrivals,
            ..
        } => {
            *class = 0;
            *waiting_phase = 0;
            *completed_phases = 0;
            *arrivals = 0;
        }
        LintKind::SyncDeadlock { class, arrived, .. } => {
            *class = 0;
            *arrived = 0;
        }
        LintKind::AnalysisBudget { class, .. } => *class = 0,
        LintKind::SmemOverflow { max_in_flight, .. } => *max_in_flight = 0,
        LintKind::SharedMemRace { generation, .. } => *generation = 0,
        LintKind::DoubleArrive { residue, .. } => *residue = 0,
        _ => {}
    }
    format!("{:?}|{kind:?}", l.path)
}

/// Whole-kernel scans that need no interpretation: barriers nobody uses,
/// barriers that are signalled into the void, transfers that cannot fit
/// shared memory at all.
fn scan_static(k: &Kernel, lints: &mut Vec<Lint>) {
    let nbars = k.barriers.len() as u32;
    let mut waited = vec![false; k.barriers.len()];
    let mut signalled = vec![false; k.barriers.len()];
    for (wi, wg) in k.warp_groups.iter().enumerate() {
        let mut path = Vec::new();
        super::visit_with_path(&wg.body, &mut path, &mut |i, p| match i {
            Instr::MbarWait { bar } if bar.0 < nbars => waited[bar.0 as usize] = true,
            Instr::MbarArrive { bar } if bar.0 < nbars => signalled[bar.0 as usize] = true,
            Instr::TmaLoad { bar, bytes } => {
                if bar.0 < nbars {
                    signalled[bar.0 as usize] = true;
                }
                if k.smem_bytes > 0 && *bytes > k.smem_bytes {
                    lints.push(Lint::at(
                        LintKind::OversizedTma {
                            bytes: *bytes,
                            smem_bytes: k.smem_bytes,
                        },
                        InstrPath {
                            wg: wi,
                            indices: p.to_vec(),
                        },
                    ));
                }
            }
            _ => {}
        });
    }
    for (b, decl) in k.barriers.iter().enumerate() {
        let bar = BarId(b as u32);
        let kind = match (waited[b], signalled[b]) {
            (false, false) => LintKind::DeadBarrier {
                bar,
                name: decl.name.clone(),
            },
            (false, true) => LintKind::UnawaitedBarrier {
                bar,
                name: decl.name.clone(),
            },
            // Waited-but-never-signalled is a structural error; both-used
            // barriers are checked by the interpreter.
            _ => continue,
        };
        let mut lint = Lint::new(kind);
        lint.loc = k.bar_loc(bar);
        lints.push(lint);
    }
}

/// The tile ownership map: `full` barrier (TMA-written, a tile slot) →
/// `empty` barrier (credit-initialized guard the writer consumes before
/// reusing the slot), and its inverse. Shared with the performance tier
/// ([`super::perf`]), which uses it to tell slot-guarding barrier edges
/// apart from pure synchronization. Both are indexed by barrier; an index
/// past the end is unpaired.
pub(super) struct Pairs {
    pub(super) guard_of: Vec<Option<usize>>,
    pub(super) data_of: Vec<Option<usize>>,
}

/// Recovers slot pairs from the emitted protocol shape. Primary evidence
/// is the writer: a `TmaLoad` into `full` directly guarded by a preceding
/// wait on a credit-initialized barrier pairs the two. For data barriers
/// whose writer never waits (the racy case worth catching), reader streams
/// are matched FIFO: the n-th un-matched wait on a data barrier pairs with
/// the n-th release of a credit-initialized barrier. Anything ambiguous —
/// conflicting evidence, multiple writers — is dropped rather than
/// guessed, so the race checks stay conservative.
pub(super) fn derive_pairs(k: &Kernel) -> Pairs {
    let nbars = k.barriers.len();
    let init = |b: usize| k.barriers[b].init_phases;
    // Per barrier, all indexed by the `< nbars` checks below. `cand[f]`:
    // no evidence yet, `Some(Some(guard))`, or `Some(None)` = conflicting.
    let mut cand: Vec<Option<Option<usize>>> = vec![None; nbars];
    let mut writers: Vec<Vec<usize>> = vec![Vec::new(); nbars];
    let merge = |cand: &mut [Option<Option<usize>>], f: usize, e: usize| {
        cand[f] = Some(cand[f].map_or(Some(e), |c| c.filter(|&g| g == e)));
    };

    for (wi, wg) in k.warp_groups.iter().enumerate() {
        let mut last_wait: Option<usize> = None;
        let mut path = Vec::new();
        super::visit_with_path(&wg.body, &mut path, &mut |i, _| match i {
            Instr::MbarWait { bar } if (bar.0 as usize) < nbars => {
                last_wait = Some(bar.0 as usize);
            }
            Instr::TmaLoad { bar, .. } if (bar.0 as usize) < nbars => {
                let f = bar.0 as usize;
                if !writers[f].contains(&wi) {
                    writers[f].push(wi);
                }
                if let Some(e) = last_wait {
                    if e != f && init(e) >= 1 && init(f) == 0 {
                        merge(&mut cand, f, e);
                    }
                }
            }
            _ => {}
        });
    }

    // Reader-derived fallback for data barriers with no writer evidence.
    for wg in &k.warp_groups {
        let mut fifo: VecDeque<usize> = VecDeque::new();
        let mut path = Vec::new();
        super::visit_with_path(&wg.body, &mut path, &mut |i, _| match i {
            Instr::MbarWait { bar } if (bar.0 as usize) < nbars => {
                let f = bar.0 as usize;
                if !writers[f].is_empty() && init(f) == 0 && cand[f].is_none() {
                    fifo.push_back(f);
                }
            }
            Instr::MbarArrive { bar } if (bar.0 as usize) < nbars => {
                let e = bar.0 as usize;
                if init(e) >= 1 {
                    if let Some(f) = fifo.pop_front() {
                        merge(&mut cand, f, e);
                    }
                }
            }
            _ => {}
        });
    }

    let mut guard_of = vec![None; nbars];
    let mut guard_claims = vec![0usize; nbars];
    for (f, &c) in cand.iter().enumerate() {
        let Some(Some(e)) = c else { continue };
        if writers[f].len() > 1 {
            continue; // multiple writers: ownership unclear
        }
        guard_claims[e] += 1;
        guard_of[f] = Some(e);
    }
    // A guard claimed by several data barriers is ambiguous; drop all.
    let mut data_of = vec![None; nbars];
    for (f, guard) in guard_of.iter_mut().enumerate() {
        match *guard {
            Some(e) if guard_claims[e] == 1 => data_of[e] = Some(f),
            _ => *guard = None,
        }
    }
    Pairs { guard_of, data_of }
}

/// Abstract mbarrier: Hopper phase semantics with transaction bytes folded
/// into arrivals (completions are delivered immediately, so `tx` can delay
/// but never gate a phase — exactly the simulator's liveness behavior).
#[derive(Clone)]
struct AbsBar {
    arrive_count: u32,
    arrivals: u32,
    completed: u64,
}

impl AbsBar {
    /// Registers one arrival; true if it completed a phase.
    fn arrive(&mut self) -> bool {
        self.arrivals += 1;
        if self.arrivals >= self.arrive_count {
            self.arrivals -= self.arrive_count;
            self.completed += 1;
            true
        } else {
            false
        }
    }
}

/// One iteration scope: a body, the next instruction index, and the trips
/// left (including the current one).
#[derive(Clone)]
struct Frame<'a> {
    body: &'a [Instr],
    idx: usize,
    trips_left: u64,
    /// Instance id, unique per push: lets the period detector tell a frame
    /// that moved from one that was left and re-entered.
    id: u64,
    /// The `Count::Param` the trip count came from, if it was one.
    param: Option<usize>,
}

#[derive(Clone)]
struct Actor<'a> {
    role: Role,
    stack: Vec<Frame<'a>>,
    /// Phases this warp group has consumed per barrier (its parity).
    local_phase: Vec<u64>,
    /// `MbarArrive`s this warp group executed per barrier (its releases).
    releases: Vec<u64>,
    in_sync: bool,
    done: bool,
}

/// Per tile-slot bookkeeping for race and occupancy checks.
#[derive(Clone, Default)]
struct SlotState {
    /// TMA loads issued into the data barrier so far.
    loads: u64,
    /// Bytes staged into the generation currently being written.
    gen_bytes: u64,
    /// Bytes of completed, not-yet-released generations (FIFO).
    gens: VecDeque<u64>,
}

/// What an actor's program can reach, scanned once: the absolute counters
/// the interpreter compares enter a period signature only as the
/// differences this actor can ever evaluate.
#[derive(Default)]
struct Reach {
    /// Barriers it waits on.
    waits: Vec<usize>,
    /// Slot pairs `(data, guard)` it loads into (the overwrite check).
    loads_into: Vec<(usize, usize)>,
    /// Slot pairs `(guard, data)` it releases (the unordered-read check).
    releases: Vec<(usize, usize)>,
}

impl Reach {
    fn of(body: &[Instr], pairs: &Pairs) -> Reach {
        fn scan(body: &[Instr], pairs: &Pairs, r: &mut Reach) {
            for i in body {
                match i {
                    Instr::TmaLoad { bar, .. } => {
                        let f = bar.0 as usize;
                        if let Some(&Some(e)) = pairs.guard_of.get(f) {
                            r.loads_into.push((f, e));
                        }
                    }
                    Instr::MbarArrive { bar } => {
                        let e = bar.0 as usize;
                        if let Some(&Some(f)) = pairs.data_of.get(e) {
                            r.releases.push((e, f));
                        }
                    }
                    Instr::Loop { body, .. } => scan(body, pairs, r),
                    _ => {}
                }
            }
        }
        let mut r = Reach {
            waits: waited_barriers(body),
            ..Reach::default()
        };
        scan(body, pairs, &mut r);
        for list in [&mut r.loads_into, &mut r.releases] {
            list.sort_unstable();
            list.dedup();
        }
        r
    }
}

/// The interpreter's absolute counters at a snapshot: what
/// [`Machine::fast_forward`] extrapolates from.
#[derive(Clone)]
struct Mark {
    fuel: u64,
    /// Per barrier `completed`; per actor `local_phase` then `releases`;
    /// per slot `loads`.
    counters: Vec<u64>,
}

/// What the actor's program yields next.
enum Next<'a> {
    Instr(&'a Instr),
    /// The top frame finished a trip and has more (only reported for the
    /// actor whose back-edges are watched; taken by [`end_trip`]).
    BackEdge,
    End,
}

/// What walking a program reads and writes besides the actor: the class's
/// trip counts, the frame-instance counter, and — while a checkpoint may
/// still be offered — the record of every answer a trip count gave.
#[derive(Clone)]
struct Trips<'a> {
    params: &'a [u64],
    next_frame_id: u64,
    footprint: Option<Footprint>,
}

/// Resolves the actor's next blocking-relevant instruction, descending
/// into loops and — unless `pause` asks for them to be reported — taking
/// back-edges. The returned reference borrows the kernel, not the actor.
fn next<'a>(actor: &mut Actor<'a>, trips: &mut Trips<'_>, pause: bool) -> Next<'a> {
    loop {
        let Some(frame) = actor.stack.last_mut() else {
            return Next::End;
        };
        if frame.idx >= frame.body.len() {
            if pause && frame.trips_left > 1 {
                return Next::BackEdge;
            }
            end_trip(actor, trips);
            continue;
        }
        let body = frame.body;
        let instr = &body[frame.idx];
        if let Instr::Loop { count, body: lb } = instr {
            if lb.is_empty() {
                frame.idx += 1;
                continue;
            }
            let n = count.resolve(trips.params);
            let param = match *count {
                Count::Param(p) => Some(p),
                Count::Const(_) => None,
            };
            if let (Some(fp), Some(p)) = (&mut trips.footprint, param) {
                fp.resolved(p, n);
            }
            if n == 0 {
                frame.idx += 1;
                continue;
            }
            actor.stack.push(Frame {
                body: lb,
                idx: 0,
                trips_left: n,
                id: trips.next_frame_id,
                param,
            });
            trips.next_frame_id += 1;
            continue;
        }
        return Next::Instr(instr);
    }
}

/// The top frame reached the end of its body: start its next trip, or
/// leave it and step its parent past the loop.
fn end_trip(actor: &mut Actor<'_>, trips: &mut Trips<'_>) {
    let Some(frame) = actor.stack.last_mut() else {
        return;
    };
    if let (Some(fp), Some(p)) = (&mut trips.footprint, frame.param) {
        fp.tested(p, frame.trips_left);
    }
    if frame.trips_left > 1 {
        frame.trips_left -= 1;
        frame.idx = 0;
    } else {
        actor.stack.pop();
        advance(actor);
    }
}

fn advance(actor: &mut Actor<'_>) {
    if let Some(f) = actor.stack.last_mut() {
        f.idx += 1;
    }
}

fn path_of(actor: &Actor<'_>, wg: usize) -> InstrPath {
    InstrPath {
        wg,
        indices: actor.stack.iter().map(|f| f.idx).collect(),
    }
}

/// The abstract machine interpreting one CTA class.
///
/// Warp groups run round-robin, each until it blocks; a round in which
/// nobody moved is a deadlock. The loop bodies of a pipelined kernel make
/// every round after the ring fills a copy of the one before, so the
/// machine skips them the way the simulator engine does (see
/// [`crate::period`]): at the back-edges of one anchor warp group it
/// takes a signature of its state with the linear counters taken out,
/// and on a repeat advances those counters by whole periods.
///
/// In the signature: the round's `progressed` flag, the rendezvous count,
/// `in_flight`, `max_in_flight`, the number of lints and of resident
/// sites (so a period in which any of the three moved is no period),
/// every actor's flags and frames, every barrier's in-phase `arrivals`,
/// every slot's position inside its generation and its staged bytes; and,
/// as differences, exactly the comparisons the interpreter makes —
/// `completed − local_phase` for barriers the actor waits on, and the two
/// race-check margins for slots it loads into or releases. Advanced
/// linearly: `completed`, `local_phase`, `releases`, `loads`, trip
/// counters, and the fuel, with the skip capped so the budget runs out on
/// the identical step.
///
/// A class need not start from nothing: at its first skip the machine
/// offers itself to the [`Family`] as a checkpoint, a later class that
/// provably walked the same rounds so far starts from the clone
/// ([`Machine::resumed`]), and a class that reaches a state from which an
/// earlier one walked to a clean end without a new lint stops there
/// ([`Tail`]). See [`crate::period`] on families.
#[derive(Clone)]
struct Machine<'a> {
    k: &'a Kernel,
    ci: usize,
    trips: Trips<'a>,
    pairs: &'a Pairs,
    /// Per warp group; the same for every class.
    reach: &'a [Reach],
    bars: Vec<AbsBar>,
    actors: Vec<Actor<'a>>,
    sync_count: usize,
    /// Slot state per data barrier (`None` for unpaired barriers).
    slots: Vec<Option<SlotState>>,
    in_flight: u64,
    max_in_flight: u64,
    resident: HashSet<(usize, Vec<usize>)>,
    race_flagged: HashSet<(usize, bool)>,
    lints: Vec<Lint>,
    fuel: u64,
    /// Whether any actor moved in the current round.
    progressed: bool,
    /// The warp group whose back-edges are snapshotted, if any loops.
    anchor: Option<usize>,
    detector: PeriodDetector<Mark>,
    /// The actor whose turn it is: where a round is picked up again when
    /// this machine is a checkpoint.
    turn: usize,
    /// The states this class stood in right after each skip, with the fuel
    /// and the number of lints it had then.
    skips: Vec<(TailKey, u64, usize)>,
    /// An earlier class's tail stands in for the rest of this walk.
    reused_tail: bool,
    /// Instructions executed: the interpreter's unit of host work.
    steps: u64,
}

/// What a class spent walking from a [`TailKey`] to its end, raising no
/// lint on the way.
struct Tail {
    fuel: u64,
}

type Classes<'a> = Family<'a, Machine<'a>, Tail>;

fn interp_class<'a>(
    k: &'a Kernel,
    ci: usize,
    pairs: &'a Pairs,
    reach: &'a [Reach],
    fuel_budget: u64,
    fast_forward: bool,
    family: &mut Classes<'a>,
) -> (Vec<Lint>, u64) {
    let params = &k.classes[ci].params;
    let mut m = match family.admit(params) {
        Some((checkpoint, lower_by)) => checkpoint.resumed(ci, params, &lower_by),
        None => {
            let anchor = fast_forward.then(|| anchor_warp_group(k, params)).flatten();
            let track = anchor.is_some() && family.has_pending();
            Machine::new(k, ci, pairs, reach, fuel_budget, anchor, track)
        }
    };
    if !m.run(family) {
        m.lints.push(Lint::new(LintKind::AnalysisBudget {
            class: ci,
            budget: fuel_budget,
        }));
    } else if family.has_pending() {
        for (key, fuel, lints) in std::mem::take(&mut m.skips) {
            if lints == m.lints.len() {
                family.record(
                    key,
                    Tail {
                        fuel: fuel - m.fuel,
                    },
                );
            }
        }
    }
    (m.lints, m.steps)
}

impl<'a> Machine<'a> {
    /// The machine about to interpret class `ci` from its first
    /// instruction; `track` when a later class might start from it.
    fn new(
        k: &'a Kernel,
        ci: usize,
        pairs: &'a Pairs,
        reach: &'a [Reach],
        fuel_budget: u64,
        anchor: Option<usize>,
        track: bool,
    ) -> Machine<'a> {
        let nb = k.barriers.len();
        let params = &k.classes[ci].params;
        Machine {
            k,
            ci,
            trips: Trips {
                params,
                next_frame_id: k.warp_groups.len() as u64,
                footprint: track.then(|| Footprint::new(params.len())),
            },
            pairs,
            reach,
            bars: k
                .barriers
                .iter()
                .map(|b| AbsBar {
                    arrive_count: b.arrive_count.max(1),
                    arrivals: 0,
                    completed: b.init_phases as u64,
                })
                .collect(),
            actors: k
                .warp_groups
                .iter()
                .enumerate()
                .map(|(wi, wg)| Actor {
                    role: wg.role,
                    stack: vec![Frame {
                        body: &wg.body,
                        idx: 0,
                        trips_left: 1,
                        id: wi as u64,
                        param: None,
                    }],
                    local_phase: vec![0; nb],
                    releases: vec![0; nb],
                    in_sync: false,
                    done: false,
                })
                .collect(),
            sync_count: 0,
            slots: (0..nb)
                .map(|f| pairs.guard_of[f].map(|_| SlotState::default()))
                .collect(),
            in_flight: 0,
            max_in_flight: 0,
            resident: HashSet::new(),
            race_flagged: HashSet::new(),
            lints: Vec::new(),
            fuel: fuel_budget.max(1),
            progressed: false,
            anchor,
            detector: PeriodDetector::default(),
            turn: 0,
            skips: Vec::new(),
            reused_tail: false,
            steps: 0,
        }
    }

    /// This checkpoint as the machine of class `ci`, whose `params` are
    /// lower than the checkpointed class's by `lower_by` and otherwise ask
    /// nothing the prefix has not answered the same way: every live frame
    /// (here and in the detector's history) stands that much lower, and the
    /// interrupted turn is taken again.
    fn resumed(&self, ci: usize, params: &'a [u64], lower_by: &[u64]) -> Machine<'a> {
        let mut m = self.clone();
        m.ci = ci;
        m.trips.params = params;
        m.steps = 0;
        for f in m.actors.iter_mut().flat_map(|a| &mut a.stack) {
            f.trips_left -= lowered(f.param, lower_by);
        }
        m.detector.lower(lower_by);
        m
    }

    /// Interprets the class to its verdict; `false` when the fuel ran out
    /// first.
    fn run(&mut self, family: &mut Classes<'a>) -> bool {
        loop {
            while self.turn < self.actors.len() {
                if !self.run_actor(self.turn, family) {
                    return false;
                }
                if self.reused_tail {
                    return true;
                }
                self.turn += 1;
            }
            if self.actors.iter().all(|a| a.done) {
                self.report_leftovers();
                return true;
            }
            if !self.progressed {
                // Fixpoint with blocked actors: a definite deadlock in every
                // interleaving (see module docs on monotonicity).
                self.report_deadlock();
                return true;
            }
            self.progressed = false;
            self.turn = 0;
        }
    }

    /// Runs actor `ai` until it blocks or ends (or a known tail ends the
    /// walk); `false` when the fuel ran out.
    fn run_actor(&mut self, ai: usize, family: &mut Classes<'a>) -> bool {
        let k = self.k;
        let pairs = self.pairs;
        let watched = self.anchor == Some(ai);
        loop {
            if self.actors[ai].done {
                return true;
            }
            let instr = match next(&mut self.actors[ai], &mut self.trips, watched) {
                Next::Instr(instr) => instr,
                Next::BackEdge => {
                    if self.detector.due() {
                        self.fast_forward(family);
                        if self.reused_tail {
                            return true;
                        }
                    }
                    // (A skip may have left the frame on its last trip.)
                    end_trip(&mut self.actors[ai], &mut self.trips);
                    continue;
                }
                Next::End => {
                    self.actors[ai].done = true;
                    self.progressed = true;
                    return true;
                }
            };
            match instr {
                Instr::MbarWait { bar } => {
                    let b = bar.0 as usize;
                    if self.bars[b].completed > self.actors[ai].local_phase[b] {
                        self.actors[ai].local_phase[b] += 1;
                        advance(&mut self.actors[ai]);
                    } else {
                        return true; // blocked: revisited next round
                    }
                }
                Instr::Syncthreads => {
                    if !self.actors[ai].in_sync {
                        self.actors[ai].in_sync = true;
                        self.sync_count += 1;
                    }
                    if self.sync_count == self.actors.len() {
                        self.sync_count = 0;
                        for a in self.actors.iter_mut() {
                            if a.in_sync {
                                a.in_sync = false;
                                advance(a);
                            }
                        }
                    } else {
                        return true; // blocked at the rendezvous
                    }
                }
                Instr::TmaLoad { bytes, bar } => {
                    let f = bar.0 as usize;
                    if let Some(&Some(e)) = pairs.guard_of.get(f) {
                        let st = self.slots[f].as_mut().expect("paired barriers have slots");
                        let per_phase = self.bars[f].arrive_count as u64;
                        let g = st.loads / per_phase;
                        let init_e = k.barriers[e].init_phases as u64;
                        // Overwriting generation `g` is ordered only if
                        // the writer consumed a guard credit covering
                        // the release of generation `g - init`.
                        if g >= init_e
                            && self.actors[ai].local_phase[e] < g + 1
                            && self.race_flagged.insert((f, true))
                        {
                            let mut lint = Lint::at(
                                LintKind::SharedMemRace {
                                    data: BarId(f as u32),
                                    name: k.barriers[f].name.clone(),
                                    guard: BarId(e as u32),
                                    role: self.actors[ai].role,
                                    generation: g,
                                    write: true,
                                },
                                path_of(&self.actors[ai], ai),
                            );
                            lint.loc = k.bar_loc(BarId(f as u32)).or(k.bar_loc(BarId(e as u32)));
                            self.lints.push(lint);
                        }
                        st.loads += 1;
                        st.gen_bytes += bytes;
                        self.in_flight += bytes;
                        self.max_in_flight = self.max_in_flight.max(self.in_flight);
                        if self.bars[f].arrive() {
                            let full = st.gen_bytes;
                            st.gen_bytes = 0;
                            st.gens.push_back(full);
                        }
                    } else {
                        // Unpaired loads (prologue tiles, sync-barrier
                        // feeds) stay resident; count each site once.
                        let key = (ai, path_of(&self.actors[ai], ai).indices);
                        if self.resident.insert(key) {
                            self.in_flight += bytes;
                            self.max_in_flight = self.max_in_flight.max(self.in_flight);
                        }
                        self.bars[f].arrive();
                    }
                    advance(&mut self.actors[ai]);
                }
                Instr::MbarArrive { bar } => {
                    let e = bar.0 as usize;
                    let data = pairs.data_of.get(e).copied().flatten();
                    if let Some(f) = data {
                        let j = self.actors[ai].releases[e];
                        let init_f = k.barriers[f].init_phases as u64;
                        // Releasing read `j` is ordered only if the
                        // reader consumed the data phase it read.
                        if self.actors[ai].local_phase[f] + init_f < j + 1
                            && self.race_flagged.insert((f, false))
                        {
                            let mut lint = Lint::at(
                                LintKind::SharedMemRace {
                                    data: BarId(f as u32),
                                    name: k.barriers[f].name.clone(),
                                    guard: BarId(e as u32),
                                    role: self.actors[ai].role,
                                    generation: j,
                                    write: false,
                                },
                                path_of(&self.actors[ai], ai),
                            );
                            lint.loc = k.bar_loc(BarId(f as u32)).or(k.bar_loc(BarId(e as u32)));
                            self.lints.push(lint);
                        }
                    }
                    self.actors[ai].releases[e] += 1;
                    if self.bars[e].arrive() {
                        if let Some(slot) = data.and_then(|f| self.slots[f].as_mut()) {
                            if let Some(freed) = slot.gens.pop_front() {
                                self.in_flight = self.in_flight.saturating_sub(freed);
                            }
                        }
                    }
                    advance(&mut self.actors[ai]);
                }
                // Pure timing: WGMMA / CUDA / copies / stores / delays
                // never gate liveness (their completions always fire).
                _ => advance(&mut self.actors[ai]),
            }
            self.progressed = true;
            self.steps += 1;
            self.fuel -= 1;
            if self.fuel == 0 {
                return false;
            }
        }
    }

    /// All actors ran to completion: report what they left behind.
    fn report_leftovers(&mut self) {
        let k = self.k;
        for (b, bar) in self.bars.iter().enumerate() {
            if bar.arrivals > 0 {
                let mut lint = Lint::new(LintKind::DoubleArrive {
                    bar: BarId(b as u32),
                    name: k.barriers[b].name.clone(),
                    residue: bar.arrivals,
                });
                lint.loc = k.bar_loc(BarId(b as u32));
                self.lints.push(lint);
            }
        }
        if k.smem_bytes > 0 && self.max_in_flight > k.smem_bytes {
            self.lints.push(Lint::new(LintKind::SmemOverflow {
                max_in_flight: self.max_in_flight,
                smem_bytes: k.smem_bytes,
            }));
        }
    }

    /// Nobody can move: one lint per stuck actor.
    fn report_deadlock(&mut self) {
        let k = self.k;
        let expected = self.actors.len();
        for (ai, actor) in self.actors.iter_mut().enumerate() {
            if actor.done {
                continue;
            }
            let path = path_of(actor, ai);
            let role = actor.role;
            match next(actor, &mut self.trips, false) {
                Next::Instr(Instr::MbarWait { bar }) => {
                    let b = bar.0 as usize;
                    let mut lint = Lint::at(
                        LintKind::StaticDeadlock {
                            class: self.ci,
                            role,
                            bar: *bar,
                            name: k.barriers[b].name.clone(),
                            waiting_phase: actor.local_phase[b],
                            completed_phases: self.bars[b].completed,
                            arrivals: self.bars[b].arrivals,
                            arrive_count: self.bars[b].arrive_count,
                        },
                        path,
                    );
                    lint.loc = k.bar_loc(*bar);
                    self.lints.push(lint);
                }
                Next::Instr(Instr::Syncthreads) => {
                    self.lints.push(Lint::at(
                        LintKind::SyncDeadlock {
                            class: self.ci,
                            role,
                            arrived: self.sync_count,
                            expected,
                        },
                        path,
                    ));
                }
                _ => {}
            }
        }
    }

    /// The state with every linear counter taken out (see the type docs),
    /// plus every live loop frame in actor order.
    fn signature(&self) -> (Vec<u64>, Vec<FrameMark>) {
        let mut sig = Vec::with_capacity(96);
        sig.extend([
            self.progressed as u64,
            self.sync_count as u64,
            self.in_flight,
            self.max_in_flight,
            self.lints.len() as u64,
            self.resident.len() as u64,
        ]);
        for (a, reach) in self.actors.iter().zip(self.reach) {
            sig.extend([
                a.done as u64 | (a.in_sync as u64) << 1,
                a.stack.len() as u64,
            ]);
            for f in &a.stack {
                sig.extend([f.body.as_ptr() as u64, f.idx as u64]);
            }
            for &b in &reach.waits {
                sig.push(self.bars[b].completed.wrapping_sub(a.local_phase[b]));
            }
            for &(f, e) in &reach.loads_into {
                sig.push(a.local_phase[e].wrapping_sub(self.generation(f)));
            }
            for &(e, f) in &reach.releases {
                sig.push(a.local_phase[f].wrapping_sub(a.releases[e]));
            }
        }
        sig.extend(self.bars.iter().map(|b| b.arrivals as u64));
        for (f, slot) in self.slots.iter().enumerate() {
            let (Some(slot), Some(&Some(e))) = (slot, self.pairs.guard_of.get(f)) else {
                continue;
            };
            sig.extend([
                slot.loads % self.bars[f].arrive_count as u64,
                // The overwrite check only asks whether the generation is
                // past the guard's initial credits.
                self.generation(f)
                    .min(self.k.barriers[e].init_phases as u64),
                slot.gen_bytes,
                slot.gens.len() as u64,
            ]);
            sig.extend(&slot.gens);
        }
        (sig, self.frame_marks())
    }

    /// Every live loop frame in actor order.
    fn frame_marks(&self) -> Vec<FrameMark> {
        (self.actors.iter().flat_map(|a| &a.stack))
            .map(|f| FrameMark {
                id: f.id,
                remaining: f.trips_left,
                param: f.param,
            })
            .collect()
    }

    /// Generation of slot `f` the next load writes.
    fn generation(&self, f: usize) -> u64 {
        let loads = self.slots[f].as_ref().map_or(0, |s| s.loads);
        loads / self.bars[f].arrive_count as u64
    }

    fn counters(&self) -> impl Iterator<Item = u64> + '_ {
        let bars = self.bars.iter().map(|b| b.completed);
        let actors = self
            .actors
            .iter()
            .flat_map(|a| a.local_phase.iter().chain(&a.releases).copied());
        let slots = self.slots.iter().flatten().map(|s| s.loads);
        bars.chain(actors).chain(slots)
    }

    /// At a watched back-edge: if this state was seen before, jump as many
    /// whole periods as the loops and the fuel allow — and, standing where
    /// an earlier class stood, take its tail as walked.
    fn fast_forward(&mut self, family: &mut Classes<'a>) {
        let (sig, frames) = self.signature();
        let mark = Mark {
            fuel: self.fuel,
            counters: self.counters().collect(),
        };
        let Some(skip) = self.detector.observe(sig, frames, mark) else {
            return;
        };
        // The first skip: what comes before it is what classes can share.
        if let Some(footprint) = self.trips.footprint.take() {
            family.offer(&footprint, self.trips.params, || self.clone());
        }
        // The budget must run out on the step it would have: keep at least
        // one unit of fuel for the walk to spend. Every counter below grows
        // by at most one per unit of fuel, so the budget also bounds them.
        let spent = skip.then.fuel - self.fuel;
        let n = match spent {
            0 => skip.periods,
            _ => skip.periods.min((self.fuel - 1) / spent),
        };
        self.fuel -= n * spent;
        let mut then = skip.then.counters.iter();
        let mut deltas = skip.frame_deltas.iter();
        let mut grow = |cur: &mut u64| {
            let was = then.next().expect("marks list the same counters");
            *cur += n * (*cur - was);
        };
        self.bars.iter_mut().for_each(|b| grow(&mut b.completed));
        for a in &mut self.actors {
            a.local_phase.iter_mut().for_each(&mut grow);
            a.releases.iter_mut().for_each(&mut grow);
            for (f, delta) in a.stack.iter_mut().zip(&mut deltas) {
                f.trips_left = (n.checked_mul(*delta))
                    .and_then(|trips| f.trips_left.checked_sub(trips))
                    .filter(|&left| left > 0)
                    .expect("the detector leaves every moved frame its last trip");
            }
        }
        self.slots
            .iter_mut()
            .flatten()
            .for_each(|s| grow(&mut s.loads));
        if !family.is_family() {
            return;
        }

        let key = self.tail_key(skip.sig, family);
        match family.tail(&key) {
            // The tail raised no lint and fits the fuel: the verdict is the
            // lints so far. (Short of fuel, walk it: the budget must fire
            // on its own step.)
            Some(tail) if tail.fuel < self.fuel => {
                self.fuel -= tail.fuel;
                self.reused_tail = true;
            }
            _ if family.has_pending() => self.skips.push((key, self.fuel, self.lints.len())),
            _ => {}
        }
    }

    /// The key of the state right after a skip that matched `sig`. The two
    /// sets a signature holds only by size join it in full: within one walk
    /// equal sizes a period apart mean equal sets, across classes they need
    /// not.
    fn tail_key(&self, mut sig: Vec<u64>, family: &Classes<'a>) -> TailKey {
        let mut flagged: Vec<u64> = (self.race_flagged.iter())
            .map(|&(f, write)| (f as u64) << 1 | write as u64)
            .collect();
        flagged.sort_unstable();
        sig.extend(flagged);
        let mut resident: Vec<_> = self.resident.iter().collect();
        resident.sort_unstable();
        for (ai, path) in resident {
            sig.extend([*ai as u64, path.len() as u64]);
            sig.extend(path.iter().map(|&i| i as u64));
        }
        family.tail_key(sig, &self.frame_marks(), self.trips.params, 1)
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, deadlock_verdict, LintKind, Severity};
    use crate::instr::{Instr, Role};
    use crate::kernel::{Kernel, SrcLoc};

    /// The paper's Fig. 4 protocol, correctly credited: producer waits
    /// `empty` (one initial credit), loads into `full`; consumer waits
    /// `full`, releases `empty`.
    fn handshake(iters: u64, empty_init: u32) -> Kernel {
        let mut k = Kernel::new("hs");
        k.uniform_grid(1);
        k.smem_bytes = 64 * 1024;
        let full = k.add_barrier("full", 1);
        let empty = k.add_barrier_init("empty", 1, empty_init);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(
                iters,
                vec![
                    Instr::MbarWait { bar: empty },
                    Instr::TmaLoad {
                        bytes: 32 * 1024,
                        bar: full,
                    },
                ],
            )],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![Instr::loop_const(
                iters,
                vec![
                    Instr::MbarWait { bar: full },
                    Instr::MbarArrive { bar: empty },
                ],
            )],
        );
        k
    }

    #[test]
    fn correct_handshake_is_clean() {
        let lints = analyze(&handshake(16, 1));
        assert!(lints.is_empty(), "{lints:?}");
    }

    #[test]
    fn missing_initial_credit_is_a_static_deadlock() {
        // Same circular protocol as the simulator's deadlock test: no
        // initial credit on `empty`, so both warp groups wait forever.
        let lints = analyze(&handshake(16, 0));
        assert!(
            lints
                .iter()
                .any(|l| matches!(l.kind, LintKind::StaticDeadlock { .. })),
            "{lints:?}"
        );
        let verdict = deadlock_verdict(&lints).unwrap();
        assert!(verdict.starts_with("static deadlock:"), "{verdict}");
    }

    #[test]
    fn arrive_count_shortfall_is_a_static_deadlock() {
        // `full` expects two arrivals per phase but each parity delivers
        // only one TMA load: the consumer starves mid-loop.
        let mut k = handshake(8, 1);
        k.barriers[0].arrive_count = 2;
        let lints = analyze(&k);
        // The consumer starves on `full` with one of two arrivals landed.
        assert!(
            lints.iter().any(|l| matches!(
                l.kind,
                LintKind::StaticDeadlock {
                    arrivals: 1,
                    arrive_count: 2,
                    ..
                }
            )),
            "{lints:?}"
        );
    }

    #[test]
    fn parity_mismatch_is_a_static_deadlock() {
        // Consumer waits twice per produced phase: parity runs ahead.
        let mut k = handshake(8, 1);
        k.warp_groups[1].body = vec![Instr::loop_const(
            8,
            vec![
                Instr::MbarWait {
                    bar: crate::BarId(0),
                },
                Instr::MbarWait {
                    bar: crate::BarId(0),
                },
                Instr::MbarArrive {
                    bar: crate::BarId(1),
                },
            ],
        )];
        let lints = analyze(&k);
        assert!(lints.iter().any(|l| l.is_definite_deadlock()), "{lints:?}");
    }

    #[test]
    fn unguarded_overwrite_is_a_race() {
        // Producer never waits for the slot release; generation 1
        // overwrites while the consumer may still be reading generation 0.
        let mut k = handshake(8, 1);
        k.warp_groups[0].body = vec![Instr::loop_const(
            8,
            vec![Instr::TmaLoad {
                bytes: 32 * 1024,
                bar: crate::BarId(0),
            }],
        )];
        let mut lints = analyze(&k);
        let race = lints
            .iter()
            .position(|l| matches!(l.kind, LintKind::SharedMemRace { write: true, .. }))
            .unwrap_or_else(|| panic!("{lints:?}"));
        let race = lints.remove(race);
        assert_eq!(race.severity(), Severity::Error);
    }

    #[test]
    fn race_lint_carries_the_authoring_loc() {
        let mut k = handshake(8, 1);
        k.set_bar_loc(
            crate::BarId(0),
            SrcLoc {
                file: "zoo/gemm.rs",
                line: 31,
                col: 9,
            },
        );
        k.warp_groups[0].body = vec![Instr::loop_const(
            8,
            vec![Instr::TmaLoad {
                bytes: 32 * 1024,
                bar: crate::BarId(0),
            }],
        )];
        let lints = analyze(&k);
        let race = lints
            .iter()
            .find(|l| matches!(l.kind, LintKind::SharedMemRace { .. }))
            .unwrap();
        assert!(
            race.to_string().contains("zoo/gemm.rs:31:9"),
            "race lint must print the author's file:line, got: {race}"
        );
    }

    #[test]
    fn unordered_release_is_a_race() {
        // Consumer releases the slot without ever waiting for the data.
        let mut k = handshake(8, 1);
        k.warp_groups[1].body = vec![
            Instr::MbarWait {
                bar: crate::BarId(0),
            },
            Instr::loop_const(
                8,
                vec![Instr::MbarArrive {
                    bar: crate::BarId(1),
                }],
            ),
        ];
        let lints = analyze(&k);
        assert!(
            lints
                .iter()
                .any(|l| matches!(l.kind, LintKind::SharedMemRace { write: false, .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn stranded_arrivals_and_dead_barriers_warn() {
        let mut k = handshake(4, 1);
        let dead = k.add_barrier("scratch", 1);
        // An extra arrive per iteration that no wait ever consumes fully.
        k.warp_groups[1].body = vec![Instr::loop_const(
            4,
            vec![
                Instr::MbarWait {
                    bar: crate::BarId(0),
                },
                Instr::MbarArrive {
                    bar: crate::BarId(1),
                },
            ],
        )];
        let extra = k.add_barrier("stray", 4);
        k.warp_groups[1].body.push(Instr::MbarArrive { bar: extra });
        // `extra` is arrived once with arrive_count 4: stranded mid-phase.
        let lints = analyze(&k);
        assert!(
            lints
                .iter()
                .any(|l| matches!(l.kind, LintKind::DeadBarrier { bar, .. } if bar == dead)),
            "{lints:?}"
        );
        assert!(
            lints
                .iter()
                .any(|l| matches!(l.kind, LintKind::DoubleArrive { residue: 1, .. })),
            "{lints:?}"
        );
        assert!(lints.iter().all(|l| l.severity() == Severity::Warning));
    }

    #[test]
    fn under_provisioned_staging_warns() {
        // Two slots in flight at 32 KiB each, but only 40 KiB declared.
        let mut k = Kernel::new("tight");
        k.uniform_grid(1);
        k.smem_bytes = 40 * 1024;
        let f0 = k.add_barrier("full0", 1);
        let e0 = k.add_barrier_init("empty0", 1, 1);
        let f1 = k.add_barrier("full1", 1);
        let e1 = k.add_barrier_init("empty1", 1, 1);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(
                4,
                vec![
                    Instr::MbarWait { bar: e0 },
                    Instr::TmaLoad {
                        bytes: 32 * 1024,
                        bar: f0,
                    },
                    Instr::MbarWait { bar: e1 },
                    Instr::TmaLoad {
                        bytes: 32 * 1024,
                        bar: f1,
                    },
                ],
            )],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![Instr::loop_const(
                4,
                vec![
                    Instr::MbarWait { bar: f0 },
                    Instr::MbarArrive { bar: e0 },
                    Instr::MbarWait { bar: f1 },
                    Instr::MbarArrive { bar: e1 },
                ],
            )],
        );
        let lints = analyze(&k);
        assert!(
            lints
                .iter()
                .any(|l| matches!(l.kind, LintKind::SmemOverflow { .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn missing_sync_participant_is_a_sync_deadlock() {
        let mut k = Kernel::new("sync");
        k.uniform_grid(1);
        k.add_warp_group(Role::Uniform, 128, vec![Instr::Syncthreads]);
        k.add_warp_group(
            Role::Uniform,
            128,
            vec![Instr::CudaOp {
                flops: 1,
                sfu: 0,
                label: "noop",
            }],
        );
        let lints = analyze(&k);
        assert!(
            lints
                .iter()
                .any(|l| matches!(l.kind, LintKind::SyncDeadlock { .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn per_class_trip_counts_are_respected() {
        // Param-driven trips: class 0 balanced, class 1 starves the
        // consumer by one parity.
        let mut k = handshake(1, 1);
        k.classes = vec![crate::CtaClass {
            params: vec![4],
            multiplicity: 2,
        }];
        k.warp_groups[0].body = vec![Instr::loop_param(
            0,
            vec![
                Instr::MbarWait {
                    bar: crate::BarId(1),
                },
                Instr::TmaLoad {
                    bytes: 32 * 1024,
                    bar: crate::BarId(0),
                },
            ],
        )];
        k.warp_groups[1].body = vec![
            Instr::loop_param(
                0,
                vec![
                    Instr::MbarWait {
                        bar: crate::BarId(0),
                    },
                    Instr::MbarArrive {
                        bar: crate::BarId(1),
                    },
                ],
            ),
            // One extra wait past the produced parities.
            Instr::MbarWait {
                bar: crate::BarId(0),
            },
        ];
        let lints = analyze(&k);
        assert!(lints.iter().any(|l| l.is_definite_deadlock()), "{lints:?}");
    }
}
