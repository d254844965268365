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
//! The interpreter is the second [`Walker`] of [`crate::walk`], beside the
//! simulator engine: cursors, barriers ([`Mbarrier`], driven without
//! transaction bytes), steady-state skips and the class family are the
//! walker's (see [`crate::period`] for why they are exact). What is the
//! gate's own: the slot pairs, what each warp group can reach, the lints,
//! and the fuel — a skip is capped so the budget runs out on the step it
//! would have, and a class reuses another's tail only if that one raised no
//! lint and fits the fuel left. Lints, and the step on which the budget
//! runs out, are those of walking every trip of every class on its own;
//! classes are walked largest first and their lints are folded and
//! deduplicated in class order.
//!
//! The shared-memory tile ownership map is recovered from the aref
//! discipline the code generator emits (paper Fig. 4): a barrier written
//! by TMA (`full`) is paired with the credit-initialized barrier its
//! writer waits on (`empty`); the pair guards one tile slot. Writes and
//! releases are then checked for a barrier edge in every parity — a
//! missing edge is a shared-memory race.

use std::collections::{HashSet, VecDeque};

use super::{BarrierUse, InstrPath, Lint, LintKind};
use crate::instr::{BarId, Instr, Role};
use crate::kernel::Kernel;
use crate::period::waited_barriers;
use crate::walk::{walk_classes, Classes, Halt, Mbarrier, Walk, Walker};

/// The lints of the protocol tier and the abstract steps executed to find
/// them. `fast_forward = false` walks every trip of every loop of every
/// class (no anchor): the reference the differential tests hold the
/// skipping interpreter against.
pub(super) fn check(
    k: &Kernel,
    uses: &[BarrierUse],
    fuel: u64,
    fast_forward: bool,
) -> (Vec<Lint>, u64) {
    let mut lints = Vec::new();
    scan_static(k, uses, &mut lints);
    let pairs = derive_pairs(k);
    let reach: Vec<Reach> = k
        .warp_groups
        .iter()
        .map(|wg| Reach::of(&wg.body, &pairs))
        .collect();
    let per_class = walk_classes(k, |ci, track| {
        Machine::new(k, ci, &pairs, &reach, fuel, !fast_forward, track)
    });
    let mut seen: HashSet<String> = HashSet::new();
    let mut steps = 0;
    for (found, walked) in per_class {
        steps += walked;
        for lint in found {
            if seen.insert(dedup_key(&lint)) {
                lints.push(lint);
            }
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
fn scan_static(k: &Kernel, uses: &[BarrierUse], lints: &mut Vec<Lint>) {
    for (wi, wg) in k.warp_groups.iter().enumerate() {
        let mut path = Vec::new();
        super::visit_with_path(&wg.body, &mut path, &mut |i, p| match i {
            Instr::TmaLoad { bytes, .. } if k.smem_bytes > 0 && *bytes > k.smem_bytes => {
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
            _ => {}
        });
    }
    for (b, (decl, u)) in k.barriers.iter().zip(uses).enumerate() {
        let bar = BarId(b as u32);
        let kind = match (u.waited, u.signalled()) {
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

#[derive(Clone)]
struct Actor {
    role: Role,
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
        let mut r = Reach {
            waits: waited_barriers(body),
            ..Reach::default()
        };
        super::visit_with_path(body, &mut Vec::new(), &mut |i, _| match i {
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
            _ => {}
        });
        for list in [&mut r.loads_into, &mut r.releases] {
            list.sort_unstable();
            list.dedup();
        }
        r
    }
}

/// The abstract machine interpreting one CTA class.
///
/// Warp groups run round-robin, each until it blocks; a round in which
/// nobody moved is a deadlock. The loop bodies of a pipelined kernel make
/// every round after the ring fills a copy of the one before, which the
/// walker skips.
///
/// In the signature: the round's `progressed` flag, the rendezvous count,
/// `in_flight`, `max_in_flight`, the number of lints and of resident
/// sites (so a period in which any of the three moved is no period),
/// every actor's flags and frames, every barrier's in-phase `arrivals`,
/// every slot's position inside its generation and its staged bytes; and,
/// as differences, exactly the comparisons the interpreter makes —
/// `completed − local_phase` for barriers the actor waits on, and the two
/// race-check margins for slots it loads into or releases. Advanced
/// linearly: `completed`, `local_phase`, `releases`, `loads`, and the
/// fuel, with the skip capped so the budget runs out on the identical
/// step. A tail is `(fuel, lints)`: right after a skip the fuel left and
/// the lints raised, at a clean end the fuel the rest took.
#[derive(Clone)]
struct Machine<'a> {
    k: &'a Kernel,
    ci: usize,
    pairs: &'a Pairs,
    /// Per warp group; the same for every class.
    reach: &'a [Reach],
    bars: Vec<Mbarrier>,
    actors: Vec<Actor>,
    walk: Walk<'a, (u64, usize)>,
    sync_count: usize,
    /// Slot state per data barrier (`None` for unpaired barriers).
    slots: Vec<Option<SlotState>>,
    in_flight: u64,
    max_in_flight: u64,
    resident: HashSet<(usize, Vec<usize>)>,
    race_flagged: HashSet<(usize, bool)>,
    lints: Vec<Lint>,
    /// The fuel the class started with, and what is left of it.
    budget: u64,
    fuel: u64,
    /// Whether any actor moved in the current round.
    progressed: bool,
    /// The actor whose turn it is: where a round is picked up again when
    /// this machine is a checkpoint.
    turn: usize,
}

impl<'a> Machine<'a> {
    /// The machine about to interpret class `ci` from its first
    /// instruction; `track` when a later class might start from it.
    fn new(
        k: &'a Kernel,
        ci: usize,
        pairs: &'a Pairs,
        reach: &'a [Reach],
        budget: u64,
        reference: bool,
        track: bool,
    ) -> Machine<'a> {
        let nb = k.barriers.len();
        let bodies = k.warp_groups.iter().map(|wg| &wg.body[..]);
        Machine {
            k,
            ci,
            pairs,
            reach,
            bars: (k.barriers.iter())
                .map(|b| Mbarrier::new(b.arrive_count, b.init_phases))
                .collect(),
            actors: (k.warp_groups.iter())
                .map(|wg| Actor {
                    role: wg.role,
                    local_phase: vec![0; nb],
                    releases: vec![0; nb],
                    in_sync: false,
                    done: false,
                })
                .collect(),
            walk: Walk::new(k, bodies, &k.classes[ci].params, 1, reference, track),
            sync_count: 0,
            slots: (0..nb)
                .map(|f| pairs.guard_of[f].map(|_| SlotState::default()))
                .collect(),
            in_flight: 0,
            max_in_flight: 0,
            resident: HashSet::new(),
            race_flagged: HashSet::new(),
            lints: Vec::new(),
            budget,
            fuel: budget.max(1),
            progressed: false,
            turn: 0,
        }
    }

    /// Runs actor `ai` until it blocks or ends (or the walk halts);
    /// `false` when the fuel ran out.
    fn run_actor(&mut self, ai: usize, family: &mut Classes<'a, Self>) -> bool {
        let k = self.k;
        let pairs = self.pairs;
        loop {
            if self.actors[ai].done {
                return true;
            }
            let Some(instr) = self.fetch(ai, family) else {
                if self.walk.halt.is_none() {
                    self.actors[ai].done = true;
                    self.progressed = true;
                }
                return true;
            };
            match instr {
                // Entering a loop takes no step.
                Instr::Loop { count, body } => {
                    let params = self.walk.params;
                    self.walk.enter(ai, *count, body, params);
                    continue;
                }
                Instr::MbarWait { bar } => {
                    let b = bar.0 as usize;
                    if self.bars[b].completed_phases() > self.actors[ai].local_phase[b] {
                        self.actors[ai].local_phase[b] += 1;
                    } else {
                        return true; // blocked: revisited next round
                    }
                }
                Instr::Syncthreads => {
                    if !self.actors[ai].in_sync {
                        self.sync_count += 1;
                    }
                    if self.sync_count < self.actors.len() {
                        self.actors[ai].in_sync = true;
                        return true; // blocked at the rendezvous
                    }
                    // Everyone else waiting steps past; this one below.
                    self.sync_count = 0;
                    self.actors[ai].in_sync = false;
                    for (a, cursor) in self.actors.iter_mut().zip(&mut self.walk.cursors) {
                        if std::mem::take(&mut a.in_sync) {
                            cursor.advance();
                        }
                    }
                }
                Instr::TmaLoad { bytes, bar } => {
                    let f = bar.0 as usize;
                    if let Some(&Some(e)) = pairs.guard_of.get(f) {
                        // Overwriting generation `g` is ordered only if
                        // the writer consumed a guard credit covering
                        // the release of generation `g - init`.
                        let g = self.generation(f);
                        let init_e = k.barriers[e].init_phases as u64;
                        if g >= init_e && self.actors[ai].local_phase[e] < g + 1 {
                            self.race(ai, f, e, g, true);
                        }
                    }
                    // Exactly the paired barriers have slots.
                    if let Some(st) = self.slots.get_mut(f).and_then(Option::as_mut) {
                        st.loads += 1;
                        st.gen_bytes = st.gen_bytes.saturating_add(*bytes);
                        self.in_flight = self.in_flight.saturating_add(*bytes);
                        self.max_in_flight = self.max_in_flight.max(self.in_flight);
                        if self.bars[f].arrive() {
                            st.gens.push_back(std::mem::take(&mut st.gen_bytes));
                        }
                    } else {
                        // Unpaired loads (prologue tiles, sync-barrier
                        // feeds) stay resident; count each site once.
                        let key = (ai, self.walk.cursors[ai].path(ai).indices);
                        if self.resident.insert(key) {
                            self.in_flight = self.in_flight.saturating_add(*bytes);
                            self.max_in_flight = self.max_in_flight.max(self.in_flight);
                        }
                        self.bars[f].arrive();
                    }
                }
                Instr::MbarArrive { bar } => {
                    let e = bar.0 as usize;
                    let data = pairs.data_of.get(e).copied().flatten();
                    if let Some(f) = data {
                        // Releasing read `j` is ordered only if the
                        // reader consumed the data phase it read.
                        let j = self.actors[ai].releases[e];
                        let init_f = k.barriers[f].init_phases as u64;
                        if self.actors[ai].local_phase[f] + init_f < j + 1 {
                            self.race(ai, f, e, j, false);
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
                }
                // Pure timing: WGMMA / CUDA / copies / stores / delays
                // never gate liveness (their completions always fire).
                _ => {}
            }
            self.walk.cursors[ai].advance();
            self.progressed = true;
            self.walk.work += 1;
            self.fuel -= 1;
            if self.fuel == 0 {
                return false;
            }
        }
    }

    /// Actor `ai`'s write into (`write`) or release of the slot of data
    /// barrier `f`, guard `e`, is unordered: a race, reported once per slot
    /// and direction.
    fn race(&mut self, ai: usize, f: usize, e: usize, generation: u64, write: bool) {
        if !self.race_flagged.insert((f, write)) {
            return;
        }
        let (k, data, guard) = (self.k, BarId(f as u32), BarId(e as u32));
        let kind = LintKind::SharedMemRace {
            data,
            name: k.barriers[f].name.clone(),
            guard,
            role: self.actors[ai].role,
            generation,
            write,
        };
        let mut lint = Lint::at(kind, self.walk.cursors[ai].path(ai));
        lint.loc = k.bar_loc(data).or(k.bar_loc(guard));
        self.lints.push(lint);
    }

    /// All actors ran to completion: report what they left behind.
    fn report_leftovers(&mut self) {
        let k = self.k;
        for (b, bar) in self.bars.iter().enumerate() {
            if bar.arrivals() > 0 {
                let mut lint = Lint::new(LintKind::DoubleArrive {
                    bar: BarId(b as u32),
                    name: k.barriers[b].name.clone(),
                    residue: bar.arrivals(),
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

    /// Nobody can move: one lint per stuck actor, at the instruction its
    /// cursor stands at.
    fn report_deadlock(&mut self) {
        let k = self.k;
        let expected = self.actors.len();
        for (ai, (actor, cursor)) in self.actors.iter().zip(&self.walk.cursors).enumerate() {
            if actor.done {
                continue;
            }
            let (path, role) = (cursor.path(ai), actor.role);
            match cursor.current() {
                Some(Instr::MbarWait { bar }) => {
                    let b = bar.0 as usize;
                    let mut lint = Lint::at(
                        LintKind::StaticDeadlock {
                            class: self.ci,
                            role,
                            bar: *bar,
                            name: k.barriers[b].name.clone(),
                            waiting_phase: actor.local_phase[b],
                            completed_phases: self.bars[b].completed_phases(),
                            arrivals: self.bars[b].arrivals(),
                            arrive_count: self.bars[b].arrive_count,
                        },
                        path,
                    );
                    lint.loc = k.bar_loc(*bar);
                    self.lints.push(lint);
                }
                Some(Instr::Syncthreads) => {
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

    /// Generation of slot `f` the next load writes.
    fn generation(&self, f: usize) -> u64 {
        let loads = self.slots[f].as_ref().map_or(0, |s| s.loads);
        loads / self.bars[f].arrive_count as u64
    }
}

impl<'a> Walker<'a> for Machine<'a> {
    type Tail = (u64, usize);
    type Out = (Vec<Lint>, u64);

    fn walk(&mut self) -> &mut Walk<'a, (u64, usize)> {
        &mut self.walk
    }

    /// The state with every linear counter taken out (see the type docs).
    fn signature(&self) -> Vec<u64> {
        let mut sig = Vec::with_capacity(96);
        sig.extend([
            self.progressed as u64,
            self.sync_count as u64,
            self.in_flight,
            self.max_in_flight,
            self.lints.len() as u64,
            self.resident.len() as u64,
        ]);
        let actors = self.actors.iter().zip(&self.walk.cursors);
        for ((a, cursor), reach) in actors.zip(self.reach) {
            sig.push(a.done as u64 | (a.in_sync as u64) << 1);
            cursor.sig(&mut sig);
            for &b in &reach.waits {
                sig.push(
                    self.bars[b]
                        .completed_phases()
                        .wrapping_sub(a.local_phase[b]),
                );
            }
            for &(f, e) in &reach.loads_into {
                sig.push(a.local_phase[e].wrapping_sub(self.generation(f)));
            }
            for &(e, f) in &reach.releases {
                sig.push(a.local_phase[f].wrapping_sub(a.releases[e]));
            }
        }
        sig.extend(self.bars.iter().map(|b| b.arrivals() as u64));
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
        sig
    }

    fn clock(&self) -> u64 {
        self.fuel
    }

    /// Per barrier `completed`; per actor `local_phase` then `releases`;
    /// per slot `loads`.
    fn counters(&mut self) -> impl Iterator<Item = &mut u64> {
        let bars = self.bars.iter_mut().map(Mbarrier::phases_mut);
        let actors =
            (self.actors.iter_mut()).flat_map(|a| a.local_phase.iter_mut().chain(&mut a.releases));
        let slots = self.slots.iter_mut().flatten().map(|s| &mut s.loads);
        bars.chain(actors).chain(slots)
    }

    /// The budget must run out on the step it would have: keep at least
    /// one unit of fuel for the walk to spend. Every counter grows by at
    /// most one per unit of fuel, so the budget also bounds them.
    fn cap(&self, then: u64, periods: u64) -> u64 {
        match then - self.fuel {
            0 => periods,
            spent => periods.min((self.fuel - 1) / spent),
        }
    }

    fn jump(&mut self, then: u64, n: u64) -> Option<()> {
        self.fuel = self.fuel.checked_sub(n.checked_mul(then - self.fuel)?)?;
        Some(())
    }

    /// The race flags and resident sites, which the signature holds only
    /// by count, in full.
    fn key(&self, mut sig: Vec<u64>) -> Vec<u64> {
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
        sig
    }

    fn since(&self) -> (u64, usize) {
        (self.fuel, self.lints.len())
    }

    /// A tail that raised no lint: the fuel it took.
    fn tail(&self, (fuel, lints): (u64, usize)) -> Option<(u64, usize)> {
        (lints == self.lints.len()).then(|| (fuel - self.fuel, 0))
    }

    /// The verdict is the lints so far — if the tail fits the fuel. (Short
    /// of fuel, walk it: the budget must fire on its own step.)
    fn reuse(&mut self, &(fuel, _): &(u64, usize)) -> bool {
        let fits = fuel < self.fuel;
        if fits {
            self.fuel -= fuel;
            self.walk.halt = Some(Halt::TailReused);
        }
        fits
    }

    /// The interrupted turn is `turn`, which [`Walker::run`] picks up.
    fn resume(&mut self, ci: usize, _family: &mut Classes<'a, Self>) {
        self.ci = ci;
    }

    /// Interprets the class to its verdict; `false` when the fuel ran out
    /// first. A checkpoint picks up at its interrupted turn.
    fn run(&mut self, family: &mut Classes<'a, Self>) -> bool {
        loop {
            while self.turn < self.actors.len() {
                if !self.run_actor(self.turn, family) {
                    return false;
                }
                if let Some(halt) = self.walk.halt {
                    return halt == Halt::TailReused;
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

    fn finish(mut self, clean: bool) -> (Vec<Lint>, u64) {
        if !clean {
            self.lints.push(Lint::new(LintKind::AnalysisBudget {
                class: self.ci,
                budget: self.budget,
            }));
        }
        (self.lints, self.walk.work)
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
    fn a_deadlock_inside_nested_loops_names_its_instruction() {
        // 100 arrivals for 40 × 3 waits: the 101st wait, in the outer
        // loop's 34th trip and the inner loop's 2nd, hangs — past the
        // stretch the interpreter skips.
        let mut k = Kernel::new("nested");
        k.uniform_grid(1);
        let bar = k.add_barrier("ready", 1);
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_const(100, vec![Instr::MbarArrive { bar }])],
        );
        let delay = Instr::Delay { cycles: 1 };
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                delay.clone(),
                Instr::loop_const(
                    40,
                    vec![
                        delay.clone(),
                        delay.clone(),
                        Instr::loop_const(3, vec![delay, Instr::MbarWait { bar }]),
                    ],
                ),
            ],
        );
        let lints = analyze(&k);
        let deadlock = (lints.iter())
            .find(|l| matches!(l.kind, LintKind::StaticDeadlock { .. }))
            .unwrap_or_else(|| panic!("{lints:?}"));
        assert_eq!(
            deadlock.to_string(),
            "error[static-deadlock]: class 0: consumer warp group waits forever on bar0 (ready) \
             phase 100 — barrier stuck at 100 completed phases with 0/1 arrivals (wg1[1.2.1])"
        );
    }

    #[test]
    fn a_race_inside_a_loop_names_its_instruction() {
        let mut k = handshake(30, 1);
        k.warp_groups[0].body = vec![
            Instr::SetMaxNReg { regs: 24 },
            Instr::loop_const(
                30,
                vec![
                    Instr::Delay { cycles: 1 },
                    Instr::TmaLoad {
                        bytes: 1024,
                        bar: crate::BarId(0),
                    },
                ],
            ),
        ];
        let lints = analyze(&k);
        let race = (lints.iter())
            .find(|l| matches!(l.kind, LintKind::SharedMemRace { .. }))
            .unwrap_or_else(|| panic!("{lints:?}"));
        assert_eq!(
            race.to_string(),
            "error[shared-mem-race]: producer warp group overwrites the tile slot of bar0 (full) \
             in parity 1 without consuming a release on bar1 — a prior read may still be in \
             flight (wg0[1.1])"
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
