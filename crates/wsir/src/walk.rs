//! One walker of a kernel's dynamic instruction stream, driving two
//! machines.
//!
//! The simulator engine (`gpu_sim::engine`) and the static gate's abstract
//! interpreter ([`crate::analyze()`]) both step every warp group through
//! its WSIR program, skip loop steady states with the shared
//! [`PeriodDetector`], and walk a kernel's CTA classes as one
//! [`Family`]. Everything about that which does not
//! depend on what the machine computes lives here, once:
//!
//! * **[`Mbarrier`]** — the Hopper transaction barrier. The engine drives
//!   it with time and transaction bytes; the gate without either (it never
//!   announces bytes, so a phase completes on arrivals alone).
//! * **[`Cursor`]** — one warp group's place in its program: a stack of
//!   loop frames (`body`, `idx`, trips `remaining`, instance `id`, the
//!   `Count::Param` it came from). `idx` points at the current instruction
//!   and moves past it once it has run, so an [`InstrPath`] names the
//!   instruction a lint is about. [`Walk`] holds one cursor per warp group
//!   plus what they share: the class's params, the frame-instance counter
//!   and, while a checkpoint may still be offered, the [`Footprint`]. It
//!   enters loops (resolving the count, skipping empty bodies and zero
//!   trips) and takes back-edges (`remaining > 1`, else pop and step the
//!   parent past the loop).
//! * **[`Walker`]** — the driver, generic over the machine. A machine
//!   supplies its signature, its clock (the engine's time, the gate's
//!   fuel), the counters that grow linearly per period, a jump of its
//!   clock, a cap on the periods a skip may take, and what a tail is; the
//!   driver owns the rest: the back-edge skip (`due` → `observe` →
//!   first-skip `offer` → cap → frame, clock and counter jump → tail key
//!   → reuse, or remember), resuming an admitted class from a checkpoint,
//!   and the class loop ([`walk_classes`]) that records clean tails.
//!
//! What stays with each machine is what it *is*: the engine's event queue,
//! pipes, bandwidth and statistics; the gate's slot pairs, reach, lints
//! and fuel. Why a skip is exact and how a family shares prefixes and
//! tails is told once, in [`crate::period`].

use crate::analyze::InstrPath;
use crate::instr::{Count, Instr};
use crate::kernel::Kernel;
use crate::period::{
    anchor_warp_group, extrapolate, lowered, Family, Footprint, FrameMark, PeriodDetector, Skip,
    TailKey,
};

/// One Hopper transaction barrier (mbarrier).
///
/// A phase completes when the expected number of arrivals has been
/// observed **and** every transaction byte announced during the phase has
/// landed. TMA completions count as one arrival plus their byte count
/// (`mbarrier.arrive.expect_tx` + bulk-copy completion semantics, paper
/// §II-A). Waiters track their own consumed-phase counter; this
/// generalizes the two-set parity mechanism of §III-E (the parity bit is
/// the counter mod 2).
#[derive(Debug, Clone)]
pub struct Mbarrier {
    /// Arrivals required to complete one phase.
    pub arrive_count: u32,
    arrivals: u32,
    tx_expected: u64,
    tx_done: u64,
    completed_phases: u64,
}

impl Mbarrier {
    /// A barrier expecting `arrive_count` arrivals per phase, with
    /// `init_phases` phases pre-completed (initial credits).
    pub fn new(arrive_count: u32, init_phases: u32) -> Mbarrier {
        Mbarrier {
            arrive_count,
            arrivals: 0,
            tx_expected: 0,
            tx_done: 0,
            completed_phases: init_phases as u64,
        }
    }

    /// Number of completed phases since kernel start.
    pub fn completed_phases(&self) -> u64 {
        self.completed_phases
    }

    /// Arrivals observed toward the current (incomplete) phase.
    pub fn arrivals(&self) -> u32 {
        self.arrivals
    }

    /// Transaction bytes still outstanding for the current phase.
    pub fn tx_pending(&self) -> u64 {
        self.tx_expected.saturating_sub(self.tx_done)
    }

    /// The state inside the current phase — `[arrivals, tx_expected,
    /// tx_done]` — which a period signature compares as it is.
    pub fn in_phase_state(&self) -> [u64; 3] {
        [self.arrivals as u64, self.tx_expected, self.tx_done]
    }

    /// The completed-phase counter, for a walker to move over whole
    /// periods: the in-phase state stays, as every period ends where it
    /// began within a phase.
    pub fn phases_mut(&mut self) -> &mut u64 {
        &mut self.completed_phases
    }

    /// Announces `bytes` of expected transaction data for the current
    /// phase (issued together with a TMA load). `None` when the phase's
    /// total would not fit 64 bits.
    pub fn expect_tx(&mut self, bytes: u64) -> Option<()> {
        self.tx_expected = self.tx_expected.checked_add(bytes)?;
        Some(())
    }

    /// Records one arrival; returns `true` if this completes a phase.
    pub fn arrive(&mut self) -> bool {
        self.arrivals += 1;
        if self.arrivals >= self.arrive_count && self.tx_done >= self.tx_expected {
            self.arrivals -= self.arrive_count;
            self.tx_done -= self.tx_expected;
            self.tx_expected = 0;
            self.completed_phases += 1;
            true
        } else {
            false
        }
    }

    /// Records `bytes` of landed transaction data plus the implicit TMA
    /// arrival; `Some(true)` if this completes a phase, `None` when the
    /// landed total would not fit 64 bits.
    pub fn arrive_tx(&mut self, bytes: u64) -> Option<bool> {
        self.tx_done = self.tx_done.checked_add(bytes)?;
        Some(self.arrive())
    }
}

#[derive(Clone)]
struct Frame<'k> {
    body: &'k [Instr],
    /// The current instruction.
    idx: usize,
    /// Trips left, including the current one.
    remaining: u64,
    /// Instance id, unique per push: lets the period detector tell a frame
    /// that moved from one that was left and re-entered.
    id: u64,
    /// The `Count::Param` the trip count came from, if it was one.
    param: Option<usize>,
}

/// One warp group's place in its program: its loop frames, innermost last.
#[derive(Clone)]
pub struct Cursor<'k>(Vec<Frame<'k>>);

impl<'k> Cursor<'k> {
    /// The instruction the cursor stands at; `None` at the end of a body.
    pub fn current(&self) -> Option<&'k Instr> {
        let f = self.0.last()?;
        let body = f.body;
        body.get(f.idx)
    }

    /// Steps past the current instruction.
    pub fn advance(&mut self) {
        if let Some(f) = self.0.last_mut() {
            f.idx += 1;
        }
    }

    /// Where the current instruction of warp group `wg` sits.
    pub fn path(&self, wg: usize) -> InstrPath {
        InstrPath {
            wg,
            indices: self.0.iter().map(|f| f.idx).collect(),
        }
    }

    /// Appends the frame count, then every frame's body and index, to a
    /// signature.
    pub fn sig(&self, sig: &mut Vec<u64>) {
        sig.push(self.0.len() as u64);
        for f in &self.0 {
            sig.extend([f.body.as_ptr() as u64, f.idx as u64]);
        }
    }
}

/// What ends a class's walk before its programs do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// An earlier class's tail stands in for the rest (and has been taken).
    TailReused,
    /// A clock or a counter would have gone past `u64::MAX`.
    Overflow,
}

/// A snapshot's clock and linear counters (see [`Walker::counters`]).
type Mark = (u64, Vec<u64>);

/// The walk of one class: a cursor per warp group and what they share.
/// `T` is the machine's [`Walker::Tail`].
#[derive(Clone)]
pub struct Walk<'k, T> {
    /// One per warp group (of every resident CTA), in actor order.
    pub cursors: Vec<Cursor<'k>>,
    /// The trip counts of the class being walked.
    pub params: &'k [u64],
    next_id: u64,
    /// Every answer a trip count has given so far — kept until the first
    /// skip, and only while a later class might start from this one.
    footprint: Option<Footprint>,
    /// The cursor whose back-edges are snapshotted, if any loops.
    pub anchor: Option<usize>,
    /// Resident CTAs, each running every warp group.
    ctas: usize,
    detector: PeriodDetector<Mark>,
    /// The states this class stood in right after each skip, with the
    /// machine's totals then.
    skips: Vec<(TailKey, T)>,
    /// Why the walk ended early, if it did.
    pub halt: Option<Halt>,
    /// The machine's unit of host work done for this class (engine events,
    /// gate steps).
    pub work: u64,
    /// Loop trips, over all cursors, jumped rather than walked.
    pub jumped_trips: u64,
}

impl<'k, T> Walk<'k, T> {
    /// The walk at the start of `bodies` (one per warp group of `ctas`
    /// resident CTAs, CTA-major) for a class with `params`: anchored to its
    /// busiest warp group unless `reference`, and keeping a footprint if
    /// `track`.
    pub fn new(
        k: &'k Kernel,
        bodies: impl IntoIterator<Item = &'k [Instr]>,
        params: &'k [u64],
        ctas: usize,
        reference: bool,
        track: bool,
    ) -> Self {
        let mut walk = Walk {
            cursors: Vec::new(),
            params,
            next_id: 0,
            footprint: None,
            anchor: None,
            ctas,
            detector: PeriodDetector::default(),
            skips: Vec::new(),
            halt: None,
            work: 0,
            jumped_trips: 0,
        };
        for (i, body) in bodies.into_iter().enumerate() {
            walk.cursors.push(Cursor(Vec::new()));
            walk.push(i, body, 1, None);
        }
        let anchor = (!reference).then(|| anchor_warp_group(k, params)).flatten();
        walk.anchor = anchor.filter(|&a| a < walk.cursors.len());
        walk.footprint = (track && walk.anchor.is_some()).then(|| Footprint::new(params.len()));
        walk
    }

    /// Pushes a frame of `remaining` trips over `body` onto cursor `i`.
    fn push(&mut self, i: usize, body: &'k [Instr], remaining: u64, param: Option<usize>) {
        let id = self.next_id;
        self.next_id += 1;
        self.cursors[i].0.push(Frame {
            body,
            idx: 0,
            remaining,
            id,
            param,
        });
    }

    /// Cursor `i` stands at `Loop { count, body }`: enters it with its trip
    /// count under `params`, or steps past it if there is nothing to walk.
    pub fn enter(&mut self, i: usize, count: Count, body: &'k [Instr], params: &[u64]) {
        let param = match count {
            Count::Param(p) if !body.is_empty() => Some(p),
            _ => None,
        };
        let trips = (!body.is_empty()).then(|| count.resolve(params));
        if let (Some(footprint), Some(p), Some(trips)) = (&mut self.footprint, param, trips) {
            footprint.resolved(p, trips);
        }
        match trips {
            Some(trips @ 1..) => self.push(i, body, trips, param),
            _ => self.cursors[i].advance(),
        }
    }

    /// Cursor `i` reached the end of its innermost body: starts the next
    /// trip, or leaves the loop and steps its parent past it.
    fn end_trip(&mut self, i: usize) {
        let frames = &mut self.cursors[i].0;
        let Some(f) = frames.last_mut() else {
            return;
        };
        if let (Some(footprint), Some(p)) = (&mut self.footprint, f.param) {
            footprint.tested(p, f.remaining);
        }
        if f.remaining > 1 {
            f.remaining -= 1;
            f.idx = 0;
        } else {
            frames.pop();
            self.cursors[i].advance();
        }
    }

    /// Every live loop frame in cursor order.
    fn frame_marks(&self) -> Vec<FrameMark> {
        (self.cursors.iter().flat_map(|c| &c.0))
            .map(|f| FrameMark {
                id: f.id,
                remaining: f.remaining,
                param: f.param,
            })
            .collect()
    }

    /// Every frame `n` periods on, at `deltas` trips a period (in frame
    /// order); `None` if one would run out, which the detector rules out.
    fn jump(&mut self, n: u64, deltas: &[u64]) -> Option<()> {
        let frames = self.cursors.iter_mut().flat_map(|c| &mut c.0);
        for (f, delta) in frames.zip(deltas) {
            f.remaining = (n.checked_mul(*delta))
                .and_then(|trips| f.remaining.checked_sub(trips))
                .filter(|&left| left > 0)?;
        }
        Some(())
    }
}

/// A kernel's classes as a [`Walker`] walks them: its checkpoints are
/// whole machines.
pub type Classes<'k, W> = Family<'k, W, <W as Walker<'k>>::Tail>;

/// A machine that walks one CTA class through a [`Walk`]; the provided
/// methods are the shared driver (see the module docs).
pub trait Walker<'k>: Clone {
    /// The machine's totals right after a skip, and what a clean end added
    /// to them: what a later class standing at an equal key takes as
    /// walked.
    type Tail: Clone;
    /// What walking a class yields.
    type Out;

    /// The walk this machine is on.
    fn walk(&mut self) -> &mut Walk<'k, Self::Tail>;
    /// The state with everything that grows linearly taken out, frames
    /// included.
    fn signature(&self) -> Vec<u64>;
    /// What a period is measured in: the engine's time, the gate's fuel.
    fn clock(&self) -> u64;
    /// Every counter that grows by the same amount each period, in a fixed
    /// order; a skip moves each `n ×` its growth.
    fn counters(&mut self) -> impl Iterator<Item = &mut u64>;
    /// Moves the clock, and everything kept relative to it, `n` periods
    /// on, a period having begun at clock `then`. `None` on overflow.
    fn jump(&mut self, then: u64, n: u64) -> Option<()>;
    /// The totals now, to measure a tail from.
    fn since(&self) -> Self::Tail;
    /// What a clean end added since `since`, if a later class may take it.
    fn tail(&self, since: Self::Tail) -> Option<Self::Tail>;
    /// Takes an earlier class's `tail` as walked and halts; `false` leaves
    /// it to be walked.
    fn reuse(&mut self, tail: &Self::Tail) -> bool;
    /// This machine, a checkpoint, goes on as class `ci`: it takes the
    /// interrupted step again, unless [`Walker::run`] picks it up by itself.
    fn resume(&mut self, ci: usize, family: &mut Classes<'k, Self>);
    /// Walks on to the class's end; `true` on a clean one, whose tails a
    /// later class may take.
    fn run(&mut self, family: &mut Classes<'k, Self>) -> bool;
    /// The class's result, given how [`Walker::run`] ended.
    fn finish(self, clean: bool) -> Self::Out;

    /// How many of the `periods` a skip found the machine may take.
    fn cap(&self, _then: u64, periods: u64) -> u64 {
        periods
    }

    /// A tail key's signature: `sig` plus whatever a signature holds only
    /// by size (within one walk equal sizes a period apart mean equal
    /// contents, across classes they need not).
    fn key(&self, sig: Vec<u64>) -> Vec<u64> {
        sig
    }

    /// The instruction cursor `i` stands at, `Loop`s included, after taking
    /// any back-edges; `None` at the end of its program or when the walk
    /// halted at a skip.
    fn fetch(&mut self, i: usize, family: &mut Classes<'k, Self>) -> Option<&'k Instr> {
        loop {
            let w = self.walk();
            let f = w.cursors[i].0.last()?;
            let body = f.body;
            if let Some(instr) = body.get(f.idx) {
                return Some(instr);
            }
            if f.remaining > 1 && w.anchor == Some(i) && w.detector.due() {
                self.skip(family);
                if self.walk().halt.is_some() {
                    return None;
                }
            }
            self.walk().end_trip(i);
        }
    }

    /// At an anchor back-edge: if this state was seen before, jump as many
    /// whole periods as the loops and the machine allow — and, standing
    /// where an earlier class stood, take its tail instead of walking it.
    fn skip(&mut self, family: &mut Classes<'k, Self>) {
        let sig = self.signature();
        let mark = (self.clock(), self.counters().map(|c| *c).collect());
        let w = self.walk();
        let Some(skip) = w.detector.observe(sig, w.frame_marks(), mark) else {
            return;
        };
        // The first skip: what comes before it is what classes can share.
        if let Some(footprint) = w.footprint.take() {
            let params = w.params;
            family.offer(&footprint, params, || self.clone());
        }
        let n = self.cap(skip.then.0, skip.periods);
        if advance(self, &skip, n).is_none() {
            self.walk().halt = Some(Halt::Overflow);
            return;
        }
        let w = self.walk();
        w.jumped_trips += skip.trips(n);
        if !family.is_family() {
            return;
        }
        let (frames, params, ctas) = (w.frame_marks(), w.params, w.ctas);
        let key = family.tail_key(self.key(skip.sig), &frames, params, ctas);
        match family.tail(&key) {
            Some(tail) if self.reuse(tail) => {}
            _ if family.has_pending() => {
                let since = self.since();
                self.walk().skips.push((key, since));
            }
            _ => {}
        }
    }
}

/// Moves `m`'s frames, clock and counters `n` periods of `skip` on; on
/// `None` the machine is half moved and good for nothing.
fn advance<'k, W: Walker<'k>>(m: &mut W, skip: &Skip<Mark>, n: u64) -> Option<()> {
    m.walk().jump(n, &skip.frame_deltas)?;
    m.jump(skip.then.0, n)?;
    for (cur, was) in m.counters().zip(&skip.then.1) {
        *cur = extrapolate(*cur, *was, n)?;
    }
    Some(())
}

/// Walks every class of `k` as one family, largest first, and returns
/// their results in class order. `start(ci, track)` is the machine at the
/// start of class `ci`, keeping a footprint if `track`; a class admitted
/// to a checkpoint starts from a clone of it instead, its live frames (and
/// the detector's history) lowered, and takes the interrupted step again.
pub fn walk_classes<'k, W: Walker<'k>>(
    k: &'k Kernel,
    mut start: impl FnMut(usize, bool) -> W,
) -> Vec<W::Out> {
    let mut family: Classes<'k, W> = Family::of(k);
    let mut out: Vec<Option<W::Out>> = (0..k.classes.len()).map(|_| None).collect();
    while let Some(ci) = family.next_class() {
        let params = &k.classes[ci].params;
        let mut m = match family.admit(params) {
            Some((checkpoint, lower_by)) => {
                let mut m = checkpoint.clone();
                let w = m.walk();
                (w.params, w.work, w.jumped_trips) = (params, 0, 0);
                for f in w.cursors.iter_mut().flat_map(|c| &mut c.0) {
                    f.remaining -= lowered(f.param, &lower_by);
                }
                w.detector.lower(&lower_by);
                m.resume(ci, &mut family);
                m
            }
            None => start(ci, family.has_pending()),
        };
        let clean = m.run(&mut family);
        if clean && family.has_pending() {
            for (key, since) in std::mem::take(&mut m.walk().skips) {
                if let Some(tail) = m.tail(since) {
                    family.record(key, tail);
                }
            }
        }
        out[ci] = Some(m.finish(clean));
    }
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_completes_on_arrivals() {
        let mut b = Mbarrier::new(2, 0);
        assert!(!b.arrive());
        assert!(b.arrive());
        assert_eq!(b.completed_phases(), 1);
    }

    #[test]
    fn phase_waits_for_tx_bytes() {
        let mut b = Mbarrier::new(1, 0);
        b.expect_tx(1024).unwrap();
        // An arrival without the bytes does not complete the phase.
        assert!(!b.arrive());
        // Bytes land (with their own implicit arrival).
        assert_eq!(b.arrive_tx(1024), Some(true));
        assert_eq!(b.completed_phases(), 1);
    }

    #[test]
    fn tuple_payload_two_tma_loads() {
        // Paper's A/B tuple aref: one barrier, two TMA loads per phase.
        let mut b = Mbarrier::new(2, 0);
        b.expect_tx(32768).unwrap();
        b.expect_tx(32768).unwrap();
        assert_eq!(b.arrive_tx(32768), Some(false));
        assert_eq!(b.arrive_tx(32768), Some(true));
        assert_eq!(b.completed_phases(), 1);
    }

    #[test]
    fn initial_credit_precompletes_phases() {
        let b = Mbarrier::new(1, 1);
        assert_eq!(b.completed_phases(), 1);
    }

    #[test]
    fn counters_reset_between_phases() {
        let mut b = Mbarrier::new(1, 0);
        for phase in 1..=5 {
            b.expect_tx(100).unwrap();
            assert_eq!(b.arrive_tx(100), Some(true));
            assert_eq!(b.completed_phases(), phase);
        }
    }

    #[test]
    fn advancing_phases_keeps_the_in_phase_state() {
        let mut b = Mbarrier::new(2, 1);
        b.expect_tx(64).unwrap();
        assert!(!b.arrive());
        // A period took the phases from 0 to 1: ten more periods.
        *b.phases_mut() = extrapolate(b.completed_phases(), 0, 10).unwrap();
        assert_eq!(b.completed_phases(), 11);
        assert_eq!(b.in_phase_state(), [1, 64, 0]);
        assert_eq!(b.arrive_tx(64), Some(true));
        assert_eq!(b.completed_phases(), 12);
    }

    #[test]
    fn transaction_bytes_past_u64_are_refused() {
        let mut b = Mbarrier::new(2, 0);
        b.expect_tx(1 << 63).unwrap();
        assert_eq!(b.expect_tx(1 << 63), None);
        assert_eq!(b.arrive_tx(1 << 63), Some(false));
        assert_eq!(b.arrive_tx(1 << 63), None);
    }

    #[test]
    fn overshoot_carries_to_next_phase() {
        let mut b = Mbarrier::new(2, 0);
        assert!(!b.arrive());
        assert!(b.arrive());
        assert!(!b.arrive()); // first arrival of the next phase
        assert!(b.arrive());
        assert_eq!(b.completed_phases(), 2);
    }

    #[test]
    fn a_cursor_enters_loops_and_takes_back_edges() {
        use crate::instr::BarId;
        let wait = Instr::MbarWait { bar: BarId(0) };
        let program = [
            Instr::loop_param(0, vec![]),
            Instr::loop_param(1, vec![wait.clone()]),
            Instr::loop_param(0, vec![wait.clone(), wait]),
        ];
        let k = Kernel::new("c");
        let mut w: Walk<'_, ()> = Walk::new(&k, [&program[..]], &[0, 2], 1, true, false);
        let step = |w: &mut Walk<'_, ()>| {
            while w.cursors[0].current().is_none() && !w.cursors[0].0.is_empty() {
                w.end_trip(0);
            }
            let path = w.cursors[0].path(0).indices;
            match w.cursors[0].current() {
                Some(Instr::Loop { count, body }) => w.enter(0, *count, body, &[0, 2]),
                Some(_) => w.cursors[0].advance(),
                None => {}
            }
            path
        };
        // Empty and zero-trip loops are stepped past; two trips of `$p1`.
        let paths: Vec<Vec<usize>> = (0..6).map(|_| step(&mut w)).collect();
        assert_eq!(
            paths,
            [vec![0], vec![1], vec![1, 0], vec![1, 0], vec![2], vec![]]
        );
        assert_eq!(w.next_id, 2);
    }
}
