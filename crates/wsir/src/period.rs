//! Exact period detection for walkers of a kernel's dynamic instruction
//! stream.
//!
//! Both the simulator engine (`gpu_sim::engine`) and the static gate's
//! abstract interpreter ([`crate::analyze()`]) execute every trip of every
//! loop, yet the K-loop of a software-pipelined kernel settles into a
//! steady state after its ring fills: the same machine state recurs, one
//! period later, with every clock and counter moved by a fixed amount.
//! This module holds the part of "recognise that and jump" which does not
//! depend on the machine: a short history of *signatures* taken at the
//! back-edges of one anchor warp group, the loop-frame check that makes a
//! signature match safe to extrapolate, and the number of periods that can
//! be skipped — and, below, why a kernel's CTA classes can share what they
//! walk. [`crate::walk`] drives both for the two machines; this module
//! says what is exact and why.
//!
//! The contract with a walker:
//!
//! * a **signature** (`Vec<u64>`) encodes every part of the walker's state
//!   that influences what it does next, with times as offsets from "now"
//!   and monotone counters as differences, so two equal signatures mean
//!   "the same state, shifted";
//! * **frame marks** list every live loop frame in a fixed order (the
//!   signature pins the layout). Trip counters are the one piece of state
//!   that is neither shift-invariant nor constant, so they are validated
//!   here: a frame whose `remaining` moved must be the same *instance* at
//!   both ends of the period, a re-instantiated frame must have equal
//!   `remaining`, and the skip stops before any moved frame would exit;
//! * a **mark** (`M`) is the walker's own record of its absolute clocks
//!   and counters at the snapshot; on a match the walker advances each by
//!   `periods × (now − then)`.
//!
//! Loop exits are the only place an absolute trip counter steers control,
//! and the skip stops one trip short of the first of them: after the jump
//! every loop still walks its own last trip, so what follows is the plain
//! walk, shifted.
//!
//! # Class families
//!
//! The CTA classes of one kernel run the same program and differ only in
//! their `Count::Param` trip counts (causal attention has one class per
//! Q-block diagonal). A trip count is read in exactly two places — when a
//! `Loop` pushes its frame, and when a back-edge asks `remaining > 1` — so
//! two classes walk the same stream until the first of those answers
//! differs. A [`Family`] lets every class after the first pay only for what
//! is its own:
//!
//! * a walker records a class's **[`Footprint`]**: per param, whether it was
//!   never read, read only into frames that are all still live (with the
//!   *slack* every test so far leaves: how much smaller the value could be
//!   without changing an answer), or pinned (a frame from it exited, or it
//!   resolved to zero trips);
//! * at the class's first skip the walker [`Family::offer`]s a
//!   **checkpoint** — a clone of its whole state before the jump. A later
//!   class is **admitted** when its pinned params are equal and its live
//!   ones are lower by no more than their slack; it starts from the clone
//!   with each live frame's `remaining` lowered by the difference (the
//!   detector's history with them, [`PeriodDetector::lower`]) and runs on
//!   as if it had walked the prefix itself;
//! * right after a skip the state is keyed by a **[`TailKey`]**: the
//!   signature, every live frame's `remaining`, and every param that can
//!   still be read. When a class that already finished cleanly passed
//!   through an equal key, what remains is the same walk, shifted, and its
//!   recorded deltas stand in for walking it.
//!
//! Classes are walked largest first ([`Family::next_class`]) so the classes
//! that admit the most come first; results go back by class index.
//!
//! Nothing here is a tunable: history length, miss back-off and the
//! family's three caps are constants, and a walker that never repeats pays a
//! logarithmic number of snapshots.

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};

use crate::instr::{Count, Instr};
use crate::kernel::{CtaClass, Kernel};

/// Snapshots kept. A steady state recurs within a few anchor trips (the
/// ring depth), so a short history suffices; a longer period is reached
/// by the stride back-off instead.
const HISTORY: usize = 24;

/// Consecutive unmatched snapshots after which the snapshot stride doubles.
const MISS_RUN: u32 = 32;

/// Checkpoints one family keeps. A checkpoint is a whole machine, and a
/// kernel whose classes each admit only the next one would otherwise keep
/// one per class.
const MAX_CHECKPOINTS: usize = 4;

/// Continuations one family records (each holds a signature).
const MAX_TAILS: usize = 64;

/// Classes still to be walked that an offered checkpoint is tried on, in
/// walk order — the nearest in size, so the likeliest to be admitted. Keeps
/// a kernel of very many classes that share nothing from paying a scan of
/// all of them per class.
const LOOKAHEAD: usize = 32;

/// Identity and progress of one live loop frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMark {
    /// Unique per pushed frame instance.
    pub id: u64,
    /// Trips left, including the current one (never 0).
    pub remaining: u64,
    /// The `Count::Param` the trip count came from, if it was one.
    pub param: Option<usize>,
}

/// `cur + n × (cur − was)`: a linear counter `n` periods on. `None` on
/// overflow (or a counter that shrank) — a jump must fail where walking
/// would.
pub fn extrapolate(cur: u64, was: u64, n: u64) -> Option<u64> {
    cur.checked_add(n.checked_mul(cur.checked_sub(was)?)?)
}

#[derive(Clone)]
struct Snapshot<M> {
    sig: Vec<u64>,
    frames: Vec<FrameMark>,
    mark: M,
}

/// A validated repetition: the walker's state now equals its state at
/// `then`, shifted, and stays so for `periods` further repetitions.
#[derive(Debug)]
pub struct Skip<M> {
    /// The walker's mark at the earlier snapshot.
    pub then: M,
    /// How many whole periods can be skipped (at least 1).
    pub periods: u64,
    /// Trips each live frame takes per period, in frame-mark order.
    pub frame_deltas: Vec<u64>,
    /// The matched signature, handed back for the [`TailKey`].
    pub sig: Vec<u64>,
}

impl<M> Skip<M> {
    /// Loop trips, over all frames, that skipping `periods` periods jumps.
    pub fn trips(&self, periods: u64) -> u64 {
        self.frame_deltas
            .iter()
            .sum::<u64>()
            .saturating_mul(periods)
    }
}

/// History ring of signatures with miss back-off.
#[derive(Clone)]
pub struct PeriodDetector<M> {
    ring: VecDeque<Snapshot<M>>,
    stride: u64,
    until_due: u64,
    misses: u32,
}

impl<M> Default for PeriodDetector<M> {
    fn default() -> Self {
        PeriodDetector {
            ring: VecDeque::with_capacity(HISTORY),
            stride: 1,
            until_due: 0,
            misses: 0,
        }
    }
}

impl<M: Clone> PeriodDetector<M> {
    /// Called at every anchor back-edge; `true` when this one should be
    /// snapshotted (every `stride`-th is).
    pub fn due(&mut self) -> bool {
        if self.until_due > 0 {
            self.until_due -= 1;
            return false;
        }
        self.until_due = self.stride - 1;
        true
    }

    /// Compares the current state against the history, newest first.
    ///
    /// Returns the first earlier snapshot with an equal signature whose
    /// frames validate and allow at least one period to be skipped. On a
    /// miss the state joins the history; after `MISS_RUN` misses in a
    /// row the stride doubles, on a hit it resets.
    pub fn observe(&mut self, sig: Vec<u64>, frames: Vec<FrameMark>, mark: M) -> Option<Skip<M>> {
        let hit = self
            .ring
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, s)| s.sig == sig)
            .find_map(|(i, s)| periods(&s.frames, &frames).map(|(n, d)| (i, n, d)));
        match hit {
            Some((i, periods, frame_deltas)) => {
                self.misses = 0;
                self.stride = 1;
                self.until_due = 0;
                Some(Skip {
                    then: self.ring[i].mark.clone(),
                    periods,
                    frame_deltas,
                    sig,
                })
            }
            None => {
                self.misses += 1;
                if self.misses == MISS_RUN {
                    self.misses = 0;
                    self.stride = self.stride.saturating_mul(2);
                }
                if self.ring.len() == HISTORY {
                    self.ring.pop_front();
                }
                self.ring.push_back(Snapshot { sig, frames, mark });
                None
            }
        }
    }

    /// Rewrites the history as that of a class whose param `p` is
    /// `lower_by[p]` smaller: every remembered frame pushed from `p` had
    /// that many fewer trips left (see [`Family::admit`]).
    pub fn lower(&mut self, lower_by: &[u64]) {
        for f in self.ring.iter_mut().flat_map(|s| &mut s.frames) {
            f.remaining -= lowered(f.param, lower_by);
        }
    }
}

/// How much lower a frame pushed from `param` stands in an admitted class.
pub fn lowered(param: Option<usize>, lower_by: &[u64]) -> u64 {
    param
        .and_then(|p| lower_by.get(p))
        .copied()
        .unwrap_or_default()
}

/// Frame-delta validation: how many periods fit before a moved frame would
/// run out, and each frame's trips per period. `None` when the frames do
/// not describe a repeatable period or not even one period fits.
fn periods(then: &[FrameMark], now: &[FrameMark]) -> Option<(u64, Vec<u64>)> {
    if then.len() != now.len() {
        return None;
    }
    let mut n = u64::MAX;
    let mut deltas = Vec::with_capacity(now.len());
    for (a, b) in then.iter().zip(now) {
        let delta = if a.id == b.id {
            a.remaining.checked_sub(b.remaining)?
        } else if a.remaining == b.remaining {
            0
        } else {
            return None;
        };
        // A moved frame's last trip is always walked: it must still see
        // `remaining > 1` at every back-edge inside the skipped stretch.
        if let Some(fit) = b.remaining.saturating_sub(1).checked_div(delta) {
            n = n.min(fit);
        }
        deltas.push(delta);
    }
    (n != u64::MAX && n > 0).then_some((n, deltas))
}

/// The warp group whose back-edges are snapshotted: the one whose loops
/// take the most dynamic trips under `params` (ties keep the lowest
/// index), so it lives through the steady state. `None` when nothing
/// loops.
pub fn anchor_warp_group(k: &Kernel, params: &[u64]) -> Option<usize> {
    busiest_warp_group(k, params).map(|(wi, _)| wi)
}

/// The anchor and its dynamic trip count.
fn busiest_warp_group(k: &Kernel, params: &[u64]) -> Option<(usize, u64)> {
    let mut best: Option<(usize, u64)> = None;
    for (wi, wg) in k.warp_groups.iter().enumerate() {
        let trips = dynamic_trips(&wg.body, params);
        if trips > 0 && best.is_none_or(|(_, t)| trips > t) {
            best = Some((wi, trips));
        }
    }
    best
}

fn dynamic_trips(body: &[Instr], params: &[u64]) -> u64 {
    let mut total = 0u64;
    for i in body {
        if let Instr::Loop { count, body } = i {
            let trips = count.resolve(params);
            if trips > 0 && !body.is_empty() {
                let inner = dynamic_trips(body, params).saturating_add(1);
                total = total.saturating_add(trips.saturating_mul(inner));
            }
        }
    }
    total
}

/// Barriers (by index) that `body` waits on anywhere, sorted and
/// deduplicated. A warp group's consumed-phase counter enters a signature
/// only for these: for any other barrier it is never read and would drift
/// against the barrier's completed phases every period.
pub fn waited_barriers(body: &[Instr]) -> Vec<usize> {
    fn collect(body: &[Instr], out: &mut Vec<usize>) {
        for i in body {
            match i {
                Instr::MbarWait { bar } => out.push(bar.0 as usize),
                Instr::Loop { body, .. } => collect(body, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    collect(body, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// How a class has used one `Count::Param` so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParamUse {
    /// Never read: any value walks the same stream.
    Unread,
    /// Read only into frames that are all still live. A value smaller by up
    /// to `slack` gives every test made so far the same answer.
    Live { slack: u64 },
    /// A frame pushed from it exited, or it resolved to zero trips: only an
    /// equal value walks the same stream.
    Pinned,
}

/// What a class's walk so far has asked of its params: the whole of how its
/// trip counts steered it, since a trip count is read only where a loop is
/// pushed and where a back-edge tests `remaining > 1`.
#[derive(Debug, Clone)]
pub struct Footprint(Vec<ParamUse>);

impl Footprint {
    /// The footprint of a walk that has not started.
    pub fn new(nparams: usize) -> Footprint {
        Footprint(vec![ParamUse::Unread; nparams])
    }

    /// A `Loop` read `param` as `trips` (and pushed a frame unless 0).
    pub fn resolved(&mut self, param: usize, trips: u64) {
        self.narrow(param, trips.checked_sub(1));
    }

    /// A back-edge asked `remaining > 1` of a frame pushed from `param`
    /// (and popped the frame unless it was).
    pub fn tested(&mut self, param: usize, remaining: u64) {
        self.narrow(param, remaining.checked_sub(2));
    }

    /// `slack`: how much lower the value could be with the same answer;
    /// `None` when the answer was the one a lower value cannot share.
    fn narrow(&mut self, param: usize, slack: Option<u64>) {
        let Some(u) = self.0.get_mut(param) else {
            return;
        };
        *u = match (*u, slack) {
            (ParamUse::Pinned, _) | (_, None) => ParamUse::Pinned,
            (ParamUse::Unread, Some(s)) => ParamUse::Live { slack: s },
            (ParamUse::Live { slack }, Some(s)) => ParamUse::Live {
                slack: slack.min(s),
            },
        };
    }

    /// Whether a class with params `follower` walked the stream that left
    /// this footprint on `leader`, given by how much lower each of its
    /// params is (0 where no live frame depends on it).
    fn admits(&self, leader: &[u64], follower: &[u64]) -> Option<Vec<u64>> {
        if leader.len() != self.0.len() || follower.len() != self.0.len() {
            return None;
        }
        (self.0.iter().zip(leader).zip(follower))
            .map(|((u, &l), &f)| match *u {
                ParamUse::Unread => Some(0),
                ParamUse::Pinned => (l == f).then_some(0),
                ParamUse::Live { slack } => l.checked_sub(f).filter(|&d| d <= slack),
            })
            .collect()
    }
}

/// A walker's state right after a skip, with every trip counter in it: two
/// classes of one kernel that stand at equal keys walk the same tail.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TailKey {
    sig: Vec<u64>,
    remaining: Vec<u64>,
    /// The params that can still be read (`None`: spent).
    params: Vec<Option<u64>>,
}

struct Checkpoint<C> {
    footprint: Footprint,
    params: Vec<u64>,
    state: C,
}

/// The CTA classes of one kernel, walked one after the other by one walker
/// (see the module docs). `C` is the walker's checkpointed state, `T` what
/// it records about a tail. The default family has no classes: a walker
/// running a class on its own passes one and none of this does anything.
pub struct Family<'k, C, T> {
    classes: &'k [CtaClass],
    /// Class indices, largest first; `order[next..]` are not yet started.
    order: Vec<usize>,
    next: usize,
    /// Per param: how many `Loop`s read it, if all sit at the top level of
    /// their warp group (each then runs at most once per actor).
    top_level_sites: Vec<Option<u64>>,
    checkpoints: Vec<Checkpoint<C>>,
    tails: HashMap<TailKey, T>,
}

impl<C, T> Default for Family<'_, C, T> {
    fn default() -> Self {
        Family {
            classes: &[],
            order: Vec::new(),
            next: 0,
            top_level_sites: Vec::new(),
            checkpoints: Vec::new(),
            tails: HashMap::new(),
        }
    }
}

impl<'k, C, T> Family<'k, C, T> {
    /// The family of `k`'s classes, none walked yet.
    pub fn of(k: &'k Kernel) -> Self {
        let mut order: Vec<usize> = (0..k.classes.len()).collect();
        // Stable: ties keep class order.
        order.sort_by_cached_key(|&ci| {
            Reverse(busiest_warp_group(k, &k.classes[ci].params).map_or(0, |(_, trips)| trips))
        });
        let nparams = k.classes.iter().map(|c| c.params.len()).max().unwrap_or(0);
        let mut top_level_sites = vec![Some(0); nparams];
        for wg in &k.warp_groups {
            count_sites(&wg.body, true, &mut top_level_sites);
        }
        Family {
            classes: &k.classes,
            order,
            top_level_sites,
            ..Family::default()
        }
    }

    /// The next class to walk, largest first.
    pub fn next_class(&mut self) -> Option<usize> {
        let ci = self.order.get(self.next).copied();
        self.next += 1;
        ci
    }

    /// Whether there is more than one class: on its own a class neither
    /// finds nor leaves anything, and need not key its states.
    pub fn is_family(&self) -> bool {
        self.order.len() > 1
    }

    /// Whether a class is still to be walked after the current one: the
    /// only case in which taking a checkpoint or recording a tail can pay.
    pub fn has_pending(&self) -> bool {
        self.next < self.order.len()
    }

    /// A checkpoint the class with `params` can start from, and by how much
    /// each of its params is lower than the checkpointed class's.
    pub fn admit(&self, params: &[u64]) -> Option<(&C, Vec<u64>)> {
        self.checkpoints.iter().find_map(|c| {
            let lower_by = c.footprint.admits(&c.params, params)?;
            Some((&c.state, lower_by))
        })
    }

    /// At the first skip of the class with `params`: keeps `state()` as a
    /// checkpoint if a class still to be walked could start from it.
    pub fn offer(&mut self, footprint: &Footprint, params: &[u64], state: impl FnOnce() -> C) {
        let mut pending =
            (self.order.iter().skip(self.next).take(LOOKAHEAD)).map(|&ci| &self.classes[ci].params);
        if self.checkpoints.len() < MAX_CHECKPOINTS
            && pending.any(|follower| footprint.admits(params, follower).is_some())
        {
            self.checkpoints.push(Checkpoint {
                footprint: footprint.clone(),
                params: params.to_vec(),
                state: state(),
            });
        }
    }

    /// The key of a walker standing right after a skip with signature
    /// `sig`, live frames `frames` (all `residents` CTAs') and class
    /// `params`. A param is *spent* — left out, its whole effect being the
    /// `remaining` of its frames — when every `Loop` reading it sits at the
    /// top level of its warp group and a frame from each of them, in every
    /// resident, is live: none of them can run again.
    pub fn tail_key(
        &self,
        sig: Vec<u64>,
        frames: &[FrameMark],
        params: &[u64],
        residents: usize,
    ) -> TailKey {
        let mut live = vec![0u64; params.len()];
        for p in frames.iter().filter_map(|f| f.param) {
            if let Some(n) = live.get_mut(p) {
                *n += 1;
            }
        }
        let params = (params.iter().zip(&live).enumerate())
            .map(|(p, (&value, &live))| {
                let sites = self.top_level_sites.get(p).copied().flatten();
                let spent = sites.is_some_and(|s| s > 0 && s * residents as u64 == live);
                (!spent).then_some(value)
            })
            .collect();
        TailKey {
            sig,
            remaining: frames.iter().map(|f| f.remaining).collect(),
            params,
        }
    }

    /// What a finished class recorded when it stood at `key`.
    pub fn tail(&self, key: &TailKey) -> Option<&T> {
        self.tails.get(key)
    }

    /// Records the clean tail a finished class walked from `key`.
    pub fn record(&mut self, key: TailKey, tail: T) {
        if self.tails.len() < MAX_TAILS {
            self.tails.entry(key).or_insert(tail);
        }
    }
}

fn count_sites(body: &[Instr], top_level: bool, sites: &mut [Option<u64>]) {
    for i in body {
        if let Instr::Loop { count, body } = i {
            if let Some(site) = match *count {
                Count::Param(p) => sites.get_mut(p),
                Count::Const(_) => None,
            } {
                *site = site.filter(|_| top_level).map(|n| n + 1);
            }
            count_sites(body, false, sites);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BarId, Role};

    fn mark(id: u64, remaining: u64) -> FrameMark {
        FrameMark {
            id,
            remaining,
            param: None,
        }
    }

    #[test]
    fn moved_frame_bounds_the_skip_and_keeps_its_last_trip() {
        // One trip per period, 10 left: 9 periods leave exactly 1.
        let (n, d) = periods(&[mark(1, 11)], &[mark(1, 10)]).unwrap();
        assert_eq!((n, d), (9, vec![1]));
        // Three trips per period, 10 left: 3 periods leave 1.
        let (n, _) = periods(&[mark(1, 13)], &[mark(1, 10)]).unwrap();
        assert_eq!(n, 3);
        // The tightest moved frame wins.
        let (n, d) = periods(&[mark(1, 101), mark(2, 6)], &[mark(1, 100), mark(2, 4)]).unwrap();
        assert_eq!((n, d), (1, vec![1, 2]));
    }

    #[test]
    fn reinstantiated_frames_need_equal_remaining() {
        // Outer frame moved, inner frame is a new instance at the same trip.
        let (n, d) = periods(&[mark(1, 8), mark(2, 50)], &[mark(1, 7), mark(3, 50)]).unwrap();
        assert_eq!((n, d), (6, vec![1, 0]));
        assert!(periods(&[mark(1, 8), mark(2, 50)], &[mark(1, 7), mark(3, 49)]).is_none());
    }

    #[test]
    fn nothing_moved_or_nothing_fits_is_no_period() {
        assert!(periods(&[mark(1, 5)], &[mark(1, 5)]).is_none());
        assert!(periods(&[mark(1, 2)], &[mark(1, 1)]).is_none());
        assert!(periods(&[mark(1, 5)], &[mark(1, 6)]).is_none());
        assert!(periods(&[mark(1, 5)], &[mark(1, 4), mark(2, 3)]).is_none());
    }

    #[test]
    fn detector_matches_newest_first_and_backs_off_on_misses() {
        let mut d: PeriodDetector<u64> = PeriodDetector::default();
        assert!(d.due());
        assert!(d.observe(vec![7], vec![mark(1, 100)], 10).is_none());
        assert!(d.observe(vec![7], vec![mark(1, 100)], 11).is_none()); // nothing moved
        let skip = d.observe(vec![7], vec![mark(1, 98)], 30).unwrap();
        assert_eq!((skip.then, skip.periods), (11, 48));
        assert_eq!(skip.trips(48), 96);
        // A run of misses doubles the stride: every other back-edge is due.
        for i in 0..u64::from(MISS_RUN) {
            assert!(d.observe(vec![100 + i], vec![], 0).is_none());
        }
        assert!(d.due());
        assert!(!d.due());
        assert!(d.due());
        // The history is bounded.
        assert!(d.ring.len() <= HISTORY);
    }

    #[test]
    fn a_footprint_admits_what_would_have_answered_the_same() {
        let mut fp = Footprint::new(4);
        // $p0: pushed with 10 trips, tested at 10 and 9 — a class may be up
        // to 7 lower (its frame still stands above 1 at every test made).
        fp.resolved(0, 10);
        fp.tested(0, 10);
        fp.tested(0, 9);
        // $p1: pushed and never tested: any value from 1 up to the leader's.
        fp.resolved(1, 5);
        // $p2: resolved to zero trips, pinned. $p3: never read.
        fp.resolved(2, 0);
        let leader = [10, 5, 0, 77];
        assert_eq!(fp.admits(&leader, &[10, 5, 0, 77]), Some(vec![0; 4]));
        assert_eq!(fp.admits(&leader, &[3, 1, 0, 0]), Some(vec![7, 4, 0, 0]));
        assert_eq!(fp.admits(&leader, &[2, 5, 0, 77]), None); // past the slack
        assert_eq!(fp.admits(&leader, &[11, 5, 0, 77]), None); // larger
        assert_eq!(fp.admits(&leader, &[10, 0, 0, 77]), None); // would not push
        assert_eq!(fp.admits(&leader, &[10, 5, 1, 77]), None); // pinned
        assert_eq!(fp.admits(&leader, &[10, 5, 0]), None);
        // A frame that exits pins its param, whatever the slack was.
        fp.tested(1, 1);
        assert_eq!(fp.admits(&leader, &[10, 4, 0, 77]), None);
        assert_eq!(fp.admits(&leader, &[10, 5, 0, 77]), Some(vec![0; 4]));
    }

    /// `loop $p0 { loop $p1 { wait } }` and `loop $p0 { wait }; loop $p2 { wait }`.
    fn family_kernel(classes: &[[u64; 3]]) -> Kernel {
        let mut k = Kernel::new("f");
        let bar = k.add_barrier("b", 1);
        k.classes = (classes.iter())
            .map(|p| CtaClass {
                params: p.to_vec(),
                multiplicity: 1,
            })
            .collect();
        let wait = vec![Instr::MbarWait { bar }];
        k.add_warp_group(
            Role::Producer,
            24,
            vec![Instr::loop_param(
                0,
                vec![Instr::loop_param(1, wait.clone())],
            )],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![
                Instr::loop_param(0, wait.clone()),
                Instr::loop_param(2, wait),
            ],
        );
        k
    }

    #[test]
    fn a_family_walks_largest_first_and_keeps_only_checkpoints_that_can_pay() {
        let k = family_kernel(&[[4, 1, 0], [9, 2, 0], [9, 2, 0], [2, 50, 0]]);
        let mut family: Family<'_, &str, ()> = Family::of(&k);
        let mut fp = Footprint::new(3);
        fp.resolved(0, 9);
        // Trips of the busiest warp group: 8, 27, 27, 102; ties in class order.
        assert_eq!(family.next_class(), Some(3));
        assert!(family.has_pending());
        // Nothing still to walk has `$p0 ≤ 2`: no checkpoint is taken.
        family.offer(&fp, &[2, 50, 0], || unreachable!());
        assert!(family.admit(&[2, 50, 0]).is_none());
        assert_eq!(family.next_class(), Some(1));
        family.offer(&fp, &[9, 2, 0], || "after class 1");
        assert_eq!(
            family.admit(&[4, 2, 0]),
            Some((&"after class 1", vec![5, 0, 0]))
        );
        assert_eq!(family.admit(&[10, 2, 0]), None);
        assert_eq!(family.next_class(), Some(2));
        assert_eq!(family.next_class(), Some(0));
        assert!(!family.has_pending());
        assert_eq!(family.next_class(), None);
        // The default family has nothing to walk and keeps nothing.
        let mut alone: Family<'_, &str, ()> = Family::default();
        assert!(!alone.has_pending());
        alone.offer(&fp, &[9, 2, 0], || unreachable!());
    }

    #[test]
    fn a_tail_key_leaves_out_only_params_that_cannot_be_read_again() {
        let k = family_kernel(&[[5, 3, 2], [7, 3, 2]]);
        let mut family: Family<'_, (), u32> = Family::of(&k);
        let frame = |id, remaining, param| FrameMark {
            id,
            remaining,
            param: Some(param),
        };
        // Both `loop $p0` (top level, one per warp group) are live, with one
        // trip left: `$p0` is spent, and classes 5 and 7 stand at one key.
        // `$p1` is nested and `$p2` has not run: both can still be read.
        let frames = [frame(2, 1, 0), frame(3, 4, 1), frame(4, 1, 0)];
        let key = family.tail_key(vec![42], &frames, &[5, 3, 2], 1);
        assert_eq!(key.params, [None, Some(3), Some(2)]);
        assert_eq!(key, family.tail_key(vec![42], &frames, &[7, 3, 2], 1));
        assert_ne!(key, family.tail_key(vec![42], &frames, &[5, 3, 1], 1));
        assert_ne!(key, family.tail_key(vec![41], &frames, &[5, 3, 2], 1));
        // Only one of the two loops is live (or two of the four of two
        // resident CTAs): the other will read `$p0` yet.
        let one = family.tail_key(vec![42], &frames[..2], &[5, 3, 2], 1);
        assert_eq!(one.params, [Some(5), Some(3), Some(2)]);
        let two_ctas = family.tail_key(vec![42], &frames, &[5, 3, 2], 2);
        assert_eq!(two_ctas.params, [Some(5), Some(3), Some(2)]);
        // Frames a trip further on are another state.
        let mut later = frames;
        later[1].remaining = 3;
        assert_ne!(key, family.tail_key(vec![42], &later, &[5, 3, 2], 1));

        assert!(family.tail(&key).is_none());
        family.record(key.clone(), 9);
        family.record(key.clone(), 10); // the first walk's record stands
        assert_eq!(family.tail(&key), Some(&9));
    }

    #[test]
    fn lowering_rewrites_the_history_of_live_param_frames_only() {
        let mut d: PeriodDetector<u64> = PeriodDetector::default();
        let frames = |outer, inner| {
            vec![
                FrameMark {
                    id: 1,
                    remaining: outer,
                    param: Some(1),
                },
                FrameMark {
                    id: 2,
                    remaining: inner,
                    param: Some(0),
                },
                mark(3, 6),
            ]
        };
        assert!(d.observe(vec![7], frames(4, 100), 10).is_none());
        d.lower(&[30, 0]);
        assert_eq!(d.ring[0].frames, frames(4, 70));
        // The lowered class: 6 trips a period, 64 left → 10 periods.
        let skip = d.observe(vec![7], frames(4, 64), 20).unwrap();
        assert_eq!((skip.periods, skip.sig), (10, vec![7]));
        assert_eq!(extrapolate(50, 40, 10), Some(150));
        assert_eq!(extrapolate(50, 40, u64::MAX / 5), None);
        assert_eq!(extrapolate(40, 50, 1), None);
    }

    #[test]
    fn anchor_is_the_busiest_looping_warp_group() {
        let mut k = Kernel::new("a");
        k.uniform_grid(1);
        let bar = k.add_barrier("b", 1);
        k.add_warp_group(Role::Producer, 24, vec![Instr::Delay { cycles: 1 }]);
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![Instr::loop_param(
                0,
                vec![Instr::loop_const(4, vec![Instr::MbarWait { bar }])],
            )],
        );
        k.add_warp_group(
            Role::Consumer,
            240,
            vec![Instr::loop_const(
                9,
                vec![Instr::MbarWait { bar: BarId(0) }],
            )],
        );
        assert_eq!(anchor_warp_group(&k, &[2]), Some(1)); // 2 × (4 + 1) > 9
        assert_eq!(anchor_warp_group(&k, &[1]), Some(2));
        assert_eq!(anchor_warp_group(&k, &[]), Some(2)); // missing param: 0 trips
        k.warp_groups.truncate(1);
        assert_eq!(anchor_warp_group(&k, &[]), None);
        assert_eq!(waited_barriers(&k.warp_groups[0].body), Vec::<usize>::new());
    }
}
