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
//! be skipped.
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
//! Nothing here is a tunable: history length and miss back-off are
//! constants, and a walker that never repeats pays a logarithmic number of
//! snapshots.

use std::collections::VecDeque;

use crate::instr::{Count, Instr};
use crate::kernel::Kernel;

/// Snapshots kept. A steady state recurs within a few anchor trips (the
/// ring depth), so a short history suffices; a longer period is reached
/// by the stride back-off instead.
const HISTORY: usize = 24;

/// Consecutive unmatched snapshots after which the snapshot stride doubles.
const MISS_RUN: u32 = 32;

/// Identity and progress of one live loop frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMark {
    /// Unique per pushed frame instance.
    pub id: u64,
    /// Trips left, including the current one (never 0).
    pub remaining: u64,
}

struct Snapshot<M> {
    sig: Vec<u64>,
    frames: Vec<FrameMark>,
    mark: M,
}

/// A validated repetition: the walker's state now equals its state at
/// `then`, shifted, and stays so for `periods` further repetitions.
#[derive(Debug)]
pub struct Skip<'a, M> {
    /// The walker's mark at the earlier snapshot.
    pub then: &'a M,
    /// How many whole periods can be skipped (at least 1).
    pub periods: u64,
    /// Trips each live frame takes per period, in frame-mark order.
    pub frame_deltas: Vec<u64>,
}

impl<M> Skip<'_, M> {
    /// Loop trips, over all frames, that skipping `periods` periods jumps.
    pub fn trips(&self, periods: u64) -> u64 {
        self.frame_deltas
            .iter()
            .sum::<u64>()
            .saturating_mul(periods)
    }
}

/// History ring of signatures with miss back-off.
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

impl<M> PeriodDetector<M> {
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
    pub fn observe(
        &mut self,
        sig: Vec<u64>,
        frames: Vec<FrameMark>,
        mark: M,
    ) -> Option<Skip<'_, M>> {
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
                    then: &self.ring[i].mark,
                    periods,
                    frame_deltas,
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
    let mut best: Option<(usize, u64)> = None;
    for (wi, wg) in k.warp_groups.iter().enumerate() {
        let trips = dynamic_trips(&wg.body, params);
        if trips > 0 && best.is_none_or(|(_, t)| trips > t) {
            best = Some((wi, trips));
        }
    }
    best.map(|(wi, _)| wi)
}

fn dynamic_trips(body: &[Instr], params: &[u64]) -> u64 {
    let mut total = 0u64;
    for i in body {
        if let Instr::Loop { count, body } = i {
            // Lenient where `Count::resolve` panics: a loop no walker ever
            // reaches must not fail the scan.
            let trips = match *count {
                Count::Const(c) => c,
                Count::Param(p) => params.get(p).copied().unwrap_or(0),
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BarId, Role};

    fn mark(id: u64, remaining: u64) -> FrameMark {
        FrameMark { id, remaining }
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
        assert_eq!((*skip.then, skip.periods), (11, 48));
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
