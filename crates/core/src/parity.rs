//! The mbarrier/parity lowering of aref rings (paper §III-E), as an
//! executable model.
//!
//! Lowering replaces each aref slot's abstract `F`/`E` credits with two
//! hardware mbarriers and *per-warp-group phase counters*: a wait succeeds
//! when the barrier has completed more phases than the waiter has consumed.
//! "Each operation alternates between two sets of barriers indexed by
//! iteration parity" — the parity bit is exactly the consumed-phase counter
//! mod 2, so a consumer "may skip waiting if data has already been
//! produced, and producers can reuse buffer slots without overwriting
//! values still in use".
//!
//! [`ParityChannel`] implements the lowered protocol; property tests (see
//! `tests/proptest_aref.rs`) check it is observationally equivalent to the
//! abstract [`crate::aref::ArefRing`] under arbitrary schedules — the
//! correctness-by-construction claim of the paper.
//!
//! Its barriers are the simulator's and the static gate's
//! ([`Mbarrier`]), each expecting one arrival per phase: the
//! single-producer/single-consumer aref protocol.

use tawa_wsir::walk::Mbarrier;

/// Lowered `D`-slot aref ring: buffers + `full[D]`/`empty[D]` mbarriers +
/// per-side phase counters.
#[derive(Debug, Clone)]
pub struct ParityChannel<T> {
    bufs: Vec<Option<T>>,
    full: Vec<Mbarrier>,
    empty: Vec<Mbarrier>,
    /// Producer's consumed-phase counters for `empty[s]`.
    p_phase: Vec<u64>,
    /// Consumer's consumed-phase counters for `full[s]`.
    c_phase: Vec<u64>,
    put_iter: u64,
    get_iter: u64,
    release_iter: u64,
}

impl<T: Clone> ParityChannel<T> {
    /// Creates a lowered ring of `depth` slots. Every `empty` barrier
    /// starts with one completed phase — the initial `E = 1` credit.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> ParityChannel<T> {
        assert!(depth > 0, "parity channel depth must be positive");
        ParityChannel {
            bufs: vec![None; depth],
            full: (0..depth).map(|_| Mbarrier::new(1, 0)).collect(),
            empty: (0..depth).map(|_| Mbarrier::new(1, 1)).collect(),
            p_phase: vec![0; depth],
            c_phase: vec![0; depth],
            put_iter: 0,
            get_iter: 0,
            release_iter: 0,
        }
    }

    /// Ring depth.
    pub fn depth(&self) -> usize {
        self.bufs.len()
    }

    /// The producer's parity bit for its next wait on slot `s`.
    pub fn producer_parity(&self, s: usize) -> u64 {
        self.p_phase[s] % 2
    }

    /// The consumer's parity bit for its next wait on slot `s`.
    pub fn consumer_parity(&self, s: usize) -> u64 {
        self.c_phase[s] % 2
    }

    /// Attempts the lowered `put`: wait on `empty[k mod D]`, write the
    /// buffer, arrive on `full[k mod D]`. Returns `false` if the wait
    /// would block (the caller — a simulated warp group — retries later).
    pub fn try_put(&mut self, v: T) -> bool {
        let s = (self.put_iter % self.depth() as u64) as usize;
        if self.empty[s].completed_phases() <= self.p_phase[s] {
            return false; // would block on the empty barrier
        }
        self.p_phase[s] += 1;
        self.bufs[s] = Some(v);
        self.full[s].arrive();
        self.put_iter += 1;
        true
    }

    /// Attempts the lowered `get`: wait on `full[k mod D]`, read the
    /// buffer. Returns `None` if the wait would block.
    pub fn try_get(&mut self) -> Option<T> {
        let s = (self.get_iter % self.depth() as u64) as usize;
        if self.full[s].completed_phases() <= self.c_phase[s] {
            return None;
        }
        // A completed full phase means `try_put` filled the slot.
        let value = self.bufs[s].clone()?;
        self.c_phase[s] += 1;
        self.get_iter += 1;
        Some(value)
    }

    /// The lowered `consumed`: arrive on `empty[s]` for the oldest
    /// outstanding get. Never blocks (arrivals are asynchronous).
    ///
    /// # Panics
    /// Panics if there is no outstanding get to release — the protocol
    /// violation the `aref` type system prevents statically.
    pub fn release(&mut self) {
        assert!(
            self.release_iter < self.get_iter,
            "consumed without outstanding get"
        );
        let s = (self.release_iter % self.depth() as u64) as usize;
        self.empty[s].arrive();
        self.release_iter += 1;
    }

    /// True iff a `try_put` would currently succeed.
    pub fn can_put(&self) -> bool {
        let s = (self.put_iter % self.depth() as u64) as usize;
        self.empty[s].completed_phases() > self.p_phase[s]
    }

    /// True iff a `try_get` would currently succeed.
    pub fn can_get(&self) -> bool {
        let s = (self.get_iter % self.depth() as u64) as usize;
        self.full[s].completed_phases() > self.c_phase[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aref::ArefRing;

    #[test]
    fn initial_credits_allow_d_puts() {
        let mut ch = ParityChannel::new(3);
        assert!(ch.try_put(1));
        assert!(ch.try_put(2));
        assert!(ch.try_put(3));
        assert!(!ch.try_put(4), "4th put must block on empty[0]");
    }

    #[test]
    fn fifo_delivery() {
        let mut ch = ParityChannel::new(2);
        assert!(ch.try_put(10));
        assert!(ch.try_put(20));
        assert_eq!(ch.try_get(), Some(10));
        ch.release();
        assert!(ch.try_put(30));
        assert_eq!(ch.try_get(), Some(20));
        assert_eq!(ch.try_get(), Some(30), "slot 0 was refilled after release");
        assert_eq!(ch.try_get(), None, "nothing further published");
    }

    #[test]
    fn get_blocks_until_put() {
        let mut ch: ParityChannel<i32> = ParityChannel::new(2);
        assert_eq!(ch.try_get(), None);
        assert!(ch.try_put(5));
        assert_eq!(ch.try_get(), Some(5));
    }

    #[test]
    fn parity_bits_flip_per_wrap() {
        let mut ch = ParityChannel::new(2);
        assert_eq!(ch.producer_parity(0), 0);
        assert!(ch.try_put(0)); // slot 0
        assert_eq!(ch.producer_parity(0), 1);
        assert!(ch.try_put(1)); // slot 1
        let _ = ch.try_get();
        ch.release();
        assert!(ch.try_put(2)); // slot 0 again
        assert_eq!(ch.producer_parity(0), 0, "parity flips back on wrap");
    }

    #[test]
    #[should_panic(expected = "consumed without outstanding get")]
    fn release_without_get_panics() {
        let mut ch: ParityChannel<i32> = ParityChannel::new(1);
        ch.release();
    }

    /// A deterministic lock-step bisimulation check (the exhaustive random
    /// version lives in tests/proptest_aref.rs).
    #[test]
    fn matches_abstract_semantics_lockstep() {
        let mut abs: ArefRing<u32> = ArefRing::new(2);
        let mut low: ParityChannel<u32> = ParityChannel::new(2);
        let mut next = 0u32;
        let mut outstanding = 0u64;
        for step in 0..200u32 {
            match step % 3 {
                0 => {
                    assert_eq!(abs.can_put(), low.can_put(), "put availability diverged");
                    if abs.can_put() {
                        abs.put(next).unwrap();
                        assert!(low.try_put(next));
                        next += 1;
                    }
                }
                1 => {
                    assert_eq!(abs.can_get(), low.can_get(), "get availability diverged");
                    if abs.can_get() {
                        let a = *abs.get().unwrap();
                        let l = low.try_get().unwrap();
                        assert_eq!(a, l, "delivered values diverged");
                        outstanding += 1;
                    }
                }
                _ => {
                    if outstanding > 0 {
                        abs.consumed().unwrap();
                        low.release();
                        outstanding -= 1;
                    }
                }
            }
        }
    }
}
