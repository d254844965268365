//! Asynchronous references: the paper's formal semantics (Fig. 4).
//!
//! An `aref` is a one-slot channel `⟨buf, F, E⟩` between a producer and a
//! consumer warp group, where `F` ("full") and `E` ("empty") are the
//! credits of two hardware mbarriers. The operational semantics:
//!
//! ```text
//! PUT       requires E = 1:  ⟨buf, F, E⟩ → ⟨v,   F=1, E=0⟩
//! GET       requires F = 1:  ⟨buf, F, E⟩ → ⟨buf, F=0, E=0⟩, returns buf
//! CONSUMED                    ⟨buf, F, E⟩ → ⟨buf, F=0, E=1⟩
//! ```
//!
//! Initially `E = 1, F = 0`. Between a `get` and its `consumed` the slot is
//! *borrowed*: neither barrier holds a credit, the value is in use and the
//! slot may not be reused. This module implements the abstract machine
//! exactly, as the executable specification against which the parity-based
//! mbarrier lowering ([`crate::parity`]) is property-tested, and provides
//! the `D`-deep ring ([`ArefRing`]) used for multi-buffering.

use std::fmt;

/// Violations of the aref protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArefError {
    /// `put` attempted while the slot was not empty (`E = 0`): the producer
    /// would overwrite data still in use — exactly the race the empty
    /// barrier prevents.
    PutWithoutCredit,
    /// `get` attempted while the slot was not full (`F = 0`): the consumer
    /// would read unpublished data.
    GetWithoutCredit,
    /// `consumed` on a slot that was not in the borrowed state.
    ConsumedWithoutBorrow,
}

impl fmt::Display for ArefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArefError::PutWithoutCredit => "put requires the empty credit (E = 1)",
            ArefError::GetWithoutCredit => "get requires the full credit (F = 1)",
            ArefError::ConsumedWithoutBorrow => "consumed requires a borrowed slot",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ArefError {}

/// Protocol state of one slot (the `⟨F, E⟩` pair; the buffer is generic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// `E = 1, F = 0`: writable by the producer.
    Empty,
    /// `E = 0, F = 1`: published, readable by the consumer.
    Full,
    /// `E = 0, F = 0`: read but not yet released.
    Borrowed,
}

/// A single-slot asynchronous reference carrying values of type `T`.
#[derive(Debug, Clone)]
pub struct Aref<T> {
    state: SlotState,
    buf: Option<T>,
}

impl<T> Default for Aref<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Aref<T> {
    /// Creates an empty aref (`E = 1, F = 0`).
    pub fn new() -> Aref<T> {
        Aref {
            state: SlotState::Empty,
            buf: None,
        }
    }

    /// Current protocol state.
    pub fn state(&self) -> SlotState {
        self.state
    }

    /// True iff a `put` would succeed.
    pub fn can_put(&self) -> bool {
        self.state == SlotState::Empty
    }

    /// True iff a `get` would succeed.
    pub fn can_get(&self) -> bool {
        self.state == SlotState::Full
    }

    /// PUT rule: publishes `v`, flipping `E=1 → F=1`.
    ///
    /// # Errors
    /// [`ArefError::PutWithoutCredit`] if the slot is not empty.
    pub fn put(&mut self, v: T) -> Result<(), ArefError> {
        if self.state != SlotState::Empty {
            return Err(ArefError::PutWithoutCredit);
        }
        self.buf = Some(v);
        self.state = SlotState::Full;
        Ok(())
    }

    /// GET rule: acquires the published value, entering the borrowed state.
    /// The value stays in the buffer (hardware keeps the bytes in shared
    /// memory until the slot is recycled), so a clonable copy is returned.
    ///
    /// # Errors
    /// [`ArefError::GetWithoutCredit`] if the slot is not full.
    pub fn get(&mut self) -> Result<&T, ArefError> {
        // `put` fills the buffer as it enters the full state.
        let (SlotState::Full, Some(v)) = (self.state, self.buf.as_ref()) else {
            return Err(ArefError::GetWithoutCredit);
        };
        self.state = SlotState::Borrowed;
        Ok(v)
    }

    /// CONSUMED rule: releases the borrow, restoring the empty credit and
    /// establishing the happens-before edge to the producer's next reuse.
    ///
    /// # Errors
    /// [`ArefError::ConsumedWithoutBorrow`] if the slot is not borrowed.
    pub fn consumed(&mut self) -> Result<(), ArefError> {
        if self.state != SlotState::Borrowed {
            return Err(ArefError::ConsumedWithoutBorrow);
        }
        self.state = SlotState::Empty;
        Ok(())
    }

    /// Peek at the buffered value (any state).
    pub fn peek(&self) -> Option<&T> {
        self.buf.as_ref()
    }
}

/// A `D`-deep cyclic ring of arefs (§III-B: "multiple aref instances can be
/// grouped into a cyclic buffer of depth D"). The producer writes slot
/// `k mod D` at iteration `k`; the consumer reads the same sequence, so the
/// channel behaves as a bounded FIFO of capacity `D`.
#[derive(Debug, Clone)]
pub struct ArefRing<T> {
    slots: Vec<Aref<T>>,
    put_idx: u64,
    get_idx: u64,
    consumed_idx: u64,
}

impl<T> ArefRing<T> {
    /// Creates a ring of `depth` empty slots.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> ArefRing<T> {
        assert!(depth > 0, "aref ring depth must be positive");
        ArefRing {
            slots: (0..depth).map(|_| Aref::new()).collect(),
            put_idx: 0,
            get_idx: 0,
            consumed_idx: 0,
        }
    }

    /// Ring depth `D`.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// True iff the next `put` (iteration `put_idx`) would succeed.
    pub fn can_put(&self) -> bool {
        self.slots[(self.put_idx % self.depth() as u64) as usize].can_put()
    }

    /// True iff the next `get` would succeed.
    pub fn can_get(&self) -> bool {
        self.slots[(self.get_idx % self.depth() as u64) as usize].can_get()
    }

    /// Publishes the next value in iteration order.
    ///
    /// # Errors
    /// Propagates [`ArefError::PutWithoutCredit`] when the producer has run
    /// `D` iterations ahead of `consumed`.
    pub fn put(&mut self, v: T) -> Result<(), ArefError> {
        let d = self.depth() as u64;
        let slot = (self.put_idx % d) as usize;
        self.slots[slot].put(v)?;
        self.put_idx += 1;
        Ok(())
    }

    /// Acquires the next published value in iteration order.
    ///
    /// # Errors
    /// Propagates [`ArefError::GetWithoutCredit`] when the consumer has
    /// caught up with the producer.
    pub fn get(&mut self) -> Result<&T, ArefError> {
        let d = self.depth() as u64;
        let slot = (self.get_idx % d) as usize;
        let v = self.slots[slot].get()?;
        self.get_idx += 1;
        Ok(v)
    }

    /// Releases the oldest borrowed slot.
    ///
    /// # Errors
    /// Propagates [`ArefError::ConsumedWithoutBorrow`] if no slot is
    /// borrowed.
    pub fn consumed(&mut self) -> Result<(), ArefError> {
        let d = self.depth() as u64;
        let slot = (self.consumed_idx % d) as usize;
        self.slots[slot].consumed()?;
        self.consumed_idx += 1;
        Ok(())
    }

    /// Number of completed puts.
    pub fn puts(&self) -> u64 {
        self.put_idx
    }

    /// Number of completed gets.
    pub fn gets(&self) -> u64 {
        self.get_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_empty() {
        let a: Aref<i32> = Aref::new();
        assert_eq!(a.state(), SlotState::Empty);
        assert!(a.can_put());
        assert!(!a.can_get());
    }

    #[test]
    fn put_get_consumed_cycle() {
        let mut a = Aref::new();
        a.put(42).unwrap();
        assert_eq!(a.state(), SlotState::Full);
        assert_eq!(*a.get().unwrap(), 42);
        assert_eq!(a.state(), SlotState::Borrowed);
        a.consumed().unwrap();
        assert_eq!(a.state(), SlotState::Empty);
        // Slot is reusable.
        a.put(7).unwrap();
        assert_eq!(*a.get().unwrap(), 7);
    }

    #[test]
    fn premature_operations_rejected() {
        let mut a: Aref<i32> = Aref::new();
        assert_eq!(a.get().unwrap_err(), ArefError::GetWithoutCredit);
        assert_eq!(a.consumed().unwrap_err(), ArefError::ConsumedWithoutBorrow);
        a.put(1).unwrap();
        assert_eq!(a.put(2).unwrap_err(), ArefError::PutWithoutCredit);
        let _ = a.get().unwrap();
        // Double get while borrowed is a protocol violation.
        assert_eq!(a.get().unwrap_err(), ArefError::GetWithoutCredit);
    }

    #[test]
    fn never_both_credits() {
        // The state machine has no state with E = 1 and F = 1; exhaustively
        // check all transitions preserve that.
        let states = [SlotState::Empty, SlotState::Full, SlotState::Borrowed];
        for s in states {
            let mut a = Aref {
                state: s,
                buf: Some(0),
            };
            let _ = a.put(1);
            assert_ne!((a.can_put(), a.can_get()), (true, true));
            let mut a = Aref {
                state: s,
                buf: Some(0),
            };
            let _ = a.get();
            assert_ne!((a.can_put(), a.can_get()), (true, true));
            let mut a = Aref {
                state: s,
                buf: Some(0),
            };
            let _ = a.consumed();
            assert_ne!((a.can_put(), a.can_get()), (true, true));
        }
    }

    #[test]
    fn ring_is_bounded_fifo() {
        let mut r = ArefRing::new(2);
        r.put(0).unwrap();
        r.put(1).unwrap();
        // Producer is D ahead: must block.
        assert_eq!(r.put(2).unwrap_err(), ArefError::PutWithoutCredit);
        assert_eq!(*r.get().unwrap(), 0);
        // Slot 0 is borrowed, not yet empty: still cannot put.
        assert_eq!(r.put(2).unwrap_err(), ArefError::PutWithoutCredit);
        r.consumed().unwrap();
        r.put(2).unwrap();
        assert_eq!(*r.get().unwrap(), 1);
        r.consumed().unwrap();
        assert_eq!(*r.get().unwrap(), 2);
        r.consumed().unwrap();
    }

    #[test]
    fn ring_preserves_order() {
        let mut r = ArefRing::new(3);
        let mut got = Vec::new();
        let mut next = 0;
        // Interleave puts and gets in an arbitrary but legal pattern.
        for _ in 0..10 {
            while r.can_put() && next < 30 {
                r.put(next).unwrap();
                next += 1;
            }
            while r.can_get() {
                got.push(*r.get().unwrap());
                r.consumed().unwrap();
            }
        }
        assert_eq!(got, (0..30).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_ring_panics() {
        let _: ArefRing<i32> = ArefRing::new(0);
    }
}
