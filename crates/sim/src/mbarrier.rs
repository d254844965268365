//! Hopper transaction-barrier (mbarrier) hardware model.
//!
//! A phase of the barrier completes when the expected number of arrivals has
//! been observed **and** every transaction byte announced during the phase
//! has landed. TMA completions count as one arrival plus their byte count
//! (`mbarrier.arrive.expect_tx` + bulk-copy completion semantics, paper
//! §II-A). Warp groups waiting on the barrier track their own consumed-phase
//! counter; this generalizes the two-set parity mechanism of §III-E (the
//! parity bit is the counter mod 2).

/// State of one mbarrier instance.
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
    /// Creates a barrier expecting `arrive_count` arrivals per phase, with
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
    /// tx_done]` — which the engine's period detection compares as it is.
    pub(crate) fn in_phase_state(&self) -> [u64; 3] {
        [self.arrivals as u64, self.tx_expected, self.tx_done]
    }

    /// Completes `phases` further phases at once, leaving the in-phase
    /// state untouched: the barrier's share of an engine fast-forward over
    /// whole periods, each of which ends where it began within a phase.
    /// `None` (and no change) when the count would overflow.
    pub(crate) fn advance_phases(&mut self, phases: u64) -> Option<()> {
        self.completed_phases = self.completed_phases.checked_add(phases)?;
        Some(())
    }

    /// Announces `bytes` of expected transaction data for the current
    /// phase (issued together with a TMA load).
    pub fn expect_tx(&mut self, bytes: u64) {
        self.tx_expected += bytes;
    }

    /// Records one arrival; returns `true` if this completes a phase.
    pub fn arrive(&mut self) -> bool {
        self.arrivals += 1;
        self.try_complete()
    }

    /// Records completion of `bytes` of transaction data plus the implicit
    /// TMA arrival; returns `true` if this completes a phase.
    pub fn arrive_tx(&mut self, bytes: u64) -> bool {
        self.tx_done += bytes;
        self.arrivals += 1;
        self.try_complete()
    }

    fn try_complete(&mut self) -> bool {
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
        b.expect_tx(1024);
        // An arrival without the bytes does not complete the phase.
        assert!(!b.arrive());
        // Bytes land (with their own implicit arrival).
        assert!(b.arrive_tx(1024));
        assert_eq!(b.completed_phases(), 1);
    }

    #[test]
    fn tuple_payload_two_tma_loads() {
        // Paper's A/B tuple aref: one barrier, two TMA loads per phase.
        let mut b = Mbarrier::new(2, 0);
        b.expect_tx(32768);
        b.expect_tx(32768);
        assert!(!b.arrive_tx(32768));
        assert!(b.arrive_tx(32768));
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
            b.expect_tx(100);
            assert!(b.arrive_tx(100));
            assert_eq!(b.completed_phases(), phase);
        }
    }

    #[test]
    fn advancing_phases_keeps_the_in_phase_state() {
        let mut b = Mbarrier::new(2, 1);
        b.expect_tx(64);
        assert!(!b.arrive());
        b.advance_phases(10);
        assert_eq!(b.completed_phases(), 11);
        assert_eq!(b.in_phase_state(), [1, 64, 0]);
        assert!(b.arrive_tx(64));
        assert_eq!(b.completed_phases(), 12);
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
}
