//! The in-run calibration loop.
//!
//! The reference box is a small shared VM whose speed drifts by 10–30 %
//! over minutes. The drift is in the memory system: over a 25-minute
//! probe a cold compile slowed by up to 30 %, a pure ALU loop by 10 %, a
//! pointer chase through 16 MiB by 25 % and one through 256 KiB by 39 % —
//! and the geometric mean of the two chases followed the compile to
//! within ±2 %. That mean is the calibration: a short chunk of both
//! chases runs between ops, outside every timed region, and the run's
//! end-to-end timings are reported in *calibrated* time,
//!
//! ```text
//! calibrated = measured × REFERENCE_US ÷ chunk time of this run
//! ```
//!
//! so that a slow phase of the machine scales both and cancels, while a
//! change to the program moves only the measured time and shows in full.
//! The chases allocate nothing and read fixed arrays, so the program
//! cannot change what a chunk costs. (A chunk that allocates was tried
//! first; its time depends on the heap the workload leaves behind, and it
//! widened the spread it was meant to narrow.)

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// Chunk time on the reference box in a quiet phase, interleaved with a
/// workload (which evicts the small cycle between chunks), us. Calibrated
/// times equal measured times on a machine that runs the chunk this fast.
pub const REFERENCE_US: f64 = 900.0;

/// Op time between two chunks.
const INTERVAL: Duration = Duration::from_millis(20);

/// Entries of the memory-resident and of the cache-resident cycle.
const BIG: usize = 4 << 20;
const SMALL: usize = 64 << 10;
/// Steps per chunk through each.
const BIG_STEPS: usize = 5_000;
const SMALL_STEPS: usize = 50_000;

/// A random single-cycle permutation of `0..n` (Sattolo's algorithm), so
/// that following it visits every entry before repeating.
fn cycle(n: usize, mut seed: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (seed >> 33) as usize % i;
        next.swap(i, j);
    }
    next
}

fn arrays() -> &'static (Vec<u32>, Vec<u32>) {
    static ARRAYS: OnceLock<(Vec<u32>, Vec<u32>)> = OnceLock::new();
    ARRAYS.get_or_init(|| (cycle(BIG, 1), cycle(SMALL, 2)))
}

fn chase(next: &[u32], from: &mut u32, steps: usize) -> f64 {
    let start = Instant::now();
    let mut at = *from;
    for _ in 0..steps {
        at = next[at as usize];
    }
    *from = std::hint::black_box(at);
    start.elapsed().as_secs_f64() * 1e6
}

/// Collects chunk times interleaved with the ops of one stretch.
#[derive(Debug, Default)]
pub struct Calibration {
    /// Time of the memory-resident chase of each chunk, us.
    pub big_us: Samples,
    /// Time of the cache-resident chase of each chunk, us.
    pub small_us: Samples,
    at: (u32, u32),
    since_last: Duration,
}

impl Calibration {
    /// Called after every op, outside its timed region, with the op's
    /// duration: runs a chunk after the first op and then once per
    /// [`INTERVAL`] of op time.
    pub fn after_op(&mut self, op: Duration) {
        self.since_last += op;
        if self.big_us.n() == 0 || self.since_last >= INTERVAL {
            let (big, small) = arrays();
            self.big_us.push(chase(big, &mut self.at.0, BIG_STEPS));
            self.small_us
                .push(chase(small, &mut self.at.1, SMALL_STEPS));
            self.since_last = Duration::ZERO;
        }
    }

    /// The chunk time of this stretch: the geometric mean of the two
    /// chases' medians, us (0 when no chunk ran).
    pub fn chunk_us(&self) -> f64 {
        (self.big_us.p50() * self.small_us.p50()).sqrt()
    }

    /// Factor that turns a measured time of this stretch into calibrated
    /// time (1 when no chunk ran).
    pub fn time_factor(&self) -> f64 {
        match self.chunk_us() {
            chunk if chunk > 0.0 => REFERENCE_US / chunk,
            _ => 1.0,
        }
    }

    /// Folds another stretch's chunks in.
    pub fn merge(&mut self, other: Calibration) {
        self.big_us.0.extend(other.big_us.0);
        self.small_us.0.extend(other.small_us.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_permutation_is_one_cycle() {
        let next = cycle(1000, 7);
        let (mut at, mut steps) = (0u32, 0);
        loop {
            at = next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 1000);
    }

    #[test]
    fn chunks_run_after_the_first_op_and_then_per_interval() {
        let mut c = Calibration::default();
        assert_eq!(c.time_factor(), 1.0);
        c.after_op(Duration::from_millis(1));
        assert_eq!(c.big_us.n(), 1);
        for _ in 0..19 {
            c.after_op(Duration::from_millis(1));
        }
        assert_eq!(c.big_us.n(), 1);
        c.after_op(Duration::from_millis(1));
        assert_eq!((c.big_us.n(), c.small_us.n()), (2, 2));
        c.after_op(Duration::from_millis(500));
        assert_eq!(c.big_us.n(), 3);
    }

    #[test]
    fn a_slow_machine_shrinks_calibrated_time() {
        let c = Calibration {
            big_us: Samples(vec![4.0 * REFERENCE_US; 3]),
            small_us: Samples(vec![REFERENCE_US; 3]),
            ..Calibration::default()
        };
        assert_eq!(c.chunk_us(), 2.0 * REFERENCE_US);
        assert_eq!(c.time_factor(), 0.5);
    }
}
