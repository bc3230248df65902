//! The benchmark's reference kernel: a fixed piece of work, owned by
//! the benchmark and touching no code of the repo, timed between the
//! reps of a workload.
//!
//! The box is a shared VM whose speed moves in phases of 10–30 s by up
//! to 1.6× (contention for the core and its caches from other tenants;
//! see README, "Noise"). A whole process run can sit inside one slow
//! phase, so no statistic of its reps alone recovers the quiet speed.
//! The kernel does the kinds of work the simulator does — streaming row
//! evaluation over pages that do not fit L2, hash-map churn, a binary
//! heap — so a slow phase slows both alike, and `wall_s` is reported in
//! seconds *at the reference speed*: measured seconds × (nominal ÷
//! measured time of this kernel). A change to the repo cannot move the
//! kernel, so it cannot hide in the scale factor.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one [`Reference::sample`] on the reference box when
/// it is quiet. Fixing it keeps `wall_s` reading as seconds; parent and
/// change are scaled by the same constant, so it cancels between them.
pub const NOMINAL_S: f64 = 0.005;

const PAGE: usize = 8192;
const ROW: usize = 64;
/// Pages streamed per sample, out of a buffer twice as large.
const PAGES_PER_SAMPLE: usize = 2048;

/// The kernel's state, reused across samples.
pub struct Reference {
    pages: Vec<u8>,
    cursor: usize,
    map: HashMap<u64, u64>,
    heap: BinaryHeap<u64>,
    rng: u64,
}

impl Reference {
    /// Allocate and fill the kernel's 32 MB of pages.
    pub fn new() -> Self {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let pages = (0..2 * PAGES_PER_SAMPLE * PAGE / 8)
            .flat_map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                ((rng >> 11) as f64 / (1u64 << 53) as f64).to_le_bytes()
            })
            .collect();
        Reference {
            pages,
            cursor: 0,
            map: HashMap::new(),
            heap: BinaryHeap::new(),
            rng,
        }
    }

    /// Do the fixed work once; host seconds it took.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut sum = 0.0f64;
        let mut qualified = 0u64;
        for _ in 0..PAGES_PER_SAMPLE {
            let page = &self.pages[self.cursor..self.cursor + PAGE];
            self.cursor = (self.cursor + PAGE) % self.pages.len();
            // A Q6-shaped pass: two predicate columns, two sums.
            for row in page.chunks_exact(ROW) {
                let col = |i: usize| {
                    f64::from_le_bytes(row[8 * i..8 * i + 8].try_into().expect("8 bytes"))
                };
                if col(1) < 0.48 && col(3) < 0.7 {
                    sum += col(2) + col(4);
                    qualified += 1;
                }
            }
            // Per-page bookkeeping: a slot-map lookup and an event heap.
            for _ in 0..32 {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                *self.map.entry(self.rng % 4096).or_insert(0) += 1;
                self.heap.push(self.rng);
                if self.heap.len() > 64 {
                    self.heap.pop();
                }
            }
        }
        black_box((sum, qualified));
        t.elapsed().as_secs_f64()
    }
}
