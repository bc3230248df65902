//! Cost of the two placement algorithms vs. the number of ongoing scans:
//! the paper bounds the optimal "interesting locations" search at
//! O(|S|³) and the practical anchor-group variant at O(|S|²). This
//! implementation adds the estimator's grid and a sort per cell:
//! `best_start_practical` is O(cells · |S|² log |S|) with one estimate per
//! distinct member location (it was cells · |S|³ until ISSUE 14, see
//! `scanshare::placement`; 25.7 ms → 3.8 ms at 64 spread-out members,
//! 33.1 ms → 1.4 ms for `one_group_64`). `one_group_64` is the shape a
//! 64-stream run produces when its scans do share: one anchor group,
//! members bunched on a few pages inside a pool-sized window.

use scanshare::placement::{best_start_optimal, best_start_practical, calculate_reads, Trace};
use scanshare_bench::micro::bench;
use std::hint::black_box;

fn members(n: usize) -> Vec<Trace> {
    (0..n)
        .map(|i| {
            let pos = (i as f64 * 137.0) % 5000.0;
            let speed = 50.0 + (i as f64 * 17.0) % 300.0;
            Trace::new(pos, speed, pos + 2000.0)
        })
        .collect()
}

fn main() {
    for &n in &[1usize, 4, 16, 64] {
        let m = members(n);
        bench(&format!("calculate_reads/{n}"), || {
            black_box(calculate_reads(&m, Trace::new(100.0, 100.0, 2100.0), 500.0));
        });
    }

    for &n in &[1usize, 4, 16, 64] {
        let m = members(n);
        bench(&format!("best_start_practical/{n}"), || {
            black_box(best_start_practical(&m, 100.0, 2000.0, 500.0));
        });
    }

    let group: Vec<Trace> = (0..64)
        .map(|i| {
            let pos = 4000.0 + ((i / 4) * 16) as f64;
            Trace::new(pos, 90.0 + (i % 7) as f64 * 5.0, 6000.0)
        })
        .collect();
    bench("best_start_practical_one_group_64", || {
        black_box(best_start_practical(&group, 100.0, 2000.0, 500.0));
    });

    for &n in &[1usize, 4, 16, 32] {
        let m = members(n);
        bench(&format!("best_start_optimal/{n}"), || {
            black_box(best_start_optimal(&m, 100.0, 2000.0, 500.0, (0.0, 5000.0)));
        });
    }
}
