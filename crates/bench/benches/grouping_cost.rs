//! Cost of the Figure 14 grouping pass, which the manager re-runs on
//! every location update: O(L log L) for L scans (two sorts plus linear
//! passes). The `one_group_64` case is the one that used to be quadratic —
//! every gap merges, and until ISSUE 14 each merge rescanned all chains
//! for the total extent (9.5 µs → 1.7 µs); the spread-out cases stop at
//! the first merge.

use scanshare::anchor::AnchorId;
use scanshare::grouping::find_leaders_trailers;
use scanshare::ScanId;
use scanshare_bench::micro::bench;
use std::hint::black_box;

fn scans(n: usize, anchors: u64) -> Vec<(ScanId, AnchorId, i64)> {
    (0..n)
        .map(|i| {
            (
                ScanId(i as u64),
                AnchorId(i as u64 % anchors),
                ((i as i64 * 7919) % 100_000).abs(),
            )
        })
        .collect()
}

fn main() {
    for &n in &[2usize, 8, 32, 128] {
        let s = scans(n, 4);
        bench(&format!("find_leaders_trailers/{n}"), || {
            black_box(find_leaders_trailers(&s, 10_000));
        });
    }

    let s = scans(64, 1);
    bench("find_leaders_trailers_single_chain_64", || {
        black_box(find_leaders_trailers(&s, 50_000));
    });
    // Budget above the chain's whole extent: all 63 gaps merge.
    bench("find_leaders_trailers_one_group_64", || {
        black_box(find_leaders_trailers(&s, 1_000_000));
    });
}
