//! The reference loop: a fixed amount of host work that the benchmark
//! owns and that runs none of the simulator's code.
//!
//! Host speed on a shared machine drifts by tens of percent within
//! minutes, and the drift reaches on-CPU time as well as wall time.
//! Timing every op next to a slice of this loop and dividing by the
//! slice's time turns op times into reference units, which cancels
//! the drift both share. The loop mixes the kinds of work the
//! simulator does — integer arithmetic, `Vec` pushes and sorts, and
//! ordered-map inserts and range lookups — so both respond alike to
//! the host's speed.
//!
//! This file uses only `std`; a test checks that it stays that way.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Loop iterations in one slice: about 3 ms on a 2-vCPU x86-64 host.
pub const SLICE_ITERS: u64 = 24_000;

/// Distinct keys the slice's map may hold, so its size is bounded.
const KEY_MASK: u64 = 0x0FFF;

/// Values gathered before each sort.
const BATCH: usize = 256;

/// Windows the multi-thread part of a slice is cut into. Each window
/// starts its threads afresh and joins them, as the sharded multi-GPU
/// engine does once per cycle window. Thread start-up and join take
/// about a third of this part's time, and a fifth to a half of that
/// engine's time on the tuning host, so a host that is slow to start
/// or wake threads slows both.
const WINDOWS: u64 = 16;

/// Runs one slice and returns its checksum. The result depends only
/// on the constants above, never on timing.
pub fn slice() -> u64 {
    run(SLICE_ITERS)
}

/// Runs `iters` loop iterations and returns their checksum.
fn run(iters: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut batch: Vec<u64> = Vec::with_capacity(BATCH);
    let mut acc: u64 = 0;
    for i in 0..iters {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x & KEY_MASK;
        *map.entry(key).or_insert(0) += i;
        batch.push(x);
        if batch.len() == BATCH {
            batch.sort_unstable();
            acc = acc.wrapping_add(batch[BATCH / 2]);
            batch.clear();
        }
        if x & 0xF == 0 {
            if let Some((&k, &v)) = map.range(key..).next() {
                acc ^= k.wrapping_mul(v | 1);
            }
        }
    }
    acc ^ map.len() as u64
}

/// Runs one slice on this thread and, when `width > 1`, one slice on
/// each of `width` threads at once, cut into `WINDOWS` windows of
/// fresh threads; returns the summed wall time in milliseconds. An op
/// that runs partly on several threads is thus compared with reference
/// work at both widths.
pub fn timed_slice(width: usize) -> f64 {
    let t = Instant::now();
    black_box(slice());
    if width > 1 {
        for _ in 0..WINDOWS {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..width)
                    .map(|_| scope.spawn(|| black_box(run(SLICE_ITERS / WINDOWS))))
                    .collect();
                for w in workers {
                    w.join().expect("a reference slice cannot panic");
                }
            });
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}
