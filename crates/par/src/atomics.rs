//! Atomic reduction helpers built from compare-exchange loops.
//!
//! Push-based vertex programs update destination vertex values from many
//! threads at once: SSSP/BFS need an atomic `min`, CC needs an atomic `min`
//! over labels, and delta-PageRank needs an atomic floating-point add.
//! `std::sync::atomic` provides `fetch_min` for integers but nothing for
//! floats, so both live here behind one consistent API.
//!
//! All loops use `Relaxed` ordering: vertex values are only read between
//! kernel phases (after the thread join, which synchronizes), never used to
//! publish other memory.
//!
//! # Test before the read-modify-write
//!
//! [`atomic_min_u32`], [`atomic_max_u32`] and [`atomic_or_new_u64`] first
//! load the cell and skip the locked RMW when it cannot change the value
//! (Gunrock's "skip non-improving updates" before the atomic). This is
//! exact — same stored value, same return value as the bare RMW — for
//! cells that move **one way only** while a parallel phase runs: a
//! Relaxed load still reads some value from the cell's modification
//! order, every later value is at least as far along (coherence), so if
//! the loaded value already dominates `val` the RMW would have been a
//! no-op reporting "no change". Callers must not mix these helpers with
//! plain stores that move the cell the other way inside one phase; resets
//! belong between phases, after the join.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomically `dst = min(dst, val)`. Returns `true` when `val` lowered the
/// stored value (the caller then activates the destination vertex).
/// Skips the RMW when the cell already holds `val` or less; exact for
/// cells that only decrease during the phase (see the module docs).
#[inline]
pub fn atomic_min_u32(dst: &AtomicU32, val: u32) -> bool {
    if dst.load(Ordering::Relaxed) <= val {
        return false;
    }
    let prev = dst.fetch_min(val, Ordering::Relaxed);
    val < prev
}

/// Atomically `dst = max(dst, val)`. Returns `true` when `val` raised it.
/// Skips the RMW when the cell already holds `val` or more; exact for
/// cells that only increase during the phase.
#[inline]
pub fn atomic_max_u32(dst: &AtomicU32, val: u32) -> bool {
    if dst.load(Ordering::Relaxed) >= val {
        return false;
    }
    let prev = dst.fetch_max(val, Ordering::Relaxed);
    val > prev
}

/// Atomically `dst |= mask`. Returns the bits of `mask` this call set
/// (clear before it), so across racing callers each bit is reported by
/// exactly one of them. Skips the RMW when every bit of `mask` is already
/// set; exact for cells whose bits are only ever set during the phase.
#[inline]
pub fn atomic_or_new_u64(dst: &AtomicU64, mask: u64) -> u64 {
    if dst.load(Ordering::Relaxed) & mask == mask {
        return 0;
    }
    mask & !dst.fetch_or(mask, Ordering::Relaxed)
}

/// Atomically add `val` to an `f32` stored as the bits of an [`AtomicU32`].
///
/// Returns the value held *before* the addition. This mirrors CUDA's
/// `atomicAdd(float*)`, which PageRank's scatter uses.
#[inline]
pub fn atomic_add_f32(dst: &AtomicU32, val: f32) -> f32 {
    let mut cur = dst.load(Ordering::Relaxed);
    loop {
        let old = f32::from_bits(cur);
        let new = (old + val).to_bits();
        match dst.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return old,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically add `val` to an `f64` stored as the bits of an [`AtomicU64`].
#[inline]
pub fn atomic_add_f64(dst: &AtomicU64, val: f64) -> f64 {
    let mut cur = dst.load(Ordering::Relaxed);
    loop {
        let old = f64::from_bits(cur);
        let new = (old + val).to_bits();
        match dst.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return old,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically exchange an `f64` (bit-stored) with `val`, returning the old
/// value. Delta-PageRank uses this to claim a vertex's accumulated residual.
#[inline]
pub fn atomic_swap_f64(dst: &AtomicU64, val: f64) -> f64 {
    f64::from_bits(dst.swap(val.to_bits(), Ordering::Relaxed))
}

/// Load an `f64` stored as bits.
#[inline]
pub fn load_f64(src: &AtomicU64) -> f64 {
    f64::from_bits(src.load(Ordering::Relaxed))
}

/// Store an `f64` as bits.
#[inline]
pub fn store_f64(dst: &AtomicU64, val: f64) {
    dst.store(val.to_bits(), Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pool::parallel_for;

    #[test]
    fn min_reports_improvement() {
        let a = AtomicU32::new(10);
        assert!(atomic_min_u32(&a, 5));
        assert!(!atomic_min_u32(&a, 5));
        assert!(!atomic_min_u32(&a, 7));
        assert_eq!(a.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn max_reports_improvement() {
        let a = AtomicU32::new(10);
        assert!(atomic_max_u32(&a, 20));
        assert!(!atomic_max_u32(&a, 15));
        assert!(!atomic_max_u32(&a, 20));
        assert_eq!(a.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn concurrent_min_finds_global_min() {
        let a = AtomicU32::new(u32::MAX);
        parallel_for(100_000, |i| {
            atomic_min_u32(&a, (i as u32).wrapping_mul(2_654_435_761) % 1_000_000);
        });
        // The minimum over i*h mod 1e6 for 100k distinct i's: recompute serially.
        let expect = (0..100_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 1_000_000)
            .min()
            .unwrap();
        assert_eq!(a.load(Ordering::Relaxed), expect);
        // the skip path: equal and larger values never report a change
        // and never move the cell, however many threads race
        let improved = AtomicU64::new(0);
        parallel_for(100_000, |i| {
            let val = expect + (i % 3) as u32;
            if atomic_min_u32(&a, val) {
                improved.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(improved.load(Ordering::Relaxed), 0);
        assert_eq!(a.load(Ordering::Relaxed), expect);
        assert!(!atomic_min_u32(&a, expect));
        assert!(!atomic_min_u32(&a, u32::MAX));
    }

    /// Run `f(i)` for every `i in 0..n` on exactly `threads` OS threads
    /// (interleaved indices) released together by a barrier, so the
    /// racing-setter tests contend at each width regardless of the pool's
    /// configuration.
    pub(crate) fn race(threads: usize, n: usize, f: impl Fn(usize) + Sync) {
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (f, start) = (&f, &start);
                s.spawn(move || {
                    start.wait();
                    (t..n).step_by(threads).for_each(f)
                });
            }
        });
    }

    #[test]
    fn concurrent_min_reports_each_improvement_once() {
        // racing equal proposals: exactly one caller per cell sees `true`,
        // whether the loser is turned away by the load or by the RMW
        for threads in [1, 2, 8] {
            let cells: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(u32::MAX)).collect();
            let wins = AtomicU64::new(0);
            race(threads, 64 * 100, |i| {
                if atomic_min_u32(&cells[i % 64], 7) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 64, "threads {threads}");
            assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 7));
        }
    }

    #[test]
    fn or_new_reports_each_bit_once() {
        for threads in [1, 2, 8] {
            let a = AtomicU64::new(1 << 63);
            let reported = AtomicU64::new(0);
            let count = AtomicU64::new(0);
            race(threads, 10_000, |i| {
                let mask = (1u64 << (i % 64)) | (1 << ((i * 7) % 64));
                let new = atomic_or_new_u64(&a, mask);
                assert_eq!(new & !mask, 0, "reported bits outside the mask");
                let dup = reported.fetch_or(new, Ordering::Relaxed) & new;
                assert_eq!(dup, 0, "a bit was reported twice");
                count.fetch_add(u64::from(new.count_ones()), Ordering::Relaxed);
            });
            assert_eq!(a.load(Ordering::Relaxed), u64::MAX);
            // bit 63 was set up front, so nobody may report it
            assert_eq!(reported.load(Ordering::Relaxed), u64::MAX >> 1);
            assert_eq!(count.load(Ordering::Relaxed), 63, "threads {threads}");
        }
    }

    #[test]
    fn f32_add_accumulates() {
        let a = AtomicU32::new(0f32.to_bits());
        let n = 10_000;
        parallel_for(n, |_| {
            atomic_add_f32(&a, 1.0);
        });
        assert_eq!(f32::from_bits(a.load(Ordering::Relaxed)), n as f32);
    }

    #[test]
    fn f64_add_accumulates_exactly_for_integers() {
        let a = AtomicU64::new(0f64.to_bits());
        let n = 50_000;
        parallel_for(n, |i| {
            atomic_add_f64(&a, (i % 7) as f64);
        });
        let expect: f64 = (0..n).map(|i| (i % 7) as f64).sum();
        assert_eq!(load_f64(&a), expect);
    }

    #[test]
    fn swap_returns_previous() {
        let a = AtomicU64::new(3.5f64.to_bits());
        assert_eq!(atomic_swap_f64(&a, 0.0), 3.5);
        assert_eq!(load_f64(&a), 0.0);
        store_f64(&a, -1.25);
        assert_eq!(load_f64(&a), -1.25);
    }

    #[test]
    fn f32_add_returns_old_value() {
        let a = AtomicU32::new(2.0f32.to_bits());
        let old = atomic_add_f32(&a, 3.0);
        assert_eq!(old, 2.0);
        assert_eq!(f32::from_bits(a.load(Ordering::Relaxed)), 5.0);
    }
}
