//! Plain and concurrent bitmaps.
//!
//! The Ascetic dataflow (paper Figure 4) is bitmap algebra over vertices:
//!
//! ```text
//! StaticMap    = ActiveBitmap AND StaticBitmap      (compute in Static Region)
//! OndemandMap  = ActiveBitmap AND-NOT StaticBitmap  (fetch from CPU)
//! ```
//!
//! [`Bitmap`] is the single-owner variant used for per-iteration maps;
//! [`AtomicBitmap`] is the shared variant the "kernels" write next-iteration
//! frontiers into from many threads at once. Both store 64 bits per word and
//! expose word-level bulk combinators so the map generation step costs
//! O(|V|/64), matching the paper's cheap `GenDataMap` phase.

use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Mask selecting the valid bits of the final word of a bitmap of `len` bits.
#[inline]
fn tail_mask(len: usize) -> u64 {
    let rem = len % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// A fixed-length, single-owner bitmap.
///
/// ```
/// use ascetic_par::Bitmap;
/// let mut active = Bitmap::new(128);
/// active.set(3);
/// active.set(90);
/// let mut resident = Bitmap::new(128);
/// resident.set(3);
/// // the paper's Figure-4 split:
/// let static_map = active.and(&resident);
/// let ondemand_map = active.and_not(&resident);
/// assert_eq!(static_map.to_indices(), vec![3]);
/// assert_eq!(ondemand_map.to_indices(), vec![90]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap(len={}, ones={})", self.len, self.count_ones())
    }
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; word_count(len)],
            len,
        }
    }

    /// An all-one bitmap of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; word_count(len)],
            len,
        };
        if let Some(last) = b.words.last_mut() {
            *last &= tail_mask(len);
        }
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Set bit `i` to one.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub fn assign(&mut self, i: usize, v: bool) {
        if v {
            self.set(i)
        } else {
            self.clear(i)
        }
    }

    /// Zero every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Population count.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∧ other`, element-wise. Panics on length mismatch.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// `self ∧ ¬other`: bits set here and not in `other`.
    ///
    /// This is the paper's `OndemandMap` derivation (Active XOR
    /// (Active AND Static) ≡ Active AND-NOT Static).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & !b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// `self ⊕ other`, element-wise.
    pub fn xor(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a ^ b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// `self ∨ other`, element-wise.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Iterate over the indices of set bits, ascending.
    ///
    /// Zero words are skipped before any per-bit work: on the sparse
    /// frontiers graph traversal produces (a handful of set bits across
    /// millions of vertices), the filter turns iteration cost from
    /// O(|V|/64 · per-word setup) into a plain word scan.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(|(wi, &w)| {
                let base = wi * WORD_BITS;
                BitIter { word: w }.map(move |b| base + b)
            })
    }

    /// Collect set-bit indices into a vector (the paper's `StaticNodes` /
    /// `OndemandNodes` arrays are exactly this, with `u32` vertex ids).
    pub fn to_indices(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.count_ones());
        v.extend(self.iter_ones().map(|i| i as u32));
        v
    }

    /// Raw word slice (read-only), for bulk hashing or serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterator over the set-bit positions of a single word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

/// A fixed-length bitmap that can be set concurrently from many threads.
///
/// Reads made while writers are active are racy in the usual benign way
/// (Relaxed atomics): the Ascetic kernels only ever *set* bits of the next
/// frontier during a compute phase, and the single-threaded driver snapshots
/// it between phases.
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// An all-zero concurrent bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        AtomicBitmap {
            words: (0..word_count(len)).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically set bit `i`. Returns `true` when this call flipped it
    /// (i.e. the bit was previously clear) — used to count newly activated
    /// vertices exactly once. A bit that is already set skips the locked
    /// RMW; exact because bits are only ever set while a phase runs
    /// (clearing happens between phases — see [`crate::atomics`]).
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if word.load(Ordering::Relaxed) & mask != 0 {
            return false;
        }
        word.fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Test bit `i` (Relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS].load(Ordering::Relaxed) >> (i % WORD_BITS) & 1 == 1
    }

    /// Zero every bit (single-threaded phase only).
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Copy the current contents into a plain [`Bitmap`].
    pub fn snapshot(&self) -> Bitmap {
        Bitmap {
            words: self
                .words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            len: self.len,
        }
    }

    /// Population count (Relaxed; exact only between phases).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Overwrite from a plain bitmap of the same length.
    pub fn load_from(&self, src: &Bitmap) {
        assert_eq!(self.len, src.len, "bitmap length mismatch");
        for (dst, &s) in self.words.iter().zip(&src.words) {
            dst.store(s, Ordering::Relaxed);
        }
    }
}

impl From<&Bitmap> for AtomicBitmap {
    fn from(b: &Bitmap) -> Self {
        let a = AtomicBitmap::new(b.len);
        a.load_from(b);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::parallel_for;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn ones_respects_tail() {
        for len in [1, 63, 64, 65, 127, 128, 129, 1000] {
            let b = Bitmap::ones(len);
            assert_eq!(b.count_ones(), len, "len={len}");
            assert!(b.get(len - 1));
        }
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert!(b.is_all_zero());
        assert_eq!(b.to_indices(), Vec::<u32>::new());
    }

    #[test]
    fn and_xor_andnot_match_per_bit() {
        let n = 200;
        let mut a = Bitmap::new(n);
        let mut b = Bitmap::new(n);
        for i in (0..n).step_by(3) {
            a.set(i);
        }
        for i in (0..n).step_by(5) {
            b.set(i);
        }
        let and = a.and(&b);
        let xor = a.xor(&b);
        let andnot = a.and_not(&b);
        let or = a.or(&b);
        for i in 0..n {
            assert_eq!(and.get(i), a.get(i) && b.get(i));
            assert_eq!(xor.get(i), a.get(i) ^ b.get(i));
            assert_eq!(andnot.get(i), a.get(i) && !b.get(i));
            assert_eq!(or.get(i), a.get(i) || b.get(i));
        }
    }

    #[test]
    fn ondemand_map_identity() {
        // Active XOR (Active AND Static) == Active AND-NOT Static, the
        // identity Figure 4 relies on.
        let n = 500;
        let mut active = Bitmap::new(n);
        let mut stat = Bitmap::new(n);
        for i in (0..n).step_by(2) {
            active.set(i);
        }
        for i in (0..n).step_by(7) {
            stat.set(i);
        }
        let static_map = active.and(&stat);
        let od_via_xor = active.xor(&static_map);
        let od_via_andnot = active.and_not(&stat);
        assert_eq!(od_via_xor, od_via_andnot);
    }

    #[test]
    fn iter_ones_ascending_and_complete() {
        let mut b = Bitmap::new(300);
        let picks = [0usize, 1, 63, 64, 65, 128, 255, 299];
        for &i in &picks {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, picks);
        assert_eq!(
            b.to_indices(),
            picks.iter().map(|&i| i as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn atomic_set_reports_first_setter() {
        let a = AtomicBitmap::new(100);
        assert!(a.set(42));
        assert!(!a.set(42));
        assert!(a.get(42));
        assert_eq!(a.count_ones(), 1);
    }

    #[test]
    fn concurrent_sets_all_land() {
        let n = 100_000;
        let a = AtomicBitmap::new(n);
        parallel_for(n, |i| {
            a.set(i);
        });
        assert_eq!(a.count_ones(), n);
        let snap = a.snapshot();
        assert_eq!(snap.count_ones(), n);
    }

    #[test]
    fn racing_sets_report_each_bit_once() {
        // every bit is proposed by several threads; the `true` results
        // must equal the popcount exactly at every width
        for threads in [1, 2, 8] {
            let n = 5_000;
            let a = AtomicBitmap::new(n);
            a.set(17); // pre-set bits are never reported
            let wins = std::sync::atomic::AtomicUsize::new(0);
            crate::atomics::tests::race(threads, 4 * n, |i| {
                if a.set((i * 7) % n) {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(a.count_ones(), n);
            assert_eq!(wins.load(Ordering::Relaxed), n - 1, "threads {threads}");
        }
    }

    #[test]
    fn snapshot_and_load_roundtrip() {
        let mut b = Bitmap::new(777);
        for i in (0..777).step_by(11) {
            b.set(i);
        }
        let a = AtomicBitmap::new(777);
        a.load_from(&b);
        assert_eq!(a.snapshot(), b);
        a.clear_all();
        assert_eq!(a.count_ones(), 0);
        let a2: AtomicBitmap = (&b).into();
        assert_eq!(a2.snapshot(), b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_panics_on_mismatch() {
        let a = Bitmap::new(10);
        let b = Bitmap::new(11);
        let _ = a.and(&b);
    }
}
