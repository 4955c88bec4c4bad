//! A packed validity bitmap.
//!
//! Columns carry an optional [`Bitmap`] marking which slots are valid
//! (non-NULL). `None` means "all valid", which keeps the common
//! fully-dense case allocation-free — the same trick Arrow and Spark's
//! columnar format use.

use serde::{Deserialize, Serialize};

/// A growable bitmap packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Bitmap {
        let word = if value { u64::MAX } else { 0 };
        let mut bm = Bitmap {
            words: vec![word; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Append a bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Iterator over bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Clear any bits beyond `len` in the last word (keeps `count_set`
    /// and equality honest after `filled(_, true)`).
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_true_masks_tail() {
        let bm = Bitmap::filled(70, true);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_set(), 70);
    }

    #[test]
    fn push_get_set_round_trip() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        bm.set(1, true);
        assert!(bm.get(1));
        bm.set(0, false);
        assert!(!bm.get(0));
    }

    #[test]
    fn and_combines() {
        let a: Bitmap = [true, true, false, false].into_iter().collect();
        let b: Bitmap = [true, false, true, false].into_iter().collect();
        let and: Vec<bool> = a.and(&b).iter().collect();
        assert_eq!(and, vec![true, false, false, false]);
    }

    #[test]
    fn count_set_counts() {
        let bm: Bitmap = (0..130).map(|i| i % 2 == 0).collect();
        assert_eq!(bm.count_set(), 65);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::filled(3, true).get(3);
    }
}
