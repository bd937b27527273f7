//! The machine's memory image, shared by both engines.
//!
//! A run addresses words `[1, limit)`, where `limit` is
//! [`ExecLimits::memory_words`](crate::ExecLimits) and word 0 is the
//! null word. The image stores only the prefix `[0, len)` the run has
//! touched: every word at or past `len` is implicitly zero, and
//! `len >= hwm`, where `hwm` is the high-water mark past which nothing
//! has been written. A run starts from the globals image and a resume
//! from a snapshot's `[..hwm]` prefix, so neither pays for the full
//! `limit`-word image. Reads past `len` return 0; writes and `alloca`
//! past `len` grow the image (with `Vec`'s amortized doubling). Bounds are
//! always checked against `limit`, never `len`, so traps and their
//! addresses are exactly those of a zero-filled `limit`-word image.

use crate::exec::{Stop, Trap};
use peppa_ir::Module;

/// Initialized-globals image: the first `globals_words` of a fresh
/// memory, with every global's `init` placed at its layout base.
pub(crate) fn globals_image(module: &Module) -> Vec<u64> {
    let mut image = vec![0u64; module.globals_words() as usize];
    for (g, base) in module.globals.iter().zip(&module.global_layout()) {
        let base = *base as usize;
        image[base..base + g.init.len()].copy_from_slice(&g.init);
    }
    image
}

pub(crate) struct Memory {
    words: Vec<u64>,
    /// High-water mark: `words[hwm..]` has never been written and is
    /// still zero — snapshots only store (and compare) `words[..hwm]`.
    hwm: usize,
    limit: usize,
}

impl Memory {
    /// A memory whose first `image.len()` words are `image` (at least
    /// the null word) and whose high-water mark is the image length.
    pub(crate) fn new(image: Vec<u64>, limit: usize) -> Memory {
        assert!(
            !image.is_empty() && image.len() <= limit,
            "memory image of {} words does not fit memory_words {limit}",
            image.len()
        );
        Memory {
            hwm: image.len(),
            words: image,
            limit,
        }
    }

    /// Whether `addr` is a non-null word inside the stored prefix. One
    /// compare: `len >= 1`, so `len - 1` never wraps.
    #[inline(always)]
    fn stored(&self, addr: u64) -> bool {
        addr.wrapping_sub(1) < self.words.len() as u64 - 1
    }

    #[inline(always)]
    pub(crate) fn read(&self, addr: u64) -> Result<u64, Stop> {
        if self.stored(addr) {
            // SAFETY: `stored` proves `1 <= addr < words.len()`.
            return Ok(unsafe { *self.words.get_unchecked(addr as usize) });
        }
        self.read_unstored(addr)
    }

    #[cold]
    #[inline(never)]
    fn read_unstored(&self, addr: u64) -> Result<u64, Stop> {
        if addr == 0 || addr >= self.limit as u64 {
            return Err(Stop::Trap(Trap::OutOfBounds { addr }));
        }
        Ok(0)
    }

    #[inline(always)]
    pub(crate) fn write(&mut self, addr: u64, value: u64) -> Result<(), Stop> {
        if !self.stored(addr) {
            return self.write_unstored(addr, value);
        }
        // SAFETY: `stored` proves `1 <= addr < words.len()`.
        unsafe { *self.words.get_unchecked_mut(addr as usize) = value };
        if addr as usize >= self.hwm {
            self.hwm = addr as usize + 1;
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn write_unstored(&mut self, addr: u64, value: u64) -> Result<(), Stop> {
        if addr == 0 || addr >= self.limit as u64 {
            return Err(Stop::Trap(Trap::OutOfBounds { addr }));
        }
        self.words.resize(addr as usize + 1, 0);
        self.words[addr as usize] = value;
        self.hwm = self.hwm.max(addr as usize + 1);
        Ok(())
    }

    /// Stack allocation of `words` zeroed words at `base`; returns the
    /// new stack pointer. A negative size or one reaching past `limit`
    /// traps [`Trap::StackOverflow`].
    pub(crate) fn alloca(&mut self, base: u64, words: u64) -> Result<u64, Stop> {
        if (words as i64) < 0 {
            return Err(Stop::Trap(Trap::StackOverflow));
        }
        let end = match base.checked_add(words) {
            Some(end) if end <= self.limit as u64 => end as usize,
            _ => return Err(Stop::Trap(Trap::StackOverflow)),
        };
        if end > self.words.len() {
            self.words.resize(end, 0);
        }
        self.words[base as usize..end].fill(0);
        self.hwm = self.hwm.max(end);
        Ok(end as u64)
    }

    /// Zeroes a popped frame; always inside the stored prefix, since
    /// the stack pointer never exceeds the high-water mark.
    pub(crate) fn clear(&mut self, frame: std::ops::Range<usize>) {
        self.words[frame].fill(0);
    }

    /// The written prefix `[..hwm]`, as a snapshot stores it.
    pub(crate) fn prefix(&self) -> &[u64] {
        &self.words[..self.hwm]
    }

    /// Equality of the zero-extended images: `self` and a snapshot's
    /// `[..hwm]` prefix agree on every word once both are padded with
    /// zeros to `limit`.
    pub(crate) fn matches(&self, other: &[u64]) -> bool {
        let mine = self.prefix();
        let n = mine.len().min(other.len());
        mine[..n] == other[..n]
            && mine[n..].iter().all(|&w| w == 0)
            && other[n..].iter().all(|&w| w == 0)
    }

    /// Equality of the zero-extended images on the words `addrs` only.
    pub(crate) fn matches_on(&self, other: &[u64], addrs: &[u32]) -> bool {
        let word = |img: &[u64], a: u32| img.get(a as usize).copied().unwrap_or(0);
        addrs
            .iter()
            .all(|&a| word(&self.words, a) == word(other, a))
    }

    /// The full `limit`-word image, as [`crate::RunOutput::memory`]
    /// reports it.
    pub(crate) fn into_full(mut self) -> Vec<u64> {
        self.words.resize(self.limit, 0);
        self.words
    }
}
