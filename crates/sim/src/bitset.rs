//! Fixed-size bitset with an ascending set-bit cursor — the membership
//! half of the occupancy index (`Links`' occupied channels, `Nis`'
//! non-empty injection queues).

/// A set of indices in `0..len`.
#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)] }
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Inserts or removes `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, member: bool) {
        let bit = 1u64 << (i % 64);
        if member {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// The smallest member `>= from`, read from the set as it is now — so a
    /// loop that advances `from` past each member it handles sees members
    /// inserted ahead of the cursor mid-pass and never revisits ones behind
    /// it, exactly like a full ascending scan that tests each slot when it
    /// reaches it.
    #[inline]
    pub(crate) fn next_at_or_after(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.words.get(w)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_walks_members_in_ascending_order_across_words() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 130, 199] {
            s.set(i, true);
        }
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = s.next_at_or_after(from) {
            seen.push(i);
            from = i + 1;
        }
        assert_eq!(seen, [0, 63, 64, 130, 199]);
        assert_eq!(s.next_at_or_after(200), None, "one past the end is a clean miss");
        s.set(64, false);
        assert!(!s.contains(64) && s.contains(63));
        assert_eq!(s.next_at_or_after(64), Some(130));
    }

    #[test]
    fn cursor_sees_inserts_ahead_and_ignores_inserts_behind() {
        let mut s = BitSet::new(128);
        s.set(10, true);
        let first = s.next_at_or_after(0).unwrap();
        s.set(5, true); // behind the cursor: not revisited this pass
        s.set(70, true); // ahead of it: seen
        assert_eq!(s.next_at_or_after(first + 1), Some(70));
    }
}
