//! The workspace's content fingerprint.
//!
//! [`Fingerprinter`] mixes a sequence of `u64` words — float cells as
//! their raw IEEE-754 bit patterns — into one 64-bit fingerprint.
//! Fingerprints are for hashing only: equal sequences always fingerprint
//! equal, and whatever compares by fingerprint still confirms a match on
//! the content itself, so a collision costs a comparison, never a false
//! match. A Power/BIPS matrix pair fingerprints its cells once when it is
//! built, the decision cache's problem keys mix that fingerprint with
//! their other words (both in `gpm-core`), and the wire decoder's matrix
//! intern table picks its sets with it.

/// Multiplier of the fingerprint's word mix (the 64-bit golden ratio).
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Independent mixing lanes, so consecutive words do not serialize on one
/// multiply chain.
const LANES: usize = 4;

/// One multiply–rotate step of the fingerprint mix.
#[inline]
fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(MIX_MUL).rotate_left(29)
}

/// A streaming 64-bit fingerprint of a word sequence: word `i` is mixed
/// into lane `i % 4`, the lanes are folded in order together with the
/// length, and the result is finished with [`crate::splitmix64`]. Words
/// pushed one at a time or in runs, in any split, finish to the same
/// value.
///
/// # Examples
///
/// ```
/// use gpm_types::Fingerprinter;
///
/// let mut streamed = Fingerprinter::new();
/// streamed.push(2);
/// streamed.push_values(&[17.15, 1.9]);
/// let mut whole = Fingerprinter::new();
/// whole.push_words(&[2, 17.15f64.to_bits(), 1.9f64.to_bits()]);
/// assert_eq!(streamed.finish(), whole.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lanes: [u64; LANES],
    len: usize,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// The fingerprint state of the empty sequence.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lanes: [0, 1, 2, 3],
            len: 0,
        }
    }

    /// Appends one word.
    #[inline]
    pub fn push(&mut self, word: u64) {
        let lane = &mut self.lanes[self.len % LANES];
        *lane = mix(*lane, word);
        self.len += 1;
    }

    /// Appends a run of words.
    pub fn push_words(&mut self, words: &[u64]) {
        self.push_run(words, |word| word);
    }

    /// Appends a run of float cells, each as its bit pattern.
    pub fn push_values(&mut self, values: &[f64]) {
        self.push_run(values, f64::to_bits);
    }

    /// Pushes `cells` one at a time up to a lane boundary, then four at a
    /// time so the lanes' multiply chains run side by side.
    fn push_run<T: Copy>(&mut self, cells: &[T], bits: impl Fn(T) -> u64) {
        let lead = ((LANES - self.len % LANES) % LANES).min(cells.len());
        let (head, body) = cells.split_at(lead);
        for &cell in head {
            self.push(bits(cell));
        }
        let mut chunks = body.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (lane, &cell) in self.lanes.iter_mut().zip(chunk) {
                *lane = mix(*lane, bits(cell));
            }
        }
        self.len += body.len() - chunks.remainder().len();
        for &cell in chunks.remainder() {
            self.push(bits(cell));
        }
    }

    /// The fingerprint of everything pushed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let folded = self
            .lanes
            .iter()
            .fold(self.len as u64, |acc, &lane| mix(acc, lane));
        crate::splitmix64(folded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint of a whole word sequence.
    fn fingerprint_of(words: &[u64]) -> u64 {
        let mut fingerprint = Fingerprinter::new();
        fingerprint.push_words(words);
        fingerprint.finish()
    }

    #[test]
    fn position_length_and_value_all_move_the_fingerprint() {
        let fp = fingerprint_of;
        assert_eq!(fp(&[1, 2, 3, 4, 5]), fp(&[1, 2, 3, 4, 5]));
        assert_ne!(fp(&[1, 2]), fp(&[2, 1]));
        assert_ne!(fp(&[]), fp(&[0]));
        assert_ne!(fp(&[0, 0, 0, 0]), fp(&[0, 0, 0, 0, 0]));
        assert_ne!(fp(&[1, 0, 0, 0, 0]), fp(&[0, 0, 0, 0, 1]));
        // Cells are their bit patterns: -0.0 and 0.0 stay distinct.
        assert_ne!(fp(&[0.0f64.to_bits()]), fp(&[(-0.0f64).to_bits()]));
    }

    #[test]
    fn streamed_fingerprint_is_split_independent() {
        let words: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(MIX_MUL)).collect();
        let whole = fingerprint_of(&words);
        for split in 0..words.len() {
            let mut one_by_one = Fingerprinter::new();
            for &word in &words[..split] {
                one_by_one.push(word);
            }
            one_by_one.push_words(&words[split..]);
            assert_eq!(one_by_one.finish(), whole, "split at {split}");
        }
        let values = [0.5, -0.0, 1.5, f64::MIN_POSITIVE / 2.0, 3.0];
        let mut cells = Fingerprinter::new();
        cells.push(9);
        cells.push_values(&values);
        let mut bits = vec![9];
        bits.extend(values.map(f64::to_bits));
        assert_eq!(cells.finish(), fingerprint_of(&bits));
    }
}
