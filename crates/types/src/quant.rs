//! Canonical keys for memoizing mode decisions.
//!
//! The fleet-mode decision cache (`gpm-core`) keys each solved interval on
//! the exact inputs of the MaxBIPS argmax: the per-core Power/BIPS
//! prediction matrix, the current mode vector, the budget and the interval
//! parameters. Every float input becomes one `u64` cell, its raw IEEE-754
//! bit pattern, so two inputs share a key only when they are
//! bit-identical, and a cache hit returns exactly what a fresh solve of
//! the same inputs would have returned: the solver is a pure function of
//! its arguments.
//!
//! The key itself ([`QuantizedKey`]) is the canonical word sequence —
//! cells in a fixed row-major order, prefixed with the shape — plus a
//! 64-bit fingerprint of those words computed once when the key is built.
//! Hashing feeds only the fingerprint; equality still compares every word,
//! so a fingerprint collision costs one extra comparison, never a false
//! match. [`QuantizedKeyBuilder`] keeps construction allocation-free (its
//! buffer is reusable) and the canonical order explicit at the call site.
//! [`Fingerprinter`] computes the same fingerprint without a buffer, for
//! content hashes that never become keys.

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

/// The fingerprint of a word sequence: word `i` is mixed into lane
/// `i % 4`, the lanes are folded in order together with the length, and
/// the result is finished with [`crate::splitmix64`].
fn fingerprint_of(words: &[u64]) -> u64 {
    let mut fingerprint = Fingerprinter::new();
    fingerprint.push_words(words);
    fingerprint.finish()
}

/// The streaming form of a [`QuantizedKey`]'s fingerprint: words pushed
/// one at a time or in runs, in any split, finish to the same value as
/// the key fingerprint of the whole sequence.
///
/// One mixer serves decision-cache keys, the fingerprint a Power/BIPS
/// matrix pair carries from construction, and the fleet engine's
/// within-tick dedup probe.
///
/// # Examples
///
/// ```
/// use gpm_types::{Fingerprinter, QuantizedKeyBuilder};
///
/// let mut streamed = Fingerprinter::new();
/// streamed.push(2);
/// streamed.push_values(&[17.15, 1.9]);
/// let mut builder = QuantizedKeyBuilder::with_capacity(3);
/// builder.push_word(2);
/// builder.push_values(&[17.15, 1.9]);
/// assert_eq!(streamed.finish(), builder.to_key().fingerprint());
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

/// A canonicalized, hashable decision-cache key: the cells of one
/// decision problem in a fixed order, plus their fingerprint.
///
/// Two keys are equal iff they were built from the same shape and the
/// same cells in the same order: equality compares the
/// fingerprints first and then every word. [`Hash`] feeds only the
/// fingerprint, so hashing a key costs one `write_u64` whatever its
/// length. The key serializes as `{"words":[...]}` alone; deserializing
/// recomputes the fingerprint.
#[derive(Debug, Clone)]
pub struct QuantizedKey {
    fingerprint: u64,
    words: Vec<u64>,
}

impl QuantizedKey {
    fn from_words(words: Vec<u64>) -> Self {
        Self {
            fingerprint: fingerprint_of(&words),
            words,
        }
    }

    /// The canonical word sequence (shape prefix plus cells).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The 64-bit fingerprint of [`words`](Self::words), computed once
    /// when the key was built.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Default for QuantizedKey {
    /// The empty word sequence.
    fn default() -> Self {
        Self::from_words(Vec::new())
    }
}

impl PartialEq for QuantizedKey {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint && self.words == other.words
    }
}

impl Eq for QuantizedKey {}

impl std::hash::Hash for QuantizedKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

impl serde::Serialize for QuantizedKey {
    fn to_value(&self) -> serde::json::Value {
        let words = serde::Serialize::to_value(&self.words);
        serde::json::Value::Object(vec![("words".to_owned(), words)])
    }
}

impl serde::Deserialize for QuantizedKey {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::json::Error> {
        <Vec<u64> as serde::Deserialize>::from_value(value.field("words")?).map(Self::from_words)
    }
}

/// Builds a [`QuantizedKey`] cell by cell in canonical order.
///
/// The builder's buffer is reusable: [`clear`](Self::clear) it, push the
/// next problem's cells, and probe with [`fingerprint`](Self::fingerprint)
/// and [`words`](Self::words) before paying for a key with
/// [`to_key`](Self::to_key) — only problems not seen before need one.
///
/// # Examples
///
/// ```
/// use gpm_types::QuantizedKeyBuilder;
///
/// let mut builder = QuantizedKeyBuilder::with_capacity(3);
/// builder.push_word(2); // shape prefix: core count
/// builder.push_values(&[17.15, 1.9]);
/// let key = builder.to_key();
/// assert_eq!(key.words().len(), 3);
/// assert_eq!(key, builder.finish());
/// ```
#[derive(Debug, Default)]
pub struct QuantizedKeyBuilder {
    words: Vec<u64>,
}

impl QuantizedKeyBuilder {
    /// A builder expecting about `words` cells (exact capacity is a hint).
    #[must_use]
    pub fn with_capacity(words: usize) -> Self {
        Self {
            words: Vec::with_capacity(words),
        }
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Appends a raw word (shape prefixes, mode indices, counts).
    pub fn push_word(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Appends one float cell: its bit pattern.
    pub fn push_value(&mut self, value: f64) {
        self.words.push(value.to_bits());
    }

    /// Appends a run of float cells, each as its bit pattern.
    pub fn push_values(&mut self, values: &[f64]) {
        self.words
            .extend(values.iter().map(|value| value.to_bits()));
    }

    /// The words pushed so far.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The fingerprint the finished key will carry.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.words)
    }

    /// A key for the words pushed so far, leaving the builder intact.
    #[must_use]
    pub fn to_key(&self) -> QuantizedKey {
        QuantizedKey::from_words(self.words.clone())
    }

    /// Finalizes the key.
    #[must_use]
    pub fn finish(self) -> QuantizedKey {
        QuantizedKey::from_words(self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_compare_by_word_sequence() {
        let build = |cells: &[f64]| {
            let mut b = QuantizedKeyBuilder::with_capacity(cells.len() + 1);
            b.push_word(cells.len() as u64);
            for &c in cells {
                b.push_value(c);
            }
            b.finish()
        };
        assert_eq!(build(&[1.0, 2.0]), build(&[1.0, 2.0]));
        assert_ne!(build(&[1.0, 2.0]), build(&[2.0, 1.0]));
        // Shape prefix keeps a 2-cell key distinct from a 3-cell key that
        // happens to share a word prefix.
        assert_ne!(
            build(&[1.0, 2.0]).words().first(),
            build(&[1.0, 2.0, 3.0]).words().first()
        );
        // Cells are their bit patterns: -0.0 and 0.0 stay distinct, and
        // near-identical values never merge.
        assert_eq!(build(&[1.5]).words()[1], 1.5f64.to_bits());
        assert_ne!(build(&[0.0]), build(&[-0.0]));
        assert_ne!(build(&[10.0]), build(&[10.0 + f64::EPSILON * 16.0]));
    }

    #[test]
    fn fingerprint_is_a_pure_function_of_the_words() {
        let mut builder = QuantizedKeyBuilder::default();
        builder.push_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let key = builder.to_key();
        assert_eq!(key.fingerprint, fingerprint_of(key.words()));
        assert_eq!(builder.fingerprint(), key.fingerprint);
        builder.clear();
        builder.push_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(builder.finish(), key);
        // Position, length and value all move the fingerprint.
        let fp = |words: &[u64]| fingerprint_of(words);
        assert_ne!(fp(&[1, 2]), fp(&[2, 1]));
        assert_ne!(fp(&[]), fp(&[0]));
        assert_ne!(fp(&[0, 0, 0, 0]), fp(&[0, 0, 0, 0, 0]));
        assert_ne!(fp(&[1, 0, 0, 0, 0]), fp(&[0, 0, 0, 0, 1]));
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

    #[test]
    fn equality_compares_every_word_past_a_shared_fingerprint() {
        let a = QuantizedKey {
            fingerprint: 7,
            words: vec![1, 2, 3],
        };
        let b = QuantizedKey {
            fingerprint: 7,
            words: vec![1, 2, 4],
        };
        assert_ne!(a, b, "a fingerprint collision must not be a match");
        assert_eq!(a, a.clone());
    }

    #[test]
    fn serializes_as_words_and_recomputes_the_fingerprint() {
        let mut builder = QuantizedKeyBuilder::default();
        builder.push_word(3);
        builder.push_values(&[0.5, 1.5]);
        let key = builder.finish();
        let value = serde::Serialize::to_value(&key);
        let serde::json::Value::Object(fields) = &value else {
            panic!("a key serializes as an object");
        };
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].0, "words");
        let back = <QuantizedKey as serde::Deserialize>::from_value(&value).expect("roundtrips");
        assert_eq!(back, key);
        assert_eq!(back.fingerprint, key.fingerprint);
    }
}
