//! Seeded input generation. Every choice the benchmark makes about its
//! inputs is a pure function of `(seed, tick or op, node)`, so a seed
//! names one exact input sequence and any prefix of a run can be
//! regenerated without replaying the rest.

/// One splitmix64 finalizer round.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of `(seed, stream, a, b)`; distinct `stream` tags give
/// independent draws from one seed.
fn draw(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ splitmix64(stream)) ^ a) ^ b)
}

/// A draw mapped to `[0, 1)` with 53 bits of resolution.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const CHURN_PICK: u64 = 1;
const CHURN_FACTOR: u64 = 2;
const ORDER: u64 = 3;
const CHIP_ORDER: u64 = 4;

/// Share of nodes that churn each tick, as `1 / CHURN_ONE_IN`.
const CHURN_ONE_IN: u64 = 10;

/// The budget factor `node` reports with at `tick` on the churn
/// workload: `Some(f)` with `f` in `[0.75, 0.95)` for a seeded tenth of
/// the nodes, `None` for the rest (they report their plain problem).
#[must_use]
pub fn churn_factor(seed: u64, tick: u64, node: u64) -> Option<f64> {
    if !draw(seed, CHURN_PICK, tick, node).is_multiple_of(CHURN_ONE_IN) {
        return None;
    }
    Some(0.75 + 0.2 * unit(draw(seed, CHURN_FACTOR, tick, node)))
}

/// A seeded permutation of `0..n` (Fisher–Yates over seeded draws).
#[must_use]
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (draw(seed, ORDER, i as u64, 0) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Whether op `op` of the full-CMP workload runs the 64-way chip before
/// the 8-way one.
#[must_use]
pub fn wide_chip_first(seed: u64, op: u64) -> bool {
    draw(seed, CHIP_ORDER, op, 0) & 1 == 1
}

/// FNV-1a fold of one 64-bit word into a running digest.
#[must_use]
pub(crate) fn fold(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis: the digest of nothing.
pub(crate) const DIGEST_START: u64 = 0xCBF2_9CE4_8422_2325;
