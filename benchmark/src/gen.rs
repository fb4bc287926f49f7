//! Seeded input generation: random streams, Zipf popularity, Poisson
//! arrival gaps, and self-describing payloads.
//!
//! Everything a run sends is a function of `--seed`; the cell under test
//! receives only the generated requests.

/// splitmix64: one `u64` of state, full period, and any `(seed, stream)`
/// pair gives an independent sequence — each session, phase and probe
/// draws from its own stream so adding a consumer never shifts another.
#[derive(Debug, Clone)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream.wrapping_mul(GOLDEN) ^ 0x5EED)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given mean — successive gaps make a
    /// Poisson arrival process.
    pub fn exp_gap_ns(&mut self, mean_ns: f64) -> u64 {
        // 1 - unit() is in (0, 1], so the logarithm is finite.
        (-(1.0 - self.unit()).ln() * mean_ns) as u64
    }
}

/// Zipf(s = 1) popularity over `n` items: item 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Who wrote a block and in which order: the identity every payload
/// carries in its first word, so a reader can tell from the bytes alone
/// which write it is looking at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    pub writer: u8,
    pub file: u16,
    pub block: u8,
    pub seq: u32,
}

/// The writer id of the content laid down at file creation.
pub const INIT_WRITER: u8 = 0xFF;

impl Tag {
    fn pack(self) -> u64 {
        (self.writer as u64) << 56
            | (self.file as u64) << 40
            | (self.block as u64) << 32
            | self.seq as u64
    }

    fn unpack(word: u64) -> Tag {
        Tag {
            writer: (word >> 56) as u8,
            file: (word >> 40) as u16,
            block: (word >> 32) as u8,
            seq: word as u32,
        }
    }
}

/// Fills `buf` (a multiple of 8 bytes) with the payload for `tag`: the
/// packed tag, then words derived from it and the seed, so a torn or
/// misplaced block cannot pass for a whole one.
pub fn fill_payload(buf: &mut [u8], tag: Tag, seed: u64) {
    debug_assert!(buf.len().is_multiple_of(8) && buf.len() >= 16);
    let head = tag.pack();
    let base = mix64(head ^ seed);
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        let w = if i == 0 { head } else { base.wrapping_add((i as u64).wrapping_mul(GOLDEN)) };
        word.copy_from_slice(&w.to_le_bytes());
    }
}

pub fn make_payload(len: usize, tag: Tag, seed: u64) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill_payload(&mut buf, tag, seed);
    buf
}

/// Reads the tag back out of a payload and checks every following word
/// against it. `None` if the bytes are not a whole payload of `len`.
pub fn check_payload(data: &[u8], len: usize, seed: u64) -> Option<Tag> {
    if data.len() != len || !len.is_multiple_of(8) || len < 16 {
        return None;
    }
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    let head = word(&data[..8]);
    let base = mix64(head ^ seed);
    let whole = data
        .chunks_exact(8)
        .enumerate()
        .skip(1)
        .all(|(i, c)| word(c) == base.wrapping_add((i as u64).wrapping_mul(GOLDEN)));
    whole.then(|| Tag::unpack(head))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(7, 2), |r, _| Some(r.next_u64())).collect();
        let d: Vec<u64> = (0..8).scan(Rng::new(8, 1), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "streams of one seed must differ");
        assert_ne!(a, d, "seeds must differ");
        let mut r = Rng::new(1, 1);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(64);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut counts = [0usize; 64];
        for i in draw(5) {
            counts[i] += 1;
        }
        // Zipf(1) over 64: rank 0 carries 1/H(64) ≈ 21 % and twice rank 1.
        let share0 = counts[0] as f64 / 20_000.0;
        assert!((0.19..0.23).contains(&share0), "{share0}");
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.7..2.3).contains(&ratio), "{ratio}");
        assert!(counts[63] > 0 && counts[63] < counts[0] / 20);
    }

    #[test]
    fn poisson_gaps_are_deterministic_with_the_asked_mean() {
        let gaps = |seed| {
            let mut rng = Rng::new(seed, 9);
            (0..50_000).map(|_| rng.exp_gap_ns(10_000.0)).collect::<Vec<_>>()
        };
        assert_eq!(gaps(1), gaps(1));
        assert_ne!(gaps(1), gaps(2));
        let g = gaps(1);
        let mean = g.iter().sum::<u64>() as f64 / g.len() as f64;
        assert!((9_700.0..10_300.0).contains(&mean), "{mean}");
        // Exponential: P(gap > mean) = 1/e.
        let above = g.iter().filter(|&&x| x > 10_000).count() as f64 / g.len() as f64;
        assert!((0.35..0.39).contains(&above), "{above}");
    }

    #[test]
    fn payloads_describe_themselves_and_detect_damage() {
        let tag = Tag { writer: 1, file: 513, block: 3, seq: 70_000 };
        let buf = make_payload(512, tag, 42);
        assert_eq!(check_payload(&buf, 512, 42), Some(tag));
        assert_eq!(check_payload(&buf, 512, 43), None, "the seed is part of the content");
        assert_eq!(check_payload(&buf[..504], 512, 42), None, "short read");
        let mut torn = buf.clone();
        let other = make_payload(512, Tag { seq: 70_001, ..tag }, 42);
        torn[256..].copy_from_slice(&other[256..]);
        assert_eq!(check_payload(&torn, 512, 42), None, "half of one write, half of the next");
        let mut flipped = buf;
        flipped[300] ^= 1;
        assert_eq!(check_payload(&flipped, 512, 42), None);
    }
}
