//! The workspace's one hash and seed module: FNV-1a fingerprints (model
//! states, checkpoint identities, cache shards, campaign names) and
//! SplitMix64 seeding derived from *identity* (grid coordinates, node
//! index, injection id), never from position or thread scheduling.

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// SplitMix64 increment (the "golden gamma").
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds `bytes` into an FNV-1a running state (start from [`FNV_OFFSET`]).
#[inline]
#[must_use]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: [`mix`] after adding the golden gamma.
#[inline]
#[must_use]
pub fn splitmix64(z: u64) -> u64 {
    mix(z.wrapping_add(GAMMA))
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of `z`, so every value
/// is exactly representable.
#[inline]
#[must_use]
pub fn unit_f64(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An identity-seeded SplitMix64 draw stream: `(seed, tag)` names the
/// stream, so its draws never depend on which other streams ran first.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    state: u64,
}

impl Stream {
    /// The stream of entity `tag` under run seed `seed`.
    #[inline]
    #[must_use]
    pub fn new(seed: u64, tag: u64) -> Self {
        Stream {
            state: mix(seed ^ mix(tag)),
        }
    }

    /// The next 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Exponential draw with the given rate (mean `1 / rate`).
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_match_their_reference_values() {
        // FNV-1a 64 test vectors; folding is incremental.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_F739_67E8
        );
        // The reference SplitMix64 generator seeded with 0.
        let mut s = Stream { state: 0 };
        assert_eq!(s.next_u64(), splitmix64(0));
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        // Multiplying by 2^-53 is the same value as dividing by 2^53.
        let z = 0x0123_4567_89AB_CDEF;
        assert_eq!(unit_f64(z), (z >> 11) as f64 / (1u64 << 53) as f64);
        assert!(unit_f64(0) == 0.0 && unit_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn streams_are_named_by_identity() {
        let (mut a, mut b) = (Stream::new(7, 1), Stream::new(7, 1));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), Stream::new(7, 2).next_u64());
        assert!((0.0..1.0).contains(&b.next_f64()) && b.exp(2.0) > 0.0);
    }
}
