//! Test configuration and the deterministic RNG driving case generation.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Per-test configuration (subset of proptest's; only `cases` is used).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Shrink-iteration cap, mirroring real proptest's field; this
    /// stand-in does not shrink, so the value is accepted and ignored.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 1024,
        }
    }
}

/// Deterministic RNG seeded from the test's full path, so every run of a
/// given test explores the same inputs: the workspace's [`SmallRng`]
/// seeded with the path's FNV-1a hash.
#[derive(Debug, Clone)]
pub struct TestRng {
    rng: SmallRng,
}

impl TestRng {
    /// Seed from an arbitrary name (FNV-1a hash, then [`SmallRng`]'s
    /// SplitMix64 expansion).
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            rng: SmallRng::seed_from_u64(h),
        }
    }

    /// Next uniform 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn int_in(&mut self, lo: i128, hi: i128) -> i128 {
        self.rng.random_range(lo..=hi)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.rng.random()
    }
}

#[cfg(test)]
mod tests {
    use super::TestRng;

    /// The draws of the generator this one replaced, so every property
    /// suite keeps drawing the same cases.
    #[test]
    fn draws_are_pinned() {
        let mut rng = TestRng::deterministic("proptest::pinned");
        let words: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        let pinned: [u64; 64] = [
            0xf2a7_f9aa_43f2_6d01,
            0x45f2_5eea_f138_90f0,
            0x54bf_f5ab_d3e3_721f,
            0xfc2c_ab8d_629d_0f8a,
            0xae20_27d5_23f1_14a2,
            0xfb5f_b660_200b_a79d,
            0x3a36_a783_bb79_a087,
            0x87d6_bd6d_e79e_6d90,
            0x6c76_522a_1787_e002,
            0x57b0_5293_32e4_62cf,
            0xbfb5_91ac_b9da_a4f2,
            0x8a74_6a1f_b426_76d0,
            0x2e16_fe90_4897_e10a,
            0xd24b_fb83_f622_f144,
            0x7580_f287_b18b_5e7b,
            0x60a0_5749_af4c_0d5a,
            0xfcec_63fe_5f59_9da1,
            0xa66a_5ba8_116a_f921,
            0x47e9_b15b_a495_9f6e,
            0xf2f8_7f13_5bb6_8dec,
            0xbda5_2174_f159_a055,
            0xf2e2_103b_9bb9_449d,
            0x5f18_b571_6043_34a4,
            0x0963_1f46_d1c8_f96e,
            0x4f05_6f86_f311_0270,
            0x1835_4977_d555_892e,
            0x0bca_5eb1_b5ce_cefa,
            0x66d4_e027_f772_e799,
            0xc730_d991_6ae5_7ee3,
            0x2899_10ae_b6e5_1fb1,
            0x7036_d376_1168_a859,
            0x825f_cc4d_67d6_0c2f,
            0x4015_7e30_78c6_f623,
            0xcf58_4051_0408_d872,
            0x5f13_842a_5c19_abf1,
            0x0cf0_4cb5_860c_9689,
            0x1525_dc06_7924_fd00,
            0x52f1_fd9a_30b9_7f3e,
            0x10fd_7f52_21a1_47d1,
            0xdfa3_59e6_4a95_2ef4,
            0x7066_1b94_c23b_5476,
            0x871e_570c_860a_1914,
            0xfcda_a9fa_621e_0f9a,
            0x07ab_9cd5_ea6e_84b3,
            0x5006_f4df_4cdb_beec,
            0xc814_4024_7897_3d61,
            0x0104_a386_da41_a3c9,
            0x152d_c980_4ffe_ee57,
            0x8911_4d1d_9e59_5e05,
            0x7d96_7db8_5b83_f5a8,
            0xc63b_4723_0a0f_5852,
            0x6372_5752_cc99_ef19,
            0x7b18_4a19_4d0d_1864,
            0xf629_6d74_4c7a_5c64,
            0x2d01_74bf_fd7c_be05,
            0x9631_71f9_1ea8_4d53,
            0x53b7_cd4e_886d_b67a,
            0xc4c9_49e3_662f_816d,
            0xef0f_7797_ede8_3cd9,
            0x68ac_de70_bb96_51d4,
            0xd50e_e282_309d_8ca6,
            0x51e7_4c48_3ccd_c9ef,
            0x7386_5833_9f5c_bbb0,
            0x4d19_c9e4_5271_c397,
        ];
        assert_eq!(words, pinned);
        let ranges = [
            (0, 0),
            (0, 1),
            (-5, 5),
            (0, 9),
            (1, 100),
            (-2048, 2047),
            (0, i128::from(u64::MAX)),
            (i128::from(i64::MIN), i128::from(i64::MAX)),
        ];
        let ints: Vec<i128> = (0..2)
            .flat_map(|_| ranges)
            .map(|(lo, hi)| rng.int_in(lo, hi))
            .collect();
        let pinned_ints: [i128; 16] = [
            0,
            1,
            3,
            4,
            70,
            702,
            112291354058894183,
            -4138677524961874483,
            0,
            1,
            3,
            9,
            9,
            933,
            773772289364761704,
            -454831873142679042,
        ];
        assert_eq!(ints, pinned_ints);
        let floats: Vec<u64> = (0..4).map(|_| rng.f64().to_bits()).collect();
        assert_eq!(
            floats,
            [
                0x3fb2_55d6_5e31_1c88,
                0x3fd8_a70d_dc1c_02e0,
                0x3fd4_0d9f_a01a_af60,
                0x3fde_1fc7_6007_ed1c
            ]
        );
    }
}
