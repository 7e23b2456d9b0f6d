//! Differential test of the sliced CRC-32 that `.qtrs` records and the
//! durable checkpoint and job files share: it must equal the CRC
//! computed one bit at a time, however its input is split across
//! `update` calls.

use proptest::prelude::*;

use qdi_obs::durable::{crc32, Crc32};

/// The CRC-32 (IEEE, reflected) one bit at a time, straight from the
/// polynomial: the reference the sliced tables must reproduce.
fn bitwise_crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn known_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(bitwise_crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(bitwise_crc32(b"123456789"), 0xCBF4_3926);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whole or split across `update` calls at random points, every
    /// input of 0–4,096 bytes checksums as the bitwise reference does.
    #[test]
    fn sliced_crc32_matches_the_bitwise_reference_across_any_split(
        bytes in prop::collection::vec(any::<u8>(), 0..4097),
        cuts in prop::collection::vec(0usize..4097, 0..6),
    ) {
        let expected = bitwise_crc32(&bytes);
        prop_assert_eq!(crc32(&bytes), expected);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut start = 0;
        for cut in cuts {
            crc.update(&bytes[start..cut]);
            start = cut;
        }
        crc.update(&bytes[start..]);
        prop_assert_eq!(crc.finish(), expected);
    }
}
