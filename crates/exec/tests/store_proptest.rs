//! Property tests of the `.qtrs` store: write → read round trips are
//! identical (samples and metadata), for every encoding combination;
//! the written bytes equal an independent encoding of the documented
//! layout; and a reader that reuses its record buffer classifies every
//! record on its own.

use proptest::prelude::*;

use qdi_analog::Trace;
use qdi_exec::store::{
    SampleEncoding, StoreError, StoreOptions, StoreReader, StoreWriter, HEADER_LEN,
};

fn tmp(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qdi_exec_prop_{}_{tag}.qtrs", std::process::id()))
}

/// Deterministic pseudo-random sample from test-case parameters; values
/// span several orders of magnitude including negatives and exact zeros.
fn sample_value(seed: u64, record: usize, i: usize) -> f64 {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((record as u64) << 32 | i as u64);
    let z = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if z.is_multiple_of(17) {
        0.0
    } else {
        ((z % 20_011) as f64 - 10_000.0) * 1e-3
    }
}

/// `(input, samples)` per record, in store order.
type Records = Vec<(Vec<u8>, Vec<f64>)>;

/// CRC-32 (IEEE, reflected) one bit at a time, independent of the
/// store's table-driven checksum.
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

/// A `.qtrs` file encoded by hand from the layout in the `store` module
/// docs: 32-byte header, then per record `input_len | sample_count |
/// input | samples | crc32`, samples as little-endian IEEE-754 bits,
/// XORed with their predecessor's bits under the delta flag.
fn reference_store(
    t0: u64,
    dt: u64,
    opts: StoreOptions,
    records: &[(Vec<u8>, Vec<f64>)],
) -> Vec<u8> {
    let f32_flag = u16::from(opts.encoding == SampleEncoding::F32);
    let flags = f32_flag | u16::from(opts.delta) << 1;
    let mut out = b"QTRS".to_vec();
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&t0.to_le_bytes());
    out.extend_from_slice(&dt.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    for (input, samples) in records {
        let mut body = Vec::new();
        body.extend_from_slice(&(input.len() as u32).to_le_bytes());
        body.extend_from_slice(&(samples.len() as u32).to_le_bytes());
        body.extend_from_slice(input);
        let (mut prev64, mut prev32) = (0u64, 0u32);
        for &s in samples {
            match opts.encoding {
                SampleEncoding::F64 => {
                    let bits = s.to_bits();
                    let stored = if opts.delta { bits ^ prev64 } else { bits };
                    body.extend_from_slice(&stored.to_le_bytes());
                    prev64 = bits;
                }
                SampleEncoding::F32 => {
                    let bits = (s as f32).to_bits();
                    let stored = if opts.delta { bits ^ prev32 } else { bits };
                    body.extend_from_slice(&stored.to_le_bytes());
                    prev32 = bits;
                }
            }
        }
        out.extend_from_slice(&body);
        out.extend_from_slice(&bitwise_crc32(&body).to_le_bytes());
    }
    out
}

/// `(input, samples)` records whose lengths come from `lens`.
fn records_of(seed: u64, lens: &[(usize, usize)]) -> Records {
    lens.iter()
        .enumerate()
        .map(|(r, &(input_len, len))| {
            let input = (0..input_len)
                .map(|i| (seed as usize + r * 7 + i) as u8)
                .collect();
            (input, (0..len).map(|i| sample_value(seed, r, i)).collect())
        })
        .collect()
}

fn write_records(
    path: &std::path::Path,
    (t0, dt): (u64, u64),
    opts: StoreOptions,
    records: &[(Vec<u8>, Vec<f64>)],
) {
    let mut writer = StoreWriter::create(path, t0, dt, opts).expect("create");
    for (input, samples) in records {
        writer.append_samples(input, samples).expect("append");
    }
    writer.finish().expect("finish");
}

fn read_all(path: &std::path::Path) -> Result<Records, StoreError> {
    let mut reader = StoreReader::open(path)?;
    let mut out = Vec::new();
    while let Some((input, trace)) = reader.next_record()? {
        out.push((input, trace.samples().to_vec()));
    }
    Ok(out)
}

/// Byte offset of record `index` in a store of `records` f64 records.
fn record_offset(records: &[(Vec<u8>, Vec<f64>)], index: usize) -> usize {
    HEADER_LEN as usize
        + records[..index]
            .iter()
            .map(|(input, samples)| 8 + input.len() + samples.len() * 8 + 4)
            .sum::<usize>()
}

#[test]
fn a_short_record_after_a_long_one_reads_back_exactly() {
    let path = tmp(0x5407);
    let records = records_of(3, &[(40, 700), (1, 3), (0, 0), (5, 129), (2, 700)]);
    for opts in [StoreOptions::new(), StoreOptions::compact()] {
        write_records(&path, (0, 10), opts, &records);
        let back = read_all(&path).expect("clean store");
        assert_eq!(back.len(), records.len());
        for ((input, samples), (got_input, got)) in records.iter().zip(&back) {
            assert_eq!(got_input, input);
            let narrowed: Vec<f64> = match opts.encoding {
                SampleEncoding::F64 => samples.clone(),
                SampleEncoding::F32 => samples.iter().map(|&s| f64::from(s as f32)).collect(),
            };
            assert_eq!(got, &narrowed);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_bad_crc_after_a_long_good_record_names_its_own_record() {
    let path = tmp(0xBADC);
    let records = records_of(4, &[(2, 900), (2, 900), (2, 16)]);
    write_records(&path, (0, 10), StoreOptions::new(), &records);
    let mut bytes = std::fs::read(&path).expect("read");
    // One bit of record 2's last sample.
    let at = record_offset(&records, 3) - 4 - 1;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write");
    let mut reader = StoreReader::open(&path).expect("open");
    assert!(reader.next_record().expect("record 0").is_some());
    assert!(reader.next_record().expect("record 1").is_some());
    assert_eq!(
        reader.next_record().expect_err("record 2 is corrupt"),
        StoreError::BadCrc { record: 2 }
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_length_past_the_end_after_a_long_record_is_truncated_not_allocated() {
    let path = tmp(0x1E47);
    let records = records_of(5, &[(2, 900), (2, 8)]);
    write_records(&path, (0, 10), StoreOptions::new(), &records);
    let mut bytes = std::fs::read(&path).expect("read");
    // Record 1 now claims u32::MAX samples: a buffer sized from that
    // (~34 GB) would abort this process instead of returning an error.
    let at = record_offset(&records, 1);
    bytes[at + 4..at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    let mut reader = StoreReader::open(&path).expect("open");
    assert!(reader.next_record().expect("record 0").is_some());
    assert_eq!(
        reader
            .next_record()
            .expect_err("record 1 overruns the file"),
        StoreError::Truncated { offset: at as u64 }
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_continues_a_store_in_the_reference_layout() {
    let path = tmp(0x2E5E);
    let records = records_of(6, &[(3, 200), (1, 17), (4, 64), (2, 5)]);
    let opts = StoreOptions::compact();
    let mut writer = StoreWriter::create(&path, 0, 10, opts).expect("create");
    let mut checkpoint = 0;
    for (i, (input, samples)) in records[..3].iter().enumerate() {
        let end = writer.append_samples(input, samples).expect("append");
        if i == 1 {
            checkpoint = end;
        }
    }
    writer.finish().expect("finish");
    // Record 2 was never acknowledged: resume drops it and appends 3.
    let mut writer = StoreWriter::resume(&path, checkpoint).expect("resume");
    assert_eq!(writer.records(), 2);
    writer
        .append_samples(&records[3].0, &records[3].1)
        .expect("append");
    writer.finish().expect("finish");
    let expected = [records[0].clone(), records[1].clone(), records[3].clone()];
    assert_eq!(
        std::fs::read(&path).expect("read"),
        reference_store(0, 10, opts, &expected)
    );
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every encoding writes exactly the bytes of the documented layout,
    /// CRCs included: a writer and reader that drifted together would
    /// still round-trip, but fail here.
    #[test]
    fn writer_bytes_match_the_reference_encoding(
        seed in any::<u64>(),
        lens in prop::collection::vec((0usize..40, 0usize..100), 0..8),
        t0 in 0u64..1000,
        dt in 1u64..50,
    ) {
        let records = records_of(seed, &lens);
        for encoding in [SampleEncoding::F64, SampleEncoding::F32] {
            for delta in [false, true] {
                let opts = StoreOptions { encoding, delta };
                let path = tmp(seed ^ 0xF0F0 ^ u64::from(delta) ^ (encoding as u64) << 1);
                write_records(&path, (t0, dt), opts, &records);
                let written = std::fs::read(&path).expect("read");
                std::fs::remove_file(&path).ok();
                prop_assert_eq!(written, reference_store(t0, dt, opts, &records));
            }
        }
    }

    /// f64 stores round-trip bit-exactly: every sample, every input
    /// byte, the grid, and the record order — with and without delta.
    #[test]
    fn f64_store_round_trips_exactly(
        seed in any::<u64>(),
        records in 1usize..12,
        len in 1usize..80,
        t0 in 0u64..1000,
        dt in 1u64..50,
        delta in any::<bool>(),
    ) {
        let opts = StoreOptions { encoding: SampleEncoding::F64, delta };
        let path = tmp(seed ^ (records as u64) << 8 ^ if delta { 1 } else { 0 });
        let mut writer = StoreWriter::create(&path, t0, dt, opts).expect("create");
        let mut expected = Vec::new();
        for r in 0..records {
            let samples: Vec<f64> = (0..len).map(|i| sample_value(seed, r, i)).collect();
            let input = vec![r as u8, (seed % 251) as u8];
            writer
                .append(&input, &Trace::from_samples(t0, dt, samples.clone()))
                .expect("append");
            expected.push((input, samples));
        }
        writer.finish().expect("finish");

        let mut reader = StoreReader::open(&path).expect("open");
        prop_assert_eq!(reader.t0_ps(), t0);
        prop_assert_eq!(reader.dt_ps(), dt);
        for (input, samples) in &expected {
            let (got_input, got_trace) = reader.next_record().expect("read").expect("record");
            prop_assert_eq!(&got_input, input);
            prop_assert_eq!(got_trace.samples(), samples.as_slice());
            prop_assert_eq!(got_trace.t0_ps(), t0);
            prop_assert_eq!(got_trace.dt_ps(), dt);
        }
        prop_assert!(reader.next_record().expect("clean EOF").is_none());
        std::fs::remove_file(&path).ok();
    }

    /// f32 stores round-trip to exactly the f32-narrowed value — delta
    /// must never cost additional precision.
    #[test]
    fn f32_store_round_trips_to_narrowed_value(
        seed in any::<u64>(),
        len in 1usize..60,
        delta in any::<bool>(),
    ) {
        let opts = StoreOptions { encoding: SampleEncoding::F32, delta };
        let path = tmp(seed ^ 0xF32F32 ^ if delta { 2 } else { 0 });
        let samples: Vec<f64> = (0..len).map(|i| sample_value(seed, 0, i)).collect();
        let mut writer = StoreWriter::create(&path, 0, 10, opts).expect("create");
        writer
            .append(b"m", &Trace::from_samples(0, 10, samples.clone()))
            .expect("append");
        writer.finish().expect("finish");

        let mut reader = StoreReader::open(&path).expect("open");
        let (_, got) = reader.next_record().expect("read").expect("record");
        for (a, b) in samples.iter().zip(got.samples()) {
            prop_assert_eq!(f64::from(*a as f32), *b);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Chopping a store anywhere inside a record surfaces as a typed
    /// `Truncated` error at that record, never as garbage data.
    #[test]
    fn any_truncation_is_detected(
        seed in any::<u64>(),
        records in 1usize..6,
        cut_back in 1u64..20,
    ) {
        let path = tmp(seed ^ 0x7C07);
        let mut writer =
            StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        for r in 0..records {
            let samples: Vec<f64> = (0..16).map(|i| sample_value(seed, r, i)).collect();
            writer.append(&[r as u8], &Trace::from_samples(0, 10, samples)).expect("append");
        }
        let end = writer.offset();
        writer.finish().expect("finish");
        let cut = end - cut_back.min(end - qdi_exec::store::HEADER_LEN - 1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open rw")
            .set_len(cut)
            .expect("truncate");

        let mut reader = StoreReader::open(&path).expect("open");
        let mut saw_error = false;
        loop {
            match reader.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(err) => {
                    prop_assert!(
                        matches!(err, qdi_exec::StoreError::Truncated { .. }),
                        "expected Truncated, got {}", err
                    );
                    saw_error = true;
                    break;
                }
            }
        }
        prop_assert!(saw_error, "a cut inside a record must be detected");
        std::fs::remove_file(&path).ok();
    }
}
