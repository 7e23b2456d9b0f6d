//! The `.qtrs` streaming binary trace store.
//!
//! A `.qtrs` file holds one trace set on one time grid: a fixed-size
//! header followed by append-only, individually CRC-protected records.
//! All integers are little-endian.
//!
//! ```text
//! header (32 bytes)
//!   0..4    magic  "QTRS"
//!   4..6    version (u16, currently 1)
//!   6..8    flags   (u16): bit 0 = f32 samples (else f64)
//!                          bit 1 = XOR-delta sample encoding
//!   8..16   t0_ps  (u64)   trace origin, shared by every record
//!   16..24  dt_ps  (u64)   sample period, shared by every record
//!   24..32  reserved (zeros)
//!
//! record (repeated until EOF)
//!   0..4    input_len    (u32)
//!   4..8    sample_count (u32)
//!   8..     input bytes  (input_len)
//!   ..      sample block (sample_count × 4 or 8 bytes)
//!   ..+4    crc32 (IEEE) over everything above (from input_len on)
//! ```
//!
//! The sample block stores raw IEEE-754 bit patterns. With the delta
//! flag, sample `i > 0` stores `bits(s[i]) XOR bits(s[i-1])` — a
//! lossless transform that zeroes most high bytes of slowly varying
//! waveforms (the usual shape of supply-current traces), priming the
//! format for a future entropy-coding layer without changing readers.
//! The f32 encoding halves the file at ~1e-7 relative precision; the
//! default f64 encoding round-trips samples bit-exactly.
//!
//! Writers are append-only: a crashed campaign leaves at most one torn
//! record at the tail, which [`StoreWriter::resume`] truncates away
//! using the byte offset recorded in the campaign checkpoint. Readers
//! stream one record at a time, so scanning a store needs memory for
//! one trace, never the whole set.

use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use qdi_analog::Trace;
use qdi_obs::metrics::Counter;

/// File magic, `b"QTRS"`.
pub const MAGIC: [u8; 4] = *b"QTRS";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header size in bytes.
pub const HEADER_LEN: u64 = 32;

const FLAG_F32: u16 = 1 << 0;
const FLAG_DELTA: u16 = 1 << 1;
const KNOWN_FLAGS: u16 = FLAG_F32 | FLAG_DELTA;

/// How samples are serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleEncoding {
    /// 8 bytes per sample, bit-exact round trip (default).
    F64,
    /// 4 bytes per sample; values are narrowed with `as f32` (~1e-7
    /// relative precision) and widened back on read.
    F32,
}

/// Writer-side format options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Sample width.
    pub encoding: SampleEncoding,
    /// XOR-delta the sample bit patterns (lossless, see module docs).
    pub delta: bool,
}

impl StoreOptions {
    /// Bit-exact defaults: f64 samples, no delta.
    #[must_use]
    pub fn new() -> StoreOptions {
        StoreOptions {
            encoding: SampleEncoding::F64,
            delta: false,
        }
    }

    /// Compact variant: f32 samples with XOR-delta.
    #[must_use]
    pub fn compact() -> StoreOptions {
        StoreOptions {
            encoding: SampleEncoding::F32,
            delta: true,
        }
    }

    fn flags(&self) -> u16 {
        let mut flags = 0;
        if self.encoding == SampleEncoding::F32 {
            flags |= FLAG_F32;
        }
        if self.delta {
            flags |= FLAG_DELTA;
        }
        flags
    }

    fn from_flags(flags: u16) -> Result<StoreOptions, StoreError> {
        if flags & !KNOWN_FLAGS != 0 {
            return Err(StoreError::BadFlags(flags));
        }
        Ok(StoreOptions {
            encoding: if flags & FLAG_F32 != 0 {
                SampleEncoding::F32
            } else {
                SampleEncoding::F64
            },
            delta: flags & FLAG_DELTA != 0,
        })
    }

    fn sample_width(&self) -> usize {
        match self.encoding {
            SampleEncoding::F64 => 8,
            SampleEncoding::F32 => 4,
        }
    }
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions::new()
    }
}

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// The store path.
        path: String,
        /// OS error rendering.
        detail: String,
    },
    /// The file does not start with [`MAGIC`] — not a `.qtrs` store.
    BadMagic,
    /// The file's version is newer than this reader understands.
    BadVersion(u16),
    /// The header carries flag bits this reader does not understand.
    BadFlags(u16),
    /// The header is self-inconsistent (e.g. a zero sample period).
    BadHeader(String),
    /// The file ends inside a record — a torn write or truncation.
    Truncated {
        /// Byte offset where the record started.
        offset: u64,
    },
    /// A record's CRC does not match its contents.
    BadCrc {
        /// Zero-based record index.
        record: usize,
    },
    /// A sample to be written is NaN or infinite.
    NonFinite {
        /// Zero-based record index.
        record: usize,
        /// Sample index within the record.
        sample: usize,
    },
    /// A trace's grid differs from the store header's grid.
    GridMismatch {
        /// `(t0_ps, dt_ps)` of the store.
        expected: (u64, u64),
        /// `(t0_ps, dt_ps)` of the offending trace.
        got: (u64, u64),
    },
    /// A resume offset does not land on a record boundary, or the file
    /// is shorter than the checkpointed offset.
    OffsetMismatch {
        /// The checkpointed offset.
        expected: u64,
        /// The nearest record boundary at or before it (or the file
        /// length if smaller).
        found: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "{path}: {detail}"),
            StoreError::BadMagic => write!(f, "not a .qtrs store (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported .qtrs version {v}"),
            StoreError::BadFlags(bits) => write!(f, "unknown .qtrs flag bits {bits:#06x}"),
            StoreError::BadHeader(reason) => write!(f, "bad .qtrs header: {reason}"),
            StoreError::Truncated { offset } => {
                write!(f, "store truncated inside the record at byte {offset}")
            }
            StoreError::BadCrc { record } => write!(f, "record {record} fails its CRC"),
            StoreError::NonFinite { record, sample } => write!(
                f,
                "record {record} sample {sample} is not finite (would poison A0/A1 averages)"
            ),
            StoreError::GridMismatch { expected, got } => write!(
                f,
                "trace grid (t0={}, dt={}) differs from the store grid (t0={}, dt={})",
                got.0, got.1, expected.0, expected.1
            ),
            StoreError::OffsetMismatch { expected, found } => write!(
                f,
                "resume offset {expected} is not a record boundary (nearest: {found})"
            ),
        }
    }
}

impl Error for StoreError {}

fn io_err(path: &Path, err: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: err.to_string(),
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — shared with the durable sidecar
// files via `qdi_obs::durable`.
// ---------------------------------------------------------------------------

pub use qdi_obs::durable::{crc32, Crc32};

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

/// Appends the sample block to `out`, sized once up front so the loop
/// stores into place instead of growing the buffer per sample.
fn encode_samples(samples: &[f64], opts: &StoreOptions, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + samples.len() * opts.sample_width(), 0);
    let block = &mut out[start..];
    match opts.encoding {
        SampleEncoding::F64 => {
            let mut prev = 0u64;
            for (dst, &s) in block.chunks_exact_mut(8).zip(samples) {
                let bits = s.to_bits();
                let stored = if opts.delta { bits ^ prev } else { bits };
                dst.copy_from_slice(&stored.to_le_bytes());
                prev = bits;
            }
        }
        SampleEncoding::F32 => {
            let mut prev = 0u32;
            for (dst, &s) in block.chunks_exact_mut(4).zip(samples) {
                let bits = (s as f32).to_bits();
                let stored = if opts.delta { bits ^ prev } else { bits };
                dst.copy_from_slice(&stored.to_le_bytes());
                prev = bits;
            }
        }
    }
}

fn decode_samples(block: &[u8], opts: &StoreOptions) -> Vec<f64> {
    match opts.encoding {
        SampleEncoding::F64 => {
            let mut prev = 0u64;
            block
                .chunks_exact(8)
                .map(|c| {
                    let stored = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
                    let bits = if opts.delta { stored ^ prev } else { stored };
                    prev = bits;
                    f64::from_bits(bits)
                })
                .collect()
        }
        SampleEncoding::F32 => {
            let mut prev = 0u32;
            block
                .chunks_exact(4)
                .map(|c| {
                    let stored = u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
                    let bits = if opts.delta { stored ^ prev } else { stored };
                    prev = bits;
                    f64::from(f32::from_bits(bits))
                })
                .collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only `.qtrs` writer.
#[derive(Debug)]
pub struct StoreWriter {
    file: BufWriter<File>,
    path: PathBuf,
    t0_ps: u64,
    dt_ps: u64,
    opts: StoreOptions,
    records: usize,
    offset: u64,
    /// The record being encoded, reused so an append allocates only
    /// when a record outgrows every earlier one.
    record: Vec<u8>,
    written: Counter,
}

impl StoreWriter {
    /// Creates (or truncates) a store for traces on the grid
    /// `(t0_ps, dt_ps)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadHeader`] when `dt_ps` is zero, [`StoreError::Io`]
    /// on filesystem failure.
    pub fn create(
        path: impl AsRef<Path>,
        t0_ps: u64,
        dt_ps: u64,
        opts: StoreOptions,
    ) -> Result<StoreWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        if dt_ps == 0 {
            return Err(StoreError::BadHeader(
                "sample period must be positive".into(),
            ));
        }
        let file = File::create(&path).map_err(|e| io_err(&path, &e))?;
        let mut file = BufWriter::new(file);
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&opts.flags().to_le_bytes());
        header[8..16].copy_from_slice(&t0_ps.to_le_bytes());
        header[16..24].copy_from_slice(&dt_ps.to_le_bytes());
        file.write_all(&header).map_err(|e| io_err(&path, &e))?;
        Ok(StoreWriter {
            file,
            path,
            t0_ps,
            dt_ps,
            opts,
            records: 0,
            offset: HEADER_LEN,
            record: Vec::new(),
            written: qdi_obs::metrics::counter("exec.store.records_written"),
        })
    }

    /// Reopens an existing store for appending, truncating anything past
    /// `expected_offset` (the torn tail a crashed writer may have left).
    /// Scans the prefix to validate record framing, so the returned
    /// writer knows its record count.
    ///
    /// # Errors
    ///
    /// * [`StoreError::OffsetMismatch`] when `expected_offset` is not a
    ///   record boundary of the existing file (or lies past its end);
    /// * header and framing errors from the validation scan;
    /// * [`StoreError::Io`] on filesystem failure.
    pub fn resume(path: impl AsRef<Path>, expected_offset: u64) -> Result<StoreWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut reader = StoreReader::open(&path)?;
        let (t0_ps, dt_ps, opts) = (reader.t0_ps(), reader.dt_ps(), reader.options());
        let mut records = 0usize;
        while reader.offset() < expected_offset {
            match reader.next_record() {
                Ok(Some(_)) => records += 1,
                Ok(None) => {
                    return Err(StoreError::OffsetMismatch {
                        expected: expected_offset,
                        found: reader.offset(),
                    })
                }
                // A torn record *after* the checkpointed offset is
                // recoverable; inside the prefix it is fatal.
                Err(err) => return Err(err),
            }
            if reader.offset() > expected_offset {
                return Err(StoreError::OffsetMismatch {
                    expected: expected_offset,
                    found: reader.offset(),
                });
            }
        }
        drop(reader);
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        file.set_len(expected_offset)
            .map_err(|e| io_err(&path, &e))?;
        let mut file = BufWriter::new(file);
        file.seek(SeekFrom::Start(expected_offset))
            .map_err(|e| io_err(&path, &e))?;
        Ok(StoreWriter {
            file,
            path,
            t0_ps,
            dt_ps,
            opts,
            records,
            offset: expected_offset,
            record: Vec::new(),
            written: qdi_obs::metrics::counter("exec.store.records_written"),
        })
    }

    /// The store's trace origin.
    #[must_use]
    pub fn t0_ps(&self) -> u64 {
        self.t0_ps
    }

    /// The store's sample period.
    #[must_use]
    pub fn dt_ps(&self) -> u64 {
        self.dt_ps
    }

    /// Records written so far (including pre-existing ones after
    /// [`StoreWriter::resume`]).
    #[must_use]
    pub fn records(&self) -> usize {
        self.records
    }

    /// Byte offset of the next record — the value a campaign checkpoint
    /// stores instead of raw samples.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Appends one acquisition and returns the offset *after* it.
    ///
    /// # Errors
    ///
    /// * [`StoreError::GridMismatch`] when the trace is on a different
    ///   grid than the store;
    /// * [`StoreError::NonFinite`] when a sample is NaN/±inf;
    /// * [`StoreError::Io`] on write failure.
    pub fn append(&mut self, input: &[u8], trace: &Trace) -> Result<u64, StoreError> {
        if trace.t0_ps() != self.t0_ps || trace.dt_ps() != self.dt_ps {
            return Err(StoreError::GridMismatch {
                expected: (self.t0_ps, self.dt_ps),
                got: (trace.t0_ps(), trace.dt_ps()),
            });
        }
        self.append_samples(input, trace.samples())
    }

    /// [`StoreWriter::append`] for raw sample slices already known to be
    /// on the store grid.
    ///
    /// # Errors
    ///
    /// As [`StoreWriter::append`], minus the grid check.
    pub fn append_samples(&mut self, input: &[u8], samples: &[f64]) -> Result<u64, StoreError> {
        let _span = qdi_obs::span::hot("qtrs.encode");
        if let Some(sample) = samples.iter().position(|s| !s.is_finite()) {
            return Err(StoreError::NonFinite {
                record: self.records,
                sample,
            });
        }
        let record = &mut self.record;
        record.clear();
        record.reserve(8 + input.len() + samples.len() * self.opts.sample_width() + 4);
        record.extend_from_slice(
            &u32::try_from(input.len())
                .expect("input fits u32")
                .to_le_bytes(),
        );
        record.extend_from_slice(
            &u32::try_from(samples.len())
                .expect("sample count fits u32")
                .to_le_bytes(),
        );
        record.extend_from_slice(input);
        encode_samples(samples, &self.opts, record);
        let crc = crc32(record);
        record.extend_from_slice(&crc.to_le_bytes());
        self.file
            .write_all(record)
            .map_err(|e| io_err(&self.path, &e))?;
        self.records += 1;
        self.offset += record.len() as u64;
        self.written.inc();
        Ok(self.offset)
    }

    /// Flushes buffered records to the OS. Call after each checkpoint so
    /// the bytes behind the checkpointed offset are durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on flush failure.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.file.flush().map_err(|e| io_err(&self.path, &e))
    }

    /// Flushes and closes the store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.flush()
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming `.qtrs` reader: one record resident at a time.
#[derive(Debug)]
pub struct StoreReader {
    file: BufReader<File>,
    path: PathBuf,
    t0_ps: u64,
    dt_ps: u64,
    opts: StoreOptions,
    offset: u64,
    record: usize,
    /// File size at open time — the upper bound a record's declared
    /// length is checked against before its body buffer is grown, so a
    /// corrupted length field yields `Truncated`, not a multi-gigabyte
    /// allocation.
    file_len: u64,
    /// Body and CRC of the record being read, reused across records.
    body: Vec<u8>,
    read: Counter,
}

impl StoreReader {
    /// Opens a store and validates its header.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::BadVersion`] /
    /// [`StoreError::BadFlags`] / [`StoreError::BadHeader`] on a
    /// malformed header, [`StoreError::Io`] on filesystem failure.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreReader, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| io_err(&path, &e))?;
        let file_len = file.metadata().map_err(|e| io_err(&path, &e))?.len();
        let mut file = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|_| StoreError::BadMagic)?;
        if header[0..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let flags = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
        let opts = StoreOptions::from_flags(flags)?;
        let t0_ps = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let dt_ps = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        if dt_ps == 0 {
            return Err(StoreError::BadHeader(
                "sample period must be positive".into(),
            ));
        }
        Ok(StoreReader {
            file,
            path,
            t0_ps,
            dt_ps,
            opts,
            offset: HEADER_LEN,
            record: 0,
            file_len,
            body: Vec::new(),
            read: qdi_obs::metrics::counter("exec.store.records_read"),
        })
    }

    /// The store's trace origin.
    #[must_use]
    pub fn t0_ps(&self) -> u64 {
        self.t0_ps
    }

    /// The store's sample period.
    #[must_use]
    pub fn dt_ps(&self) -> u64 {
        self.dt_ps
    }

    /// The encoding options the store was written with.
    #[must_use]
    pub fn options(&self) -> StoreOptions {
        self.opts
    }

    /// Byte offset of the next unread record.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Records read so far.
    #[must_use]
    pub fn records_read(&self) -> usize {
        self.record
    }

    /// Reads the next record, or `None` at a clean end-of-file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the file ends mid-record,
    /// [`StoreError::BadCrc`] when the record's checksum fails,
    /// [`StoreError::Io`] on read failure.
    pub fn next_record(&mut self) -> Result<Option<(Vec<u8>, Trace)>, StoreError> {
        let _span = qdi_obs::span::hot("qtrs.decode");
        let record_start = self.offset;
        let mut fixed = [0u8; 8];
        match read_exact_or_eof(&mut self.file, &mut fixed) {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Partial => {
                return Err(StoreError::Truncated {
                    offset: record_start,
                })
            }
            ReadOutcome::Err(e) => return Err(io_err(&self.path, &e)),
            ReadOutcome::Full => {}
        }
        let input_len = u32::from_le_bytes(fixed[0..4].try_into().expect("4 bytes")) as usize;
        let sample_count = u32::from_le_bytes(fixed[4..8].try_into().expect("4 bytes")) as usize;
        let body_len = input_len + sample_count * self.opts.sample_width();
        // A corrupted length field must not drive the buffer growth
        // below: a record larger than the rest of the file is a
        // torn/corrupt tail, classified before any buffer is sized from it.
        let remaining = self.file_len.saturating_sub(record_start + 8);
        if body_len as u64 + 4 > remaining {
            return Err(StoreError::Truncated {
                offset: record_start,
            });
        }
        self.body.resize(body_len + 4, 0);
        let body = self.body.as_mut_slice();
        match read_exact_or_eof(&mut self.file, body) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Partial => {
                return Err(StoreError::Truncated {
                    offset: record_start,
                })
            }
            ReadOutcome::Err(e) => return Err(io_err(&self.path, &e)),
        }
        let (body, stored_crc) = body.split_at(body_len);
        let stored_crc = u32::from_le_bytes(stored_crc.try_into().expect("4 bytes"));
        let mut crc = Crc32::new();
        crc.update(&fixed);
        crc.update(body);
        if crc.finish() != stored_crc {
            return Err(StoreError::BadCrc {
                record: self.record,
            });
        }
        let (input, block) = body.split_at(input_len);
        let trace = Trace::from_samples(self.t0_ps, self.dt_ps, decode_samples(block, &self.opts));
        self.offset += 8 + body_len as u64 + 4;
        self.record += 1;
        self.read.inc();
        Ok(Some((input.to_vec(), trace)))
    }

    /// Consumes the reader into an iterator over chunks of at most
    /// `chunk` acquisitions — the unit attacks stream over. Each chunk
    /// is materialized only while its item is alive, bounding resident
    /// trace memory by one chunk.
    ///
    /// # Panics
    ///
    /// Panics when `chunk` is zero.
    pub fn chunks(self, chunk: usize) -> Chunks {
        assert!(chunk > 0, "chunk size must be positive");
        Chunks {
            reader: Some(self),
            chunk,
        }
    }
}

enum ReadOutcome {
    Full,
    Eof,
    Partial,
    Err(std::io::Error),
}

/// Reads exactly `buf.len()` bytes, distinguishing "clean EOF before the
/// first byte" from "EOF mid-buffer" (a torn record).
fn read_exact_or_eof(file: &mut impl Read, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadOutcome::Err(e),
        }
    }
    ReadOutcome::Full
}

/// Iterator over bounded-size record chunks (see [`StoreReader::chunks`]).
#[derive(Debug)]
pub struct Chunks {
    reader: Option<StoreReader>,
    chunk: usize,
}

impl Iterator for Chunks {
    type Item = Result<Vec<(Vec<u8>, Trace)>, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let reader = self.reader.as_mut()?;
        let mut out = Vec::with_capacity(self.chunk);
        while out.len() < self.chunk {
            match reader.next_record() {
                Ok(Some(record)) => out.push(record),
                Ok(None) => {
                    self.reader = None;
                    break;
                }
                Err(e) => {
                    self.reader = None;
                    return Some(Err(e));
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(Ok(out))
        }
    }
}

// ---------------------------------------------------------------------------
// Info
// ---------------------------------------------------------------------------

/// Summary of one store, produced by a full validating scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Number of records.
    pub records: usize,
    /// Total samples across all records.
    pub samples: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Trace origin, ps.
    pub t0_ps: u64,
    /// Sample period, ps.
    pub dt_ps: u64,
    /// Sample encoding.
    pub encoding: SampleEncoding,
    /// Whether XOR-delta encoding is active.
    pub delta: bool,
}

/// Scans a store end to end, validating framing and every CRC.
///
/// # Errors
///
/// The first header, framing or CRC error encountered.
pub fn info(path: impl AsRef<Path>) -> Result<StoreInfo, StoreError> {
    let path = path.as_ref();
    let mut reader = StoreReader::open(path)?;
    let mut records = 0usize;
    let mut samples = 0u64;
    while let Some((_, trace)) = reader.next_record()? {
        records += 1;
        samples += trace.len() as u64;
    }
    let bytes = std::fs::metadata(path).map_err(|e| io_err(path, &e))?.len();
    Ok(StoreInfo {
        records,
        samples,
        bytes,
        t0_ps: reader.t0_ps(),
        dt_ps: reader.dt_ps(),
        encoding: reader.options().encoding,
        delta: reader.options().delta,
    })
}

// ---------------------------------------------------------------------------
// Fsck
// ---------------------------------------------------------------------------

/// Result of a read-only integrity scan ([`fsck`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FsckReport {
    /// CRC-valid records in the intact prefix.
    pub records: usize,
    /// Bytes of the file covered by the header plus intact records.
    pub valid_bytes: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Bytes past the last intact record (`file_bytes - valid_bytes`).
    pub torn_tail_bytes: u64,
    /// The error that ended the scan, when the store is not clean
    /// (`Truncated` torn tail, `BadCrc` corruption, `Io`).
    pub tail_error: Option<StoreError>,
    /// The encoding options the store was written with.
    pub options: StoreOptions,
    /// Trace origin, ps.
    pub t0_ps: u64,
    /// Sample period, ps.
    pub dt_ps: u64,
}

impl FsckReport {
    /// Whether every byte of the file belongs to a CRC-valid record.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.tail_error.is_none() && self.torn_tail_bytes == 0
    }
}

/// Read-only integrity scan of a `.qtrs` store: walks records until the
/// first framing/CRC failure and reports the intact prefix plus the
/// torn tail, without modifying the file (the recovery counterpart is
/// [`StoreWriter::resume`], which truncates the tail away).
///
/// # Errors
///
/// Only header-class failures ([`StoreError::BadMagic`],
/// [`StoreError::BadVersion`], [`StoreError::BadFlags`],
/// [`StoreError::BadHeader`], [`StoreError::Io`] opening the file) —
/// data-class problems land in [`FsckReport::tail_error`] instead.
pub fn fsck(path: impl AsRef<Path>) -> Result<FsckReport, StoreError> {
    let path = path.as_ref();
    let mut reader = StoreReader::open(path)?;
    let file_bytes = std::fs::metadata(path).map_err(|e| io_err(path, &e))?.len();
    let mut records = 0usize;
    let mut valid_bytes = HEADER_LEN;
    let tail_error = loop {
        match reader.next_record() {
            Ok(Some(_)) => {
                records += 1;
                valid_bytes = reader.offset();
            }
            Ok(None) => break None,
            Err(err) => break Some(err),
        }
    };
    Ok(FsckReport {
        records,
        valid_bytes,
        file_bytes,
        torn_tail_bytes: file_bytes.saturating_sub(valid_bytes),
        tail_error,
        options: reader.options(),
        t0_ps: reader.t0_ps(),
        dt_ps: reader.dt_ps(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qdi_exec_store_{name}_{}.qtrs", std::process::id()))
    }

    fn ramp_trace(len: usize, scale: f64) -> Trace {
        let mut t = Trace::zeros(0, 10, len);
        for (i, s) in t.samples_mut().iter_mut().enumerate() {
            *s = (i as f64).sin() * scale;
        }
        t
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        let path = tmp("roundtrip");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        let traces: Vec<Trace> = (0..5).map(|i| ramp_trace(32 + i, 1.5)).collect();
        for (i, t) in traces.iter().enumerate() {
            w.append(&[i as u8, 0xAB], t).expect("append");
        }
        w.finish().expect("finish");
        let mut r = StoreReader::open(&path).expect("open");
        for (i, expected) in traces.iter().enumerate() {
            let (input, trace) = r.next_record().expect("read").expect("record");
            assert_eq!(input, vec![i as u8, 0xAB]);
            assert_eq!(trace.samples(), expected.samples(), "record {i}");
            assert_eq!(trace.t0_ps(), 0);
            assert_eq!(trace.dt_ps(), 10);
        }
        assert!(r.next_record().expect("clean EOF").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_encoding_round_trips_and_shrinks_entropy() {
        let path = tmp("delta");
        let opts = StoreOptions {
            encoding: SampleEncoding::F64,
            delta: true,
        };
        let mut w = StoreWriter::create(&path, 5, 10, opts).expect("create");
        let mut t = Trace::zeros(5, 10, 64);
        for (i, s) in t.samples_mut().iter_mut().enumerate() {
            *s = 1.0 + i as f64 * 1e-6; // slowly varying: delta zeroes high bytes
        }
        w.append(b"x", &t).expect("append");
        w.finish().expect("finish");
        let mut r = StoreReader::open(&path).expect("open");
        let (_, back) = r.next_record().expect("read").expect("record");
        assert_eq!(back.samples(), t.samples(), "XOR-delta must be lossless");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_encoding_narrows_but_stays_close() {
        let path = tmp("f32");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::compact()).expect("create");
        let t = ramp_trace(100, 2.0);
        w.append(b"", &t).expect("append");
        w.finish().expect("finish");
        let mut r = StoreReader::open(&path).expect("open");
        let (_, back) = r.next_record().expect("read").expect("record");
        for (a, b) in t.samples().iter().zip(back.samples()) {
            assert!((a - b).abs() <= a.abs() * 1e-6 + 1e-9, "{a} vs {b}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_yields_typed_error() {
        let path = tmp("trunc");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        w.append(b"a", &ramp_trace(16, 1.0)).expect("append");
        let end = w.offset();
        w.finish().expect("finish");
        // Chop 5 bytes off the tail: the record is now torn.
        let file = OpenOptions::new().write(true).open(&path).expect("open rw");
        file.set_len(end - 5).expect("truncate");
        let mut r = StoreReader::open(&path).expect("open");
        let err = r.next_record().expect_err("torn record");
        assert_eq!(err, StoreError::Truncated { offset: HEADER_LEN });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_sample_fails_crc() {
        let path = tmp("crc");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        w.append(b"a", &ramp_trace(16, 1.0)).expect("append");
        w.finish().expect("finish");
        // Flip one byte in the middle of the sample block.
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = HEADER_LEN as usize + 20;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        let mut r = StoreReader::open(&path).expect("open");
        let err = r.next_record().expect_err("bad crc");
        assert_eq!(err, StoreError::BadCrc { record: 0 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic_version_flags() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE").expect("write");
        assert_eq!(
            StoreReader::open(&path).expect_err("magic"),
            StoreError::BadMagic
        );

        let mut header = vec![0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&99u16.to_le_bytes());
        header[16..24].copy_from_slice(&10u64.to_le_bytes());
        std::fs::write(&path, &header).expect("write");
        assert_eq!(
            StoreReader::open(&path).expect_err("version"),
            StoreError::BadVersion(99)
        );

        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&0xF0u16.to_le_bytes());
        std::fs::write(&path, &header).expect("write");
        assert_eq!(
            StoreReader::open(&path).expect_err("flags"),
            StoreError::BadFlags(0xF0)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_grid_mismatch_and_nan() {
        let path = tmp("reject");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        let err = w.append(b"", &Trace::zeros(0, 20, 4)).expect_err("grid");
        assert!(matches!(err, StoreError::GridMismatch { .. }));
        let err = w
            .append_samples(b"", &[1.0, f64::NAN])
            .expect_err("non-finite");
        assert_eq!(
            err,
            StoreError::NonFinite {
                record: 0,
                sample: 1
            }
        );
        drop(w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_torn_tail_and_continues() {
        let path = tmp("resume");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        w.append(b"a", &ramp_trace(8, 1.0)).expect("append");
        let checkpointed = w.append(b"b", &ramp_trace(8, 2.0)).expect("append");
        w.append(b"torn", &ramp_trace(8, 3.0)).expect("append");
        w.finish().expect("finish");
        // A crash after the checkpoint: the third record is garbage the
        // checkpoint never acknowledged. Resume drops it.
        let mut w = StoreWriter::resume(&path, checkpointed).expect("resume");
        assert_eq!(w.records(), 2);
        w.append(b"c", &ramp_trace(8, 4.0)).expect("append");
        w.finish().expect("finish");
        let summary = info(&path).expect("valid store");
        assert_eq!(summary.records, 3);
        let mut r = StoreReader::open(&path).expect("open");
        let inputs: Vec<Vec<u8>> = std::iter::from_fn(|| r.next_record().expect("read"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(inputs, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_non_boundary_offset() {
        let path = tmp("resume_bad");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        let end = w.append(b"a", &ramp_trace(8, 1.0)).expect("append");
        w.finish().expect("finish");
        let err = StoreWriter::resume(&path, end + 3).expect_err("past EOF");
        assert!(matches!(err, StoreError::OffsetMismatch { .. }), "{err}");
        let err = StoreWriter::resume(&path, end - 3).expect_err("mid-record");
        assert!(matches!(err, StoreError::OffsetMismatch { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunks_bound_resident_records() {
        let path = tmp("chunks");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        for i in 0..10u8 {
            w.append(&[i], &ramp_trace(8, 1.0)).expect("append");
        }
        w.finish().expect("finish");
        let sizes: Vec<usize> = StoreReader::open(&path)
            .expect("open")
            .chunks(4)
            .map(|c| c.expect("chunk").len())
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn info_summarizes_and_validates() {
        let path = tmp("info");
        let mut w = StoreWriter::create(&path, 7, 10, StoreOptions::new()).expect("create");
        w.append(b"ab", &ramp_trace_with_t0(7, 16)).expect("append");
        w.append(b"cd", &ramp_trace_with_t0(7, 16)).expect("append");
        w.finish().expect("finish");
        let summary = info(&path).expect("scan");
        assert_eq!(summary.records, 2);
        assert_eq!(summary.samples, 32);
        assert_eq!(summary.t0_ps, 7);
        assert_eq!(summary.dt_ps, 10);
        assert_eq!(summary.encoding, SampleEncoding::F64);
        std::fs::remove_file(&path).ok();
    }

    fn ramp_trace_with_t0(t0: u64, len: usize) -> Trace {
        let mut t = Trace::zeros(t0, 10, len);
        for (i, s) in t.samples_mut().iter_mut().enumerate() {
            *s = i as f64 * 0.25;
        }
        t
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fsck_reports_clean_store() {
        let path = tmp("fsck_clean");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        w.append(b"a", &ramp_trace(8, 1.0)).expect("append");
        w.append(b"b", &ramp_trace(8, 2.0)).expect("append");
        w.finish().expect("finish");
        let report = fsck(&path).expect("scan");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records, 2);
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(report.valid_bytes, report.file_bytes);
        assert_eq!(report.dt_ps, 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsck_measures_torn_tail() {
        let path = tmp("fsck_torn");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        let first_end = w.append(b"a", &ramp_trace(8, 1.0)).expect("append");
        w.append(b"b", &ramp_trace(8, 2.0)).expect("append");
        let end = w.offset();
        w.finish().expect("finish");
        let file = OpenOptions::new().write(true).open(&path).expect("open rw");
        file.set_len(end - 5).expect("truncate");
        let report = fsck(&path).expect("scan");
        assert!(!report.is_clean());
        assert_eq!(report.records, 1);
        assert_eq!(report.valid_bytes, first_end);
        assert_eq!(report.torn_tail_bytes, end - 5 - first_end);
        assert!(matches!(
            report.tail_error,
            Some(StoreError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsck_flags_crc_corruption_without_modifying() {
        let path = tmp("fsck_crc");
        let mut w = StoreWriter::create(&path, 0, 10, StoreOptions::new()).expect("create");
        w.append(b"a", &ramp_trace(8, 1.0)).expect("append");
        w.finish().expect("finish");
        let mut bytes = std::fs::read(&path).expect("read");
        let before = bytes.clone();
        bytes[HEADER_LEN as usize + 12] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let report = fsck(&path).expect("scan");
        assert_eq!(report.records, 0);
        assert_eq!(report.tail_error, Some(StoreError::BadCrc { record: 0 }));
        assert_eq!(
            std::fs::read(&path).expect("read back"),
            bytes,
            "fsck is read-only"
        );
        assert_ne!(bytes, before, "corruption actually applied");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsck_propagates_header_errors() {
        let path = tmp("fsck_header");
        std::fs::write(&path, b"JUNK").expect("write");
        assert_eq!(fsck(&path).expect_err("header"), StoreError::BadMagic);
        std::fs::remove_file(&path).ok();
    }
}
