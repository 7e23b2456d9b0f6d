//! The `qdi-trace` command line: inspect, convert and merge `.qtrs`
//! trace stores.
//!
//! ```text
//! qdi-trace info FILE...                         header + validating scan
//! qdi-trace head [--count N] FILE                first N records, summarized
//! qdi-trace fsck FILE...                         read-only integrity scan
//! qdi-trace convert [--f32|--f64] [--delta|--no-delta] IN OUT
//! qdi-trace merge OUT IN...                      concatenate stores (same grid)
//! ```
//!
//! Exit status mirrors `qdi-lint`: `0` success, `1` a store carries
//! corrupt or incompatible data (failed CRC, torn record, grid
//! mismatch), `2` usage error or a file that is not a loadable store.
//! `convert` and `merge` refuse, with `2` and before writing anything,
//! an OUT that is the same file as an IN.

use std::process::ExitCode;

use qdi_exec::store::{self, SampleEncoding, StoreError, StoreOptions, StoreReader, StoreWriter};

fn usage() -> &'static str {
    "usage: qdi-trace info FILE...\n\
     \x20      qdi-trace head [--count N] FILE\n\
     \x20      qdi-trace fsck FILE...\n\
     \x20      qdi-trace convert [--f32|--f64] [--delta|--no-delta] IN OUT\n\
     \x20      qdi-trace merge OUT IN..."
}

/// `2` for "not a loadable store / usage", `1` for "store carries bad
/// data" — the same split `qdi-lint` applies to load vs lint failures.
fn exit_for(err: &StoreError) -> ExitCode {
    match err {
        StoreError::Io { .. }
        | StoreError::BadMagic
        | StoreError::BadVersion(_)
        | StoreError::BadFlags(_)
        | StoreError::BadHeader(_) => ExitCode::from(2),
        StoreError::Truncated { .. }
        | StoreError::BadCrc { .. }
        | StoreError::NonFinite { .. }
        | StoreError::GridMismatch { .. }
        | StoreError::OffsetMismatch { .. } => ExitCode::from(1),
    }
}

fn encoding_name(enc: SampleEncoding) -> &'static str {
    match enc {
        SampleEncoding::F64 => "f64",
        SampleEncoding::F32 => "f32",
    }
}

fn cmd_info(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let mut worst = ExitCode::SUCCESS;
    for file in files {
        match store::info(file) {
            Ok(info) => {
                let per_trace = if info.records > 0 {
                    info.samples / info.records as u64
                } else {
                    0
                };
                println!(
                    "{file}: {} records, {} samples (~{per_trace}/trace), {} bytes, \
                     grid t0={} ps dt={} ps, {}{}",
                    info.records,
                    info.samples,
                    info.bytes,
                    info.t0_ps,
                    info.dt_ps,
                    encoding_name(info.encoding),
                    if info.delta { "+delta" } else { "" },
                );
            }
            Err(err) => {
                eprintln!("{file}: {err}");
                worst = exit_for(&err);
            }
        }
    }
    worst
}

/// Read-only integrity scan with qdi-lint exit discipline: `0` every
/// byte accounted for, `1` a torn tail or corrupt record, `2` the
/// header itself is unreadable.
fn cmd_fsck(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let mut worst = 0u8;
    for file in files {
        match store::fsck(file) {
            Ok(report) => {
                println!(
                    "{file}: {} CRC-valid records, {} of {} bytes intact, \
                     grid t0={} ps dt={} ps, {}{}",
                    report.records,
                    report.valid_bytes,
                    report.file_bytes,
                    report.t0_ps,
                    report.dt_ps,
                    encoding_name(report.options.encoding),
                    if report.options.delta { "+delta" } else { "" },
                );
                if let Some(err) = &report.tail_error {
                    println!(
                        "{file}: {} torn-tail bytes past the last intact record: {err}",
                        report.torn_tail_bytes
                    );
                    println!(
                        "{file}: recoverable with StoreWriter::resume(.., {})",
                        report.valid_bytes
                    );
                    worst = worst.max(1);
                } else {
                    println!("{file}: clean");
                }
            }
            Err(err) => {
                eprintln!("{file}: {err}");
                worst = worst.max(match err {
                    StoreError::Truncated { .. }
                    | StoreError::BadCrc { .. }
                    | StoreError::NonFinite { .. }
                    | StoreError::GridMismatch { .. }
                    | StoreError::OffsetMismatch { .. } => 1,
                    _ => 2,
                });
            }
        }
    }
    ExitCode::from(worst)
}

fn cmd_head(count: usize, file: &str) -> ExitCode {
    let mut reader = match StoreReader::open(file) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("{file}: {err}");
            return exit_for(&err);
        }
    };
    println!(
        "{file}: grid t0={} ps dt={} ps, {}{}",
        reader.t0_ps(),
        reader.dt_ps(),
        encoding_name(reader.options().encoding),
        if reader.options().delta { "+delta" } else { "" },
    );
    for i in 0..count {
        match reader.next_record() {
            Ok(Some((input, trace))) => {
                let hex: String = input.iter().map(|b| format!("{b:02x}")).collect();
                let (peak_t, peak) = trace.abs_peak().unwrap_or((0, 0.0));
                println!(
                    "  #{i}: input [{hex}], {} samples, rms {:.4}, peak {:+.4} @ {} ps",
                    trace.len(),
                    trace.rms(),
                    peak,
                    peak_t,
                );
            }
            Ok(None) => break,
            Err(err) => {
                eprintln!("{file}: {err}");
                return exit_for(&err);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Whether `output` is the same file as `input`, following symlinks
/// and, on Unix, comparing device and inode so a hard link counts too.
/// Creating the output truncates it, so an input read from the same
/// file would be destroyed. An output that does not exist yet is no
/// input.
fn same_file(input: &str, output: &str) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        match (std::fs::metadata(input), std::fs::metadata(output)) {
            (Ok(a), Ok(b)) => a.dev() == b.dev() && a.ino() == b.ino(),
            _ => false,
        }
    }
    #[cfg(not(unix))]
    {
        matches!(
            (std::fs::canonicalize(input), std::fs::canonicalize(output)),
            (Ok(a), Ok(b)) if a == b
        )
    }
}

fn cmd_convert(opts: StoreOptions, input: &str, output: &str) -> ExitCode {
    if same_file(input, output) {
        eprintln!("convert: OUT {output} is the same file as IN {input}; write to a new file");
        return ExitCode::from(2);
    }
    let run = || -> Result<(usize, usize), StoreError> {
        let mut reader = StoreReader::open(input)?;
        let mut writer = StoreWriter::create(output, reader.t0_ps(), reader.dt_ps(), opts)?;
        while let Some((meta, trace)) = reader.next_record()? {
            writer.append(&meta, &trace)?;
        }
        let records = writer.records();
        writer.finish()?;
        let bytes = std::fs::metadata(output)
            .map(|m| m.len() as usize)
            .unwrap_or(0);
        Ok((records, bytes))
    };
    match run() {
        Ok((records, bytes)) => {
            println!(
                "{input} -> {output}: {records} records, {bytes} bytes, {}{}",
                encoding_name(opts.encoding),
                if opts.delta { "+delta" } else { "" },
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("convert: {err}");
            exit_for(&err)
        }
    }
}

fn cmd_merge(output: &str, inputs: &[String]) -> ExitCode {
    if let Some(input) = inputs.iter().find(|input| same_file(input, output)) {
        eprintln!("merge: OUT {output} is the same file as IN {input}; write to a new file");
        return ExitCode::from(2);
    }
    let run = || -> Result<usize, StoreError> {
        let first = StoreReader::open(&inputs[0])?;
        let mut writer =
            StoreWriter::create(output, first.t0_ps(), first.dt_ps(), first.options())?;
        for input in inputs {
            let mut reader = StoreReader::open(input)?;
            if reader.t0_ps() != writer.t0_ps() || reader.dt_ps() != writer.dt_ps() {
                return Err(StoreError::GridMismatch {
                    expected: (writer.t0_ps(), writer.dt_ps()),
                    got: (reader.t0_ps(), reader.dt_ps()),
                });
            }
            while let Some((meta, trace)) = reader.next_record()? {
                writer.append(&meta, &trace)?;
            }
        }
        let records = writer.records();
        writer.finish()?;
        Ok(records)
    };
    match run() {
        Ok(records) => {
            println!("{output}: {records} records from {} stores", inputs.len());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("merge: {err}");
            exit_for(&err)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    match command {
        "info" => cmd_info(rest),
        "fsck" => cmd_fsck(rest),
        "head" => {
            let mut count = 8usize;
            let mut files = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                if arg == "--count" || arg == "-n" {
                    let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                        eprintln!("head: --count needs a number\n{}", usage());
                        return ExitCode::from(2);
                    };
                    count = n;
                } else {
                    files.push(arg.clone());
                }
            }
            if files.len() != 1 {
                eprintln!("head: exactly one FILE\n{}", usage());
                return ExitCode::from(2);
            }
            cmd_head(count, &files[0])
        }
        "convert" => {
            let mut opts = StoreOptions::new();
            let mut files = Vec::new();
            for arg in rest {
                match arg.as_str() {
                    "--f32" => opts.encoding = SampleEncoding::F32,
                    "--f64" => opts.encoding = SampleEncoding::F64,
                    "--delta" => opts.delta = true,
                    "--no-delta" => opts.delta = false,
                    _ => files.push(arg.clone()),
                }
            }
            if files.len() != 2 {
                eprintln!("convert: need IN and OUT\n{}", usage());
                return ExitCode::from(2);
            }
            cmd_convert(opts, &files[0], &files[1])
        }
        "merge" => {
            if rest.len() < 2 {
                eprintln!("merge: need OUT and at least one IN\n{}", usage());
                return ExitCode::from(2);
            }
            cmd_merge(&rest[0], &rest[1..])
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}
