//! The `qdi-fi` command line: fault-injection campaigns on QDI netlists
//! in the `qdi_netlist::io` text format.
//!
//! ```text
//! qdi-fi [OPTIONS] FILE...
//!
//!   --models CSV      fault models to inject (default: seu)
//!                     seu, stuck0, stuck1, glitch, delay, drop
//!   --times CSV       injection times in ps (default: quarter points of
//!                     the golden run)
//!   --sample N        seeded uniform sample of N faults from the cross
//!                     product (default: inject all)
//!   --seed S          stimulus and sampling seed (default: 1)
//!   --tokens N        tokens per input channel per run (default: 2,
//!                     at most 1024)
//!   --fail-on CLASS   outcome class that fails the run (default: silent;
//!                     `none` disables); masked, deadlock, livelock,
//!                     protocol, silent, aborted
//!   --json            print fault records as JSON-Lines on stdout
//!   --jsonl FILE      also stream events to FILE, a qdi-obs run record
//!   --no-color        disable ANSI colors (also: NO_COLOR, non-tty)
//! ```
//!
//! Exit status: `0` clean campaign, `1` at least one run landed in the
//! `--fail-on` class, `2` usage, load or golden-run error.

use std::io::IsTerminal as _;
use std::process::ExitCode;

use qdi_exec::ExecConfig;
use qdi_fi::{
    default_injection_times, enumerate_faults, parse_models, run_campaign_parallel, sample_faults,
    CampaignConfig, FaultOutcome,
};
use qdi_sim::TimePs;

/// Parsed command line.
struct Options {
    files: Vec<String>,
    models: String,
    times: Option<Vec<TimePs>>,
    sample: Option<usize>,
    cfg: CampaignConfig,
    fail_on: Option<FaultOutcome>,
    json: bool,
    jsonl: Option<String>,
    color: Option<bool>,
}

fn usage() -> &'static str {
    "usage: qdi-fi [--models CSV] [--times CSV] [--sample N] [--seed S] \
     [--tokens N] [--fail-on CLASS|none] [--json] [--jsonl FILE] \
     [--no-color] FILE..."
}

fn parse_times(csv: &str) -> Result<Vec<TimePs>, String> {
    csv.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("--times: `{s}` is not a time in ps"))
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        models: "seu".to_string(),
        times: None,
        sample: None,
        cfg: CampaignConfig::new(),
        fail_on: Some(FaultOutcome::SilentCorruption),
        json: false,
        jsonl: None,
        color: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut operand = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--models" => opts.models = operand("--models")?,
            "--times" => opts.times = Some(parse_times(&operand("--times")?)?),
            "--sample" => {
                let v = operand("--sample")?;
                opts.sample = Some(
                    v.parse()
                        .map_err(|_| format!("--sample: `{v}` is not a count"))?,
                );
            }
            "--seed" => {
                let v = operand("--seed")?;
                opts.cfg.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a seed"))?;
            }
            "--tokens" => {
                let v = operand("--tokens")?;
                opts.cfg.tokens = v
                    .parse()
                    .map_err(|_| format!("--tokens: `{v}` is not a count"))?;
                if opts.cfg.tokens == 0 {
                    return Err("--tokens: must be at least 1".to_string());
                }
            }
            "--fail-on" => {
                let v = operand("--fail-on")?;
                opts.fail_on = if v == "none" {
                    None
                } else {
                    Some(
                        FaultOutcome::parse(&v)
                            .ok_or_else(|| format!("--fail-on: `{v}` is not an outcome class"))?,
                    )
                };
            }
            "--json" => opts.json = true,
            "--jsonl" => opts.jsonl = Some(operand("--jsonl")?),
            "--no-color" => opts.color = Some(false),
            "--color" => opts.color = Some(true),
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err("no input files".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("qdi-fi: {message}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let models = match parse_models(&opts.models) {
        Ok(models) if !models.is_empty() => models,
        Ok(_) => {
            eprintln!("qdi-fi: --models: no models given");
            return ExitCode::from(2);
        }
        Err(bad) => {
            eprintln!("qdi-fi: --models: `{bad}` is not a fault model");
            return ExitCode::from(2);
        }
    };

    let color = opts.color.unwrap_or_else(|| {
        std::env::var_os("NO_COLOR").is_none() && std::io::stderr().is_terminal()
    });

    qdi_obs::init_from_env();
    if let Some(path) = &opts.jsonl {
        // Start the run record fresh; a path that cannot be created is
        // a usage error.
        if let Err(err) = std::fs::File::create(path) {
            eprintln!("qdi-fi: cannot create `{path}`: {err}");
            return ExitCode::from(2);
        }
        qdi_obs::set_filter(qdi_obs::Filter::at(qdi_obs::Level::Debug));
        qdi_obs::span::set_file(path);
    }

    let mut failing = 0usize;
    for file in &opts.files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("qdi-fi: cannot read `{file}`: {err}");
                return ExitCode::from(2);
            }
        };
        let netlist = match qdi_netlist::io::from_text(&text) {
            Ok(netlist) => netlist,
            Err(err) => {
                eprintln!("qdi-fi: {file}: {err}");
                return ExitCode::from(2);
            }
        };
        let times = match &opts.times {
            Some(times) => times.clone(),
            None => match default_injection_times(&netlist, &opts.cfg) {
                Ok(times) => times,
                Err(err) => {
                    eprintln!("qdi-fi: {file}: golden run failed: {err}");
                    return ExitCode::from(2);
                }
            },
        };
        let mut faults = enumerate_faults(&netlist, &models, &times);
        if let Some(k) = opts.sample {
            faults = sample_faults(faults, k, opts.cfg.seed);
        }
        let report = match run_campaign_parallel(&netlist, &faults, &opts.cfg, ExecConfig::serial())
        {
            Ok(report) => report,
            Err(err) => {
                eprintln!("qdi-fi: {file}: golden run failed: {err}");
                return ExitCode::from(2);
            }
        };
        if opts.json {
            print!("{}", report.to_jsonl());
        } else {
            eprint!("{}", report.to_text());
        }
        for diag in report.diagnostics(&netlist) {
            eprintln!("{}", diag.render(color));
        }
        if let Some(class) = opts.fail_on {
            failing += report.count(class);
        }
    }
    qdi_obs::flush();

    if failing > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
