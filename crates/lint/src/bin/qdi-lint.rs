//! The `qdi-lint` command line: static analysis of QDI netlists in the
//! `qdi_netlist::io` text format.
//!
//! ```text
//! qdi-lint [OPTIONS] FILE...
//!
//!   --deny warnings   treat every warning as an error
//!   --deny CODE       force lint CODE (e.g. QDI0007) to error
//!   --warn CODE       force lint CODE to warning
//!   --allow CODE      silence lint CODE
//!   --da-warn X       dA alert threshold (default 0.5)
//!   --da-deny X|none  dA error threshold (default 1.0); `none` disables
//!   --sym-budget N    symbolic joint-assignment budget (default 4096)
//!   --structural      run only the structural passes (skip symbolic
//!                     and capacitance)
//!   --explain CODE    print the extended help for lint CODE and exit
//!   --format FMT      output format: human (default), json, github
//!   --json            shorthand for --format json
//!   --jsonl FILE      also stream findings to FILE, a qdi-obs run record
//!   --no-color        disable ANSI colors (also: NO_COLOR, non-tty)
//! ```
//!
//! Exit status: `0` no deny-level findings, `1` at least one deny-level
//! finding, `2` usage or load error (including `--explain` of an
//! unregistered code).

use std::io::IsTerminal as _;
use std::process::ExitCode;

use qdi_lint::{LintCode, LintConfig, Registry, Severity};

/// Output format of the findings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Rustc-style text on stderr.
    Human,
    /// JSON-Lines on stdout.
    Json,
    /// GitHub Actions workflow commands on stdout.
    Github,
}

/// Parsed command line.
struct Options {
    files: Vec<String>,
    config: LintConfig,
    structural_only: bool,
    format: Format,
    explain: Option<String>,
    jsonl: Option<String>,
    color: Option<bool>,
}

fn usage() -> &'static str {
    "usage: qdi-lint [--deny warnings|CODE] [--warn CODE] [--allow CODE] \
     [--da-warn X] [--da-deny X|none] [--sym-budget N] [--structural] \
     [--explain CODE] [--format human|json|github] [--json] [--jsonl FILE] \
     [--no-color] FILE..."
}

/// Parses a lint code operand, accepting `QDI0007`, `qdi7` or `7`.
fn parse_code(flag: &str, value: &str) -> Result<LintCode, String> {
    LintCode::parse(value).ok_or_else(|| format!("{flag}: `{value}` is not a lint code"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        config: LintConfig::default(),
        structural_only: false,
        format: Format::Human,
        explain: None,
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
            "--deny" => {
                let v = operand("--deny")?;
                if v == "warnings" {
                    opts.config.deny_warnings = true;
                } else {
                    let code = parse_code("--deny", &v)?;
                    opts.config.set_level(code, Severity::Deny);
                }
            }
            "--warn" => {
                let code = parse_code("--warn", &operand("--warn")?)?;
                opts.config.set_level(code, Severity::Warn);
            }
            "--allow" => {
                let code = parse_code("--allow", &operand("--allow")?)?;
                opts.config.set_level(code, Severity::Allow);
            }
            "--da-warn" => {
                let v = operand("--da-warn")?;
                opts.config.da_warn = v
                    .parse()
                    .map_err(|_| format!("--da-warn: `{v}` is not a number"))?;
            }
            "--da-deny" => {
                let v = operand("--da-deny")?;
                opts.config.da_deny = if v == "none" {
                    None
                } else {
                    Some(
                        v.parse()
                            .map_err(|_| format!("--da-deny: `{v}` is not a number"))?,
                    )
                };
            }
            "--sym-budget" => {
                let v = operand("--sym-budget")?;
                opts.config.sym_budget = v
                    .parse()
                    .map_err(|_| format!("--sym-budget: `{v}` is not a number"))?;
            }
            "--structural" => opts.structural_only = true,
            "--explain" => opts.explain = Some(operand("--explain")?),
            "--format" => {
                opts.format = match operand("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "github" => Format::Github,
                    other => return Err(format!("--format: unknown format `{other}`")),
                };
            }
            "--json" => opts.format = Format::Json,
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
    if opts.files.is_empty() && opts.explain.is_none() {
        return Err("no input files".to_string());
    }
    Ok(opts)
}

/// Prints the extended help for `code` (rustc's `--explain` for lints).
fn explain(code_str: &str) -> ExitCode {
    let Some(code) = LintCode::parse(code_str) else {
        eprintln!("qdi-lint: --explain: `{code_str}` is not a lint code");
        return ExitCode::from(2);
    };
    let registry = Registry::full();
    let Some(descriptor) = registry.descriptors().into_iter().find(|d| d.code == code) else {
        eprintln!("qdi-lint: --explain: no lint registered with code `{code}`");
        return ExitCode::from(2);
    };
    println!(
        "{} ({}), default {}\n{}\n\n{}",
        descriptor.code,
        descriptor.name,
        descriptor.default_severity.label(),
        descriptor.summary,
        descriptor.explanation
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("qdi-lint: {message}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if let Some(code_str) = &opts.explain {
        return explain(code_str);
    }

    let color = opts.color.unwrap_or_else(|| {
        std::env::var_os("NO_COLOR").is_none() && std::io::stderr().is_terminal()
    });

    // Findings go through qdi-obs as warn/error events; `--jsonl` writes
    // them to a run record, a machine-readable stream of JSON records.
    qdi_obs::init_from_env();
    if let Some(path) = &opts.jsonl {
        // Start the run record fresh; a path that cannot be created is
        // a usage error.
        if let Err(err) = std::fs::File::create(path) {
            eprintln!("qdi-lint: cannot create `{path}`: {err}");
            return ExitCode::from(2);
        }
        qdi_obs::set_filter(qdi_obs::Filter::at(qdi_obs::Level::Warn));
        qdi_obs::span::set_file(path);
    }

    let registry = if opts.structural_only {
        Registry::structural()
    } else {
        Registry::full()
    };

    let mut denied = 0usize;
    for file in &opts.files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("qdi-lint: cannot read `{file}`: {err}");
                return ExitCode::from(2);
            }
        };
        let netlist = match qdi_netlist::io::from_text(&text) {
            Ok(netlist) => netlist,
            Err(err) => {
                eprintln!("qdi-lint: {file}: {err}");
                return ExitCode::from(2);
            }
        };
        let report = registry.run(&netlist, &opts.config);
        report.emit_to_obs();
        match opts.format {
            Format::Json => print!("{}", report.to_jsonl()),
            Format::Github => print!("{}", report.render_github()),
            Format::Human => eprint!("{}", report.render_human(color)),
        }
        denied += report.deny_count();
    }
    qdi_obs::flush();

    if denied > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
