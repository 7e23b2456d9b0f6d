//! Verbosity levels for events and spans.

use serde::{Deserialize, Serialize};

/// Severity / verbosity of an event or span.
///
/// The discriminants are chosen so that a *more verbose* level has a
/// *larger* value: `enabled` checks reduce to one integer compare.
/// `0` is reserved for "logging off" in the global fast-path atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Unrecoverable or clearly-wrong situations.
    Error,
    /// Suspicious conditions worth surfacing (hazards, criterion alerts).
    Warn,
    /// High-level progress: flow steps, per-run summaries.
    Info,
    /// Inner-loop summaries: per-sweep annealing stats, per-trace timing.
    Debug,
    /// Everything, including per-item records.
    Trace,
}

impl Level {
    /// All levels, in increasing verbosity.
    pub const ALL: [Level; 5] = [
        Level::Error,
        Level::Warn,
        Level::Info,
        Level::Debug,
        Level::Trace,
    ];

    /// The non-zero integer used in the global fast-path atomic.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            Level::Error => 1,
            Level::Warn => 2,
            Level::Info => 3,
            Level::Debug => 4,
            Level::Trace => 5,
        }
    }

    /// Parses a level name as used in `QDI_LOG` (case-insensitive).
    /// `"off"` parses to `None`; unknown names are an error.
    pub fn parse(name: &str) -> Result<Option<Level>, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(None),
            "error" => Ok(Some(Level::Error)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            "trace" => Ok(Some(Level::Trace)),
            other => Err(format!("unknown log level `{other}`")),
        }
    }

    /// Short uppercase label for human-readable output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
