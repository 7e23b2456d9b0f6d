//! The data model shared by every sink: field values and records.

use serde::{Deserialize, Serialize};

use crate::level::Level;
use crate::span::SpanRecord;

/// A typed `key = value` attachment on an event (span attributes keep
/// its [`Display`](std::fmt::Display) form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Int(v) => write!(f, "{v}"),
            FieldValue::UInt(v) => write!(f, "{v}"),
            FieldValue::Float(v) => write!(f, "{v:.4}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$ty> for FieldValue {
            fn from(v: $ty) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}

field_from!(
    i8 => Int as i64, i16 => Int as i64, i32 => Int as i64, i64 => Int as i64,
    isize => Int as i64,
    u8 => UInt as u64, u16 => UInt as u64, u32 => UInt as u64, u64 => UInt as u64,
    usize => UInt as u64,
    f32 => Float as f64, f64 => Float as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// Named fields, preserving insertion order.
pub type Fields = Vec<(String, FieldValue)>;

/// One record delivered to every installed sink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// A span closed (an ordinary span, or one hot-span roll-up).
    Span(SpanRecord),
    /// A point-in-time leveled event.
    Event {
        /// Severity.
        level: Level,
        /// Module-path-style origin.
        target: String,
        /// Formatted message.
        message: String,
        /// `key = value` attachments.
        fields: Fields,
        /// Id of the enclosing span on this thread, if any.
        span: Option<u64>,
        /// Nesting depth used for tree-indented output.
        depth: usize,
        /// Emission time, µs on the monotonic process clock
        /// ([`crate::now_us`]).
        ts_us: u64,
        /// Dense id of the emitting thread.
        thread: u64,
    },
}

impl Record {
    /// Formats the fields as ` k=v k=v` (empty string when no fields).
    #[must_use]
    pub fn fields_pretty<V: std::fmt::Display>(fields: &[(String, V)]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in fields {
            let _ = write!(out, " {k}={v}");
        }
        out
    }
}
