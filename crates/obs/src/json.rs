//! JSON rendering through the workspace `serde_json`.

use serde::Serialize;

/// Serializes any `Serialize` type to compact JSON text.
#[must_use]
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}
