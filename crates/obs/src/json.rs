//! JSON rendering for sinks: records as JSON Lines and Chrome
//! trace-event entries, all through the workspace `serde_json`.

use serde::{Serialize, Value};

use crate::level::Level;
use crate::record::{FieldValue, Fields, Record};

/// Serializes any `Serialize` type to compact JSON text.
#[must_use]
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Serializes one [`Record`] to a single JSON line (no trailing newline).
#[must_use]
pub fn record_to_json(record: &Record) -> String {
    to_json(record)
}

/// The fields every Chrome trace-event entry carries.
fn entry(
    name: String,
    cat: &str,
    phase: &str,
    ts_us: u64,
    pid: u32,
    tid: u64,
) -> Vec<(String, Value)> {
    vec![
        ("name".into(), Value::Str(name)),
        ("cat".into(), Value::Str(cat.into())),
        ("ph".into(), Value::Str(phase.into())),
        ("ts".into(), Value::UInt(ts_us)),
        ("pid".into(), Value::UInt(pid.into())),
        ("tid".into(), Value::UInt(tid)),
    ]
}

/// One Chrome trace-event "X" (complete) entry for a closed span.
#[must_use]
pub fn chrome_complete(
    pid: u32,
    tid: u64,
    target: &str,
    name: &str,
    attrs: &[(String, String)],
    ts_us: u64,
    dur_us: u64,
) -> String {
    let mut map = entry(name.into(), target, "X", ts_us, pid, tid);
    map.push(("dur".into(), Value::UInt(dur_us)));
    let args = attrs
        .iter()
        .map(|(k, v)| (k.clone(), Value::Str(v.clone())));
    map.push(("args".into(), Value::Map(args.collect())));
    to_json(&Value::Map(map))
}

/// One Chrome trace-event "i" (instant) entry for a leveled event.
#[must_use]
pub fn chrome_instant(
    pid: u32,
    tid: u64,
    target: &str,
    level: Level,
    message: &str,
    fields: &Fields,
    ts_us: u64,
) -> String {
    let name = format!("{} {message}", level.label());
    let mut map = entry(name, target, "i", ts_us, pid, tid);
    map.push(("s".into(), Value::Str("t".into())));
    // Bare scalars, not the externally-tagged enum encoding: trace
    // viewers show `args` verbatim.
    let args = fields.iter().map(|(k, v)| {
        let scalar = match v {
            FieldValue::Int(v) => Value::Int(*v),
            FieldValue::UInt(v) => Value::UInt(*v),
            FieldValue::Float(v) => Value::Float(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
        };
        (k.clone(), scalar)
    });
    map.push(("args".into(), Value::Map(args.collect())));
    to_json(&Value::Map(map))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_entries_are_json_objects() {
        let attrs = vec![("n".to_string(), "3".to_string())];
        let x = chrome_complete(7, 0, "qdi_pnr::place", "anneal", &attrs, 10, 20);
        assert!(x.contains("\"ph\":\"X\""), "{x}");
        assert!(x.contains("\"dur\":20"), "{x}");
        assert!(x.contains("\"n\":\"3\""), "{x}");
        let fields = vec![("n".to_string(), FieldValue::UInt(3))];
        let i = chrome_instant(7, 0, "qdi_sim", Level::Warn, "hazard", &fields, 10);
        assert!(i.contains("\"ph\":\"i\""), "{i}");
        assert!(i.contains("WARN hazard"), "{i}");
        assert!(i.contains("\"n\":3"), "{i}");
    }
}
