//! The context recorded with every result: the host it ran on, peak
//! memory, and the code size of each crate.

use std::path::Path;

use serde_json::Value;

/// `nproc`, CPU model, kernel release and `MemTotal`: no number is read
/// without the host that produced it.
pub fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = field(&cpuinfo, "model name").unwrap_or("unknown");
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_total = field(&meminfo, "MemTotal").unwrap_or("unknown");
    Value::Map(vec![
        ("nproc".into(), Value::from(nproc as u64)),
        ("cpu_model".into(), Value::from(model)),
        ("kernel".into(), Value::from(kernel.trim())),
        ("mem_total".into(), Value::from(mem_total)),
    ])
}

/// The value of the first `key: value` line of a `/proc` file.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim())
    })
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = field(&status, "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Non-blank, non-comment lines of Rust in each `crates/<name>/src`
/// under `root`, by crate name.
pub fn lines_of_code(root: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return out;
    };
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.push((name, count_dir(&src)));
        }
    }
    out.sort();
    out
}

fn count_dir(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.join("Cargo.toml").exists() {
                // A package of its own, such as this benchmark.
                0
            } else if path.is_dir() {
                count_dir(&path)
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with("//"))
                    .count() as u64
            } else {
                0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_proc_fields() {
        assert_eq!(field("a: 1\nMemTotal:  16 kB\n", "MemTotal"), Some("16 kB"));
        assert_eq!(field("a: 1\n", "b"), None);
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }
}
