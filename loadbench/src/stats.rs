//! Small measurement helpers: percentiles with their sample counts, the
//! process's peak resident memory, the run environment, and the JSON
//! result line.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use cxm_relational::Fnv64;
use cxm_server::Json;

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The nearest-rank `p`-quantile of `samples` (any order) together with
/// the number of samples that lie strictly beyond its rank. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// The median of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |(v, _)| v)
}

/// Peak resident set size of this process in MiB (`VmHWM`). The server
/// runs inside this process, so this covers client and server together.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what the benchmark ran.
pub struct Env {
    /// Cores available to this process.
    pub cores: usize,
    /// `git rev-parse HEAD` of the working directory, or `unknown` outside
    /// a git checkout.
    pub commit: String,
    /// FNV-64 over every file under `crates/` (path and content), so runs
    /// of a checkout that is not a git repository still name the code
    /// they measured.
    pub source_digest: String,
}

impl Env {
    /// Capture the environment of a run started from the repository root.
    pub fn capture() -> Env {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        let mut files = Vec::new();
        collect_files(Path::new("crates"), &mut files);
        files.sort();
        let mut h = Fnv64::new();
        for file in &files {
            h.write_str(&file.to_string_lossy());
            h.write_bytes(&std::fs::read(file).unwrap_or_default());
        }
        Env { cores, commit, source_digest: format!("{:016x}", h.finish()) }
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// One metric of the result line.
#[derive(Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<&'static str, Metric>,
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .to_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond_the_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some((50.0, 50)));
        assert_eq!(percentile(&samples, 0.99), Some((99.0, 1)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
