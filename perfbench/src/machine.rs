//! What a result must carry so numbers from different machines never
//! compare silently: core count, CPU model, cache sizes, commit. Also the
//! process's peak resident set, which `/proc` exposes on Linux.

use std::fs;
use std::path::Path;

#[derive(Clone, Debug)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    /// Per-core L2 and shared L3 sizes in KiB (0 when unknown).
    pub l2_kib: u64,
    pub l3_kib: u64,
    pub commit: String,
}

impl Machine {
    pub fn probe() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            cpu_model,
            l2_kib: cache_kib(2),
            l3_kib: cache_kib(3),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in KiB of cpu0's unified or data cache at `level`.
fn cache_kib(level: u32) -> u64 {
    let Ok(dir) = fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return 0;
    };
    for entry in dir.flatten() {
        let read = |f: &str| fs::read_to_string(entry.path().join(f)).unwrap_or_default();
        if read("level").trim() == level.to_string() && read("type").trim() != "Instruction" {
            let size = read("size");
            let size = size.trim();
            let (num, mult) = match size.strip_suffix('K') {
                Some(k) => (k, 1),
                None => match size.strip_suffix('M') {
                    Some(m) => (m, 1024),
                    None => (size, 1),
                },
            };
            return num.parse::<u64>().map_or(0, |v| v * mult);
        }
    }
    0
}

/// The commit `git_dir`'s HEAD points at, read from the files directly
/// (no `git` process). `None` outside a git checkout.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git_dir.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set (`VmHWM`) of this process in KiB, 0 if unknown.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Reset the peak resident set to the current one, so a later
/// [`peak_rss_kib`] covers only what follows. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}
