//! What the harness reads from the operating system: CPU time, peak
//! resident memory, core count, the commit under test, and scratch
//! directories inside the benchmark's own tree.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// User + system CPU seconds of this process, from `utime` and `stime` in
/// `/proc/self/stat`. Those tick at 10 ms (`USER_HZ` is 100 on Linux), but
/// unlike the nanosecond counters under `/proc/self/task` they keep the
/// time of threads that have exited, and the executor's pool spawns scoped
/// threads per query.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `VmHWM` of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark package's directory (the driver builds in the checkout it
/// runs in, so the compile-time path is the run-time path).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out`, created on demand: traces, run records, WAL scratch.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

/// The commit under test, read from `.git` without spawning a process;
/// `unknown` in a checkout that is not a git repository.
pub fn git_head() -> String {
    let git = package_dir().join("../.git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => fs::read_to_string(git.join(reference))
            .map(|sha| sha.trim().to_string())
            .unwrap_or_else(|_| {
                let packed = fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
                packed
                    .lines()
                    .find_map(|line| {
                        line.strip_suffix(reference)
                            .map(|sha| sha.trim().to_string())
                    })
                    .unwrap_or_else(|| "unknown".to_string())
            }),
    }
}

/// A fresh WAL directory under `benchmark/out`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "tmp-{}-{label}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch directory is creatable");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Wall clock and process CPU read together, so a block's CPU and wall
/// time cover the same interval.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: cpu_seconds(),
            started: Instant::now(),
        }
    }

    /// `(wall seconds, cpu seconds)` since [`Stopwatch::start`].
    pub fn elapsed(&self) -> (f64, f64) {
        let wall = self.started.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}

/// A fixed unit of allocator, string and ordered-set work, run on two
/// threads at once (the workloads keep both of this box's cores busy).
/// Returns the median seconds of three such runs. The harness calls it
/// around every block and scales the block's timings by it, because this
/// box's speed drifts by tens of percent for minutes at a time and a raw
/// wall-clock metric drifts with it.
pub fn calibrate() -> f64 {
    fn unit() -> usize {
        let mut set = std::collections::BTreeSet::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        // 7 000 distinct keys: the set stays under half a megabyte, so
        // `peak_rss_mb` of the smallest workload is not the calibration's.
        for i in 0..80_000u64 {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            set.insert(format!("k{}-{}", state % 1_000, i % 7));
        }
        set.iter().map(String::len).sum()
    }
    let mut runs = [0.0; 3];
    for seconds in &mut runs {
        let started = Instant::now();
        std::thread::scope(|scope| {
            let other = scope.spawn(unit);
            std::hint::black_box(unit());
            std::hint::black_box(other.join().expect("calibration thread panicked"));
        });
        *seconds = started.elapsed().as_secs_f64();
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}
