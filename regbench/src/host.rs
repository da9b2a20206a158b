//! What the benchmark reads about its own process and host: CPU time and
//! peak memory from `/proc/self`, the host's current speed, and the host
//! identity for a report.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// User plus system CPU time of this process (all threads), in ms.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. indices 11 and 12 after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// The unit of the `/proc` CPU times: 100 per second on every Linux
/// architecture this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this binary (recorded by `build.rs`).
pub fn rustc() -> &'static str {
    env!("REGBENCH_RUSTC")
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `none` outside a git checkout.
pub fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Wall time of the reference work on the reference host (2 vCPUs, Intel
/// Xeon at 2.1 GHz), ms: the median of 136 measurements over three runs,
/// one of each workload.
pub const REFERENCE_MS: f64 = 23.4;

/// Runs the reference work, one copy on each of `threads` threads at
/// once, and returns its wall time in ms.
///
/// The reference work calls nothing of regpipe, so no change to the
/// program can change its cost: only the host can. Its mix of hashing,
/// sorting and walking a tree of vectors is the kind of work a compile
/// does. A shared host's speed drifts by up to a factor of two over
/// seconds to minutes, and `REFERENCE_MS / reference_ms(..)`, measured
/// beside a timing, is how much faster than the reference host it ran.
pub fn reference_ms(threads: usize) -> f64 {
    let started = Instant::now();
    thread::scope(|scope| {
        for seed in 0..threads.max(1) as u64 {
            scope.spawn(move || black_box(reference_work(seed)));
        }
    });
    started.elapsed().as_secs_f64() * 1e3
}

/// How many times faster than the reference host this host ran, from
/// the reference work measured just before and just after a timing.
pub fn speed(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_MS / (before_ms + after_ms)
}

fn reference_work(seed: u64) -> u64 {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut acc = 0u64;
    for _ in 0..16 {
        let mut keys: Vec<u64> = (0..20_000).map(|_| next()).collect();
        let table: HashMap<u64, usize> =
            keys.iter().enumerate().map(|(i, k)| (k % 50_000, i)).collect();
        keys.sort_unstable();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); 4000];
        for node in 1..4000 {
            children[next() as usize % node].push(node);
        }
        let mut depth = vec![0u64; 4000];
        for node in 0..4000 {
            for &child in &children[node] {
                depth[child] = depth[child].max(depth[node] + (keys[child] & 7));
            }
        }
        acc = acc.wrapping_add(depth.iter().sum::<u64>() + table.len() as u64 + keys[100]);
    }
    acc
}
