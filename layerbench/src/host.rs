//! Host facts and probes reported with every run, so a reader can tell
//! co-tenant cache contention from a change in the program.

use std::time::Instant;

use distfront_trace::rng::SplitMix64;

/// Cores, L2 and L3 per the kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostFacts {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Unified level-2 cache per core, KiB (0 when unknown).
    pub l2_kib: u64,
    /// Level-3 cache, KiB (0 when unknown).
    pub l3_kib: u64,
}

/// Reads the host facts (core count from the scheduler, cache sizes from
/// sysfs).
pub fn facts() -> HostFacts {
    let mut facts = HostFacts {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        ..HostFacts::default()
    };
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let kib = size
            .trim()
            .trim_end_matches('K')
            .parse::<u64>()
            .unwrap_or(0);
        match level.trim() {
            "2" => facts.l2_kib = kib,
            "3" => facts.l3_kib = kib,
            _ => {}
        }
    }
    facts
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Chases a fixed random cycle through 8 MiB — past a 2 MiB L2, inside a
/// shared L3 — and returns the milliseconds 4 M dependent loads took.
/// The footprint and seed are fixed, so the figure moves only with the
/// host: a slow chase marks a run measured under L3 contention.
pub fn chase_ms() -> f64 {
    const SLOTS: usize = 1 << 20;
    const STEPS: usize = 1 << 22;
    let mut order: Vec<usize> = (0..SLOTS).collect();
    let mut rng = SplitMix64::new(0x5eed);
    for i in (1..SLOTS).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let mut next = vec![0usize; SLOTS];
    for w in 0..SLOTS {
        next[order[w]] = order[(w + 1) % SLOTS];
    }
    let t = Instant::now();
    let mut at = order[0];
    for _ in 0..STEPS {
        at = next[at];
    }
    std::hint::black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}
